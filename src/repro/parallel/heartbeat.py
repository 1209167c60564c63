"""The master's heartbeat thread (paper Section III-B and Fig. 3).

"During the execution, the master periodically performs control activities
to determine if all slaves are working properly, are on time, or are
delayed ... handled by a thread of the master process (the heartbeat
thread), in order to perform the system monitoring in background, without
interfering with the main processing."

:class:`HeartbeatMonitor` runs that loop: every ``interval`` it sends a
status request to each still-processing slave, drains the replies, and
tracks per-slave liveness.  A slave that misses ``miss_limit`` consecutive
rounds is declared dead; if failure detection is enabled the monitor then
asks the master to abort the remaining slaves gracefully.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.parallel.comm_manager import CommManager
from repro.parallel.states import SlaveState

__all__ = ["SlaveLiveness", "HeartbeatMonitor"]


@dataclass
class SlaveLiveness:
    """What the master knows about one slave."""

    rank: int
    state: str = SlaveState.INACTIVE.value
    iteration: int = 0
    last_reply_at: float = field(default_factory=time.monotonic)
    missed_rounds: int = 0
    dead: bool = False

    @property
    def finished(self) -> bool:
        return self.state == SlaveState.FINISHED.value

    @property
    def accounted(self) -> bool:
        """No further monitoring needed for this slave."""
        return self.finished or self.dead


class HeartbeatMonitor:
    """Background liveness monitoring, one instance inside the master."""

    def __init__(self, comm: CommManager, slave_ranks: list[int], *,
                 interval_s: float = 0.25, miss_limit: int = 8):
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        if miss_limit < 1:
            raise ValueError("miss_limit must be >= 1")
        self.comm = comm
        self.interval_s = interval_s
        self.miss_limit = miss_limit
        self.liveness: dict[int, SlaveLiveness] = {
            rank: SlaveLiveness(rank) for rank in slave_ranks
        }
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="heartbeat", daemon=True)
        self.deaths_detected = threading.Event()

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    # -- queries (thread-safe) ---------------------------------------------------------

    def snapshot(self) -> dict[int, SlaveLiveness]:
        with self._lock:
            return {
                rank: SlaveLiveness(rank=l.rank, state=l.state, iteration=l.iteration,
                                    last_reply_at=l.last_reply_at,
                                    missed_rounds=l.missed_rounds, dead=l.dead)
                for rank, l in self.liveness.items()
            }

    def all_accounted(self) -> bool:
        with self._lock:
            return all(l.accounted for l in self.liveness.values())

    def dead_ranks(self) -> list[int]:
        with self._lock:
            return [rank for rank, l in self.liveness.items() if l.dead]

    def mark_finished(self, rank: int) -> bool:
        """Called by the master's main thread when a rank needs no more
        watching: its last result arrived — result reception is the
        authoritative end-of-execution signal — or it drained (a planned
        departure is accounted, but not dead).

        A result beats a concurrent death declaration: a slave that went
        quiet during its final iterations (long batch, loaded node) can
        exhaust the miss budget *after* its FINISHED result is already in
        flight.  Clearing ``dead`` here resurrects such a rank; the master
        re-reads :meth:`dead_ranks` before acting on ``deaths_detected`` so
        a resurrected rank is never aborted or migrated.  Returns whether a
        death declaration was overturned.
        """
        with self._lock:
            entry = self.liveness[rank]
            entry.state = SlaveState.FINISHED.value
            entry.missed_rounds = 0
            resurrected = entry.dead
            entry.dead = False
        return resurrected

    def revive(self, rank: int) -> None:
        """Put a respawned or joined rank (back) under monitoring."""
        with self._lock:
            entry = self.liveness[rank]
            entry.dead = False
            entry.missed_rounds = 0
            entry.state = SlaveState.PROCESSING.value
            entry.last_reply_at = time.monotonic()

    # -- the heartbeat loop ---------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                targets = [l.rank for l in self.liveness.values() if not l.accounted]
            if not targets:
                # Idle, not done: revive() may put a respawned or joined
                # rank back under watch long after the last survivor
                # finished.  stop() ends the loop.
                self._stop.wait(self.interval_s)
                continue
            for rank in targets:
                self.comm.request_status(rank)
            # Give slaves one interval to answer, then account.
            self._stop.wait(self.interval_s)
            replied = set()
            for reply in self.comm.drain_status_replies():
                replied.add(reply.rank)
                with self._lock:
                    entry = self.liveness.get(reply.rank)
                    if entry is None or entry.accounted:
                        continue
                    entry.state = reply.state
                    entry.iteration = reply.iteration
                    entry.last_reply_at = time.monotonic()
                    entry.missed_rounds = 0
            newly_dead = []
            with self._lock:
                for rank in targets:
                    entry = self.liveness[rank]
                    if rank in replied or entry.accounted:
                        continue
                    entry.missed_rounds += 1
                    if entry.missed_rounds >= self.miss_limit:
                        entry.dead = True
                        newly_dead.append(rank)
            if newly_dead:
                self.deaths_detected.set()
