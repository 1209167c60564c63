"""The master's heartbeat (paper Section III-B and Fig. 3).

"During the execution, the master periodically performs control activities
to determine if all slaves are working properly, are on time, or are
delayed ... handled by a thread of the master process (the heartbeat
thread), in order to perform the system monitoring in background, without
interfering with the main processing."

Here the heartbeat is a tick of the master's one receive loop rather than
a thread: :class:`HeartbeatMonitor` is the liveness table that loop
advances.  Every ``interval_s`` a watched rank's round closes — a miss if
no status reply arrived since it was pinged — and the next opens with a new
ping; ``miss_limit`` consecutive misses declare the rank dead, and the
master turns the death into a membership transition.  The table reads no
clock: every call takes the time as ``now``, so a heartbeat timeout depends
only on the timestamps passed in, and the master's loop waits for a message
at most until :meth:`HeartbeatMonitor.next_tick`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.parallel.messages import StatusReply
from repro.parallel.states import SlaveState

__all__ = ["SlaveLiveness", "HeartbeatMonitor"]


@dataclass
class SlaveLiveness:
    """What the master knows about one slave."""

    rank: int
    state: str = SlaveState.INACTIVE.value
    iteration: int = 0
    missed_rounds: int = 0
    dead: bool = False
    due: float = 0.0
    """When the rank's current round closes (its next ping goes out)."""
    awaiting: bool = False
    """Pinged, and no status reply since."""

    @property
    def finished(self) -> bool:
        return self.state == SlaveState.FINISHED.value

    @property
    def accounted(self) -> bool:
        """No further monitoring needed for this slave."""
        return self.finished or self.dead


class HeartbeatMonitor:
    """The master's liveness table; empty until :meth:`watch` arms a rank."""

    def __init__(self, *, interval_s: float = 0.25, miss_limit: int = 8):
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        if miss_limit < 1:
            raise ValueError("miss_limit must be >= 1")
        self.interval_s = interval_s
        self.miss_limit = miss_limit
        self.liveness: dict[int, SlaveLiveness] = {}

    # -- queries ----------------------------------------------------------------------

    def all_accounted(self) -> bool:
        return all(l.accounted for l in self.liveness.values())

    def dead_ranks(self) -> list[int]:
        return [rank for rank, l in self.liveness.items() if l.dead]

    def next_tick(self) -> float:
        """When :meth:`tick` next has work (``inf`` with nobody watched)."""
        return min((l.due for l in self.liveness.values() if not l.accounted),
                   default=math.inf)

    # -- the table's inputs -------------------------------------------------------------

    def watch(self, rank: int, now: float) -> None:
        """Put ``rank`` (back) under watch, pinged at the next tick: at
        launch, and for a respawned or joined rank."""
        self.liveness[rank] = SlaveLiveness(rank, state=SlaveState.PROCESSING.value,
                                            due=now)

    def record(self, reply: StatusReply) -> None:
        """A status reply arrived: the rank answered this round."""
        entry = self.liveness.get(reply.rank)
        if entry is None or entry.accounted:
            return
        entry.state = reply.state
        entry.iteration = reply.iteration
        entry.missed_rounds = 0
        entry.awaiting = False

    def mark_finished(self, rank: int) -> bool:
        """The master's word that a rank needs no more watching: its last
        result arrived — result reception is the authoritative
        end-of-execution signal — or it drained (a planned departure is
        accounted, but not dead).

        A result beats an earlier death declaration: a slave that went
        quiet during its final iterations (long batch, loaded node) can
        exhaust the miss budget *after* its FINISHED result is already in
        flight.  Clearing ``dead`` here resurrects such a rank, and the
        master only acts on ranks :meth:`dead_ranks` still names, so a
        resurrected rank is never migrated.  Returns whether a death
        declaration was overturned.
        """
        entry = self.liveness[rank]
        entry.state = SlaveState.FINISHED.value
        entry.missed_rounds = 0
        resurrected = entry.dead
        entry.dead = False
        return resurrected

    def tick(self, now: float) -> list[int]:
        """Close every round that is due at ``now`` and open the next;
        returns the ranks to ping.  A rank that has not answered since its
        last ping misses the round, and dies at ``miss_limit`` misses."""
        ping = []
        for rank, entry in self.liveness.items():
            if entry.accounted or entry.due > now:
                continue
            if entry.awaiting:
                entry.missed_rounds += 1
                if entry.missed_rounds >= self.miss_limit:
                    entry.dead = True
                    continue
            entry.awaiting = True
            entry.due = now + self.interval_s
            ping.append(rank)
        return ping
