"""Per-rank receive endpoint: mailbox pump and message matching.

Every rank owns one :class:`Endpoint`.  A background *pump thread* drains
the rank's transport mailbox into an in-memory buffer and notifies a
condition variable; ``recv``/``iprobe`` then match on ``(context, source,
tag)`` against that buffer.  This single-consumer design makes the endpoint
safe for multiple user threads — exactly what the paper's slaves need, where
the main thread (master communication) and the execution thread (training)
share one MPI rank.

Matching preserves MPI's non-overtaking guarantee: the buffer keeps arrival
order and matching always takes the *earliest* matching envelope.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, NamedTuple, Sequence

from repro.analysis import lockcheck
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.errors import MpiError, MpiTimeoutError
from repro.mpi.stats import TransportStats

__all__ = ["Envelope", "Group", "Link", "Endpoint", "mailbox_links", "SHUTDOWN"]

#: Sentinel object understood by the pump thread as "stop".
SHUTDOWN = ("__shutdown__",)


@dataclass
class Envelope:
    """One received message, as ``recv``/``iprobe`` match it.

    ``context`` is the communicator's tree-structured tuple id (see
    :class:`repro.mpi.comm.Comm`), keeping traffic of different
    communicators from ever matching each other.

    ``payload`` may be **shared**: every envelope cut from one
    :class:`Group` carries the group's one payload object — on the thread
    transport the sender's own, on the socket transport the one copy its
    worker decoded for all co-hosted destinations.  Receivers treat it as
    read-only.
    """

    context: tuple[int, ...]
    source: int
    tag: int
    payload: Any


@dataclass(frozen=True)
class Group:
    """What a transport moves: one payload and everywhere it goes.

    ``routes`` lists ``(destination world rank, tag)``; a plain send is the
    group of one route, and the same pair may appear twice (a 2x2 torus
    cell neighbours the same cell on two sides) — the destination then
    receives two envelopes.  A transport hands a group to each distinct
    destination *host* once, and each destination rank's pump cuts its own
    envelopes (:class:`Envelope`) from it, so all of them share ``payload``.
    """

    context: tuple[int, ...]
    source: int
    payload: Any
    routes: tuple[tuple[int, int], ...]


class Link(NamedTuple):
    """One way out of a rank, as its transport describes it for one group.

    ``put`` hands the whole group to every destination behind the link
    (which ignores the routes it does not serve).  ``lane`` is ``None``
    when ``put`` never blocks and is called on the sender's thread;
    otherwise sends sharing a lane are written in order by one background
    thread.  ``hosts`` is how many distinct destination hosts the link
    writes to (see :mod:`repro.mpi.stats`).
    """

    put: Callable[[Group], None]
    lane: Hashable | None = None
    hosts: int = 1


def mailbox_links(mailboxes: dict[int, Callable[[Group], None]], blocking: bool
                  ) -> Callable[[Sequence[tuple[int, int]]], list[Link]]:
    """Links of a transport with one mailbox per rank: a group is put once
    into each distinct destination's mailbox.  ``blocking`` mailboxes
    (socket pairs) get a lane each, so a dead peer's full mailbox stalls
    only the sends addressed to it."""
    def links(routes: Sequence[tuple[int, int]]) -> list[Link]:
        try:
            return [Link(mailboxes[rank], rank if blocking else None)
                    for rank in dict.fromkeys(rank for rank, _ in routes)]
        except KeyError as exc:
            raise MpiError(f"unknown destination rank {exc.args[0]}") from None
    return links


class _Lane:
    """Outbound lane: a deque drained by a daemon sender thread.

    ``send`` never blocks the caller.  The sender thread performs the
    (possibly blocking: a full socket-pair mailbox, a full TCP window) ``put``;
    a rank whose peer died therefore keeps running — the paper's
    heartbeat/abort path depends on exactly this.  One thread per lane
    writes in send order, which is MPI's per-pair FIFO.
    """

    __slots__ = ("put", "deque", "cond", "in_flight", "closing", "thread")

    def __init__(self, name: str, put: Callable[[Any], None]):
        self.put = put
        self.deque = deque()
        self.cond = threading.Condition()
        self.in_flight = False
        self.closing = False
        self.thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self.thread.start()

    def send(self, item: Any) -> None:
        with self.cond:
            if self.closing:
                raise MpiError("endpoint closed; cannot send")
            self.deque.append(item)
            self.cond.notify_all()

    def _loop(self) -> None:
        while True:
            with self.cond:
                while not self.deque and not self.closing:
                    self.cond.wait()
                if not self.deque and self.closing:
                    self.cond.notify_all()
                    return
                item = self.deque.popleft()
                self.in_flight = True
            self.put(item)  # may block; never holds the lock
            del item  # a sent payload is not kept alive until the next send
            with self.cond:
                self.in_flight = False
                self.cond.notify_all()

    def flush(self, deadline: float) -> bool:
        """Wait until drained or ``deadline``; True when fully flushed."""
        with self.cond:
            self.closing = True
            self.cond.notify_all()
            while self.deque or self.in_flight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.cond.wait(timeout=min(remaining, 0.1))
            return True


class Endpoint:
    """Receive side of one rank; also hands sends to the transport's links."""

    def __init__(self, rank: int, inbox,
                 links: Callable[[Sequence[tuple[int, int]]], Sequence[Link]],
                 flush_timeout: float = 10.0,
                 stats: TransportStats | None = None):
        """``inbox`` must expose blocking ``get()`` (and ``put``, for the
        shutdown sentinel) and yields the groups (:class:`Group`) addressed
        to this rank; ``links`` is the
        transport's answer to "which of my outbound paths does a group with
        these routes use" — mailbox puts (:func:`mailbox_links`), or a
        socket worker's by-reference hand-over and framed write; the
        endpoint never assumes which.  Links whose put can stall name a
        lane, and their sends go through that lane's thread so user threads
        never block inside a send.
        """
        self.rank = rank
        self.stats = stats if stats is not None else TransportStats(rank)
        self._inbox = inbox
        self._links = links
        self._flush_timeout = flush_timeout
        self._lanes: dict[Hashable, _Lane] = {}
        self._lane_lock = threading.Lock()
        self._buffer: list[Envelope] = []
        self._cond = threading.Condition()
        self._closed = False
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"mpi-pump-{rank}", daemon=True
        )
        self._pump.start()

    # -- pump ------------------------------------------------------------------

    def _pump_loop(self) -> None:
        while True:
            group = self._inbox.get()
            if group == SHUTDOWN:
                with self._cond:
                    self._closed = True
                    self._cond.notify_all()
                return
            self.stats.count_received(group.payload)
            mine = [Envelope(group.context, group.source, tag, group.payload)
                    for rank, tag in group.routes if rank == self.rank]
            del group
            with self._cond:
                lockcheck.check_owned(self._cond, "Endpoint._buffer")
                self._buffer.extend(mine)
                self._cond.notify_all()
            del mine  # a consumed payload is not kept alive by an idle pump

    # -- send ------------------------------------------------------------------

    def send_group(self, group: Group) -> int:
        """Hand ``group`` to every link its routes use — the one send path.

        Returns the number of destination hosts written, which is what the
        sender's :class:`TransportStats` counted.
        """
        links = self._links(group.routes)
        # Whatever crosses here is read by another thread (queue consumer
        # or background lane): a live arena alias inside is a data race.
        lockcheck.check_no_alias(group, f"Endpoint.send_group({group.routes})")
        hosts = 0
        for link in links:
            hosts += link.hosts
            self.stats.count_sent(group.payload, link.hosts)
            if link.lane is None:
                link.put(group)
                continue
            with self._lane_lock:
                lane = self._lanes.get(link.lane)
                if lane is None:
                    lane = self._lanes[link.lane] = _Lane(
                        f"mpi-send-{self.rank}->{link.lane}", link.put)
            lane.send(group)
        return hosts

    # -- receive ------------------------------------------------------------------

    @staticmethod
    def _matches(env: Envelope, context: tuple, source: int, tag: int) -> bool:
        if env.context != context:
            return False
        if source != ANY_SOURCE and env.source != source:
            return False
        if tag != ANY_TAG and env.tag != tag:
            return False
        return True

    def recv(self, context: tuple, source: int, tag: int,
             timeout: float | None = None) -> Envelope:
        """Block until a matching envelope arrives (earliest-first)."""
        if timeout is not None and timeout < 0:
            raise ValueError("timeout must be None or >= 0")
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                for i, env in enumerate(self._buffer):
                    if self._matches(env, context, source, tag):
                        lockcheck.check_owned(self._cond, "Endpoint._buffer")
                        return self._buffer.pop(i)
                if self._closed:
                    raise MpiError(f"rank {self.rank}: endpoint closed while receiving")
                if end is None:
                    self._cond.wait()
                else:
                    remaining = end - time.monotonic()
                    if remaining <= 0:
                        raise MpiTimeoutError(
                            f"rank {self.rank}: recv(context={context}, source={source}, "
                            f"tag={tag}) timed out after {timeout}s"
                        )
                    self._cond.wait(timeout=remaining)

    def iprobe(self, context: tuple, source: int, tag: int) -> Envelope | None:
        """Non-blocking probe: return the earliest match without removing it."""
        with self._cond:
            for env in self._buffer:
                if self._matches(env, context, source, tag):
                    return env
        return None

    # -- shutdown -----------------------------------------------------------------

    def close(self) -> None:
        """Flush outbound lanes, then stop the pump thread (idempotent).

        Messages still undeliverable after the flush timeout (their
        destination died and its mailbox is full) are abandoned — their daemon
        lane threads die with the process.
        """
        with self._cond:
            if self._closed:
                return
        deadline = time.monotonic() + self._flush_timeout
        with self._lane_lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.flush(deadline)
        try:
            self._inbox.put(SHUTDOWN)
        except (OSError, ValueError):
            pass
        self._pump.join(timeout=5.0)
