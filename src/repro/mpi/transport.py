"""Transports: how ranks are hosted and how their mailboxes are realized.

:class:`Transport` is the explicit protocol the launcher drives — every
implementation hosts ``size`` ranks, runs the per-rank program on each, and
delivers one :class:`WorkerOutcome` per rank:

* :class:`ThreadTransport` — every rank is a thread in this process;
  mailboxes are ``queue.SimpleQueue`` (no pickling, objects move by
  reference).  Fast start-up and fully deterministic for tests, but compute
  shares one GIL — which is exactly what the backend ablation benchmark
  demonstrates.
* :class:`ProcessTransport` — every rank is a forked OS process; mailboxes
  are ``AF_UNIX`` socket pairs carrying the socket transport's
  :mod:`~repro.mpi.wire` frames (pickle 5, genome vectors out of band).
  Gives the true multi-core parallelism used in all timing experiments;
  the fork start method lets children inherit both ends of every pair.
* :class:`~repro.mpi.socket_transport.SocketTransport` (registered lazily
  as ``"socket"``) — ranks live in worker processes (forked for local
  host entries, ``repro worker`` elsewhere) connected over TCP, one
  coordinator routing length-prefixed pickle-5 frames.  The multi-node
  substrate; the per-rank program must be picklable.

New transports plug in through :func:`register_transport`; the launcher
(:func:`~repro.mpi.run_mpi`) and :class:`~repro.parallel.DistributedRunner`
resolve names through :func:`make_transport` and
:func:`available_transports`, so a registered transport is reachable from
both.  It is not yet an execution backend of the facade:
``Experiment.backend()``, ``ExecutionSettings`` validation and the CLI's
``--backend`` choices resolve through :data:`repro.registry.BACKENDS`, so
that needs a ``BACKENDS`` entry as well (a backend class named after the
transport, as :class:`~repro.api.backends.SocketBackend` is).
"""

from __future__ import annotations

import abc
import importlib
import multiprocessing
import queue
import select
import socket
import threading
import time
import traceback
from typing import Any, Callable, Sequence

from repro.mpi import wire
from repro.mpi.comm import Comm
from repro.mpi.constants import WORLD_CONTEXT
from repro.mpi.endpoint import SHUTDOWN, Endpoint, Group, Link, mailbox_links
from repro.mpi.stats import TransportStats
from repro.telemetry import bus as telemetry

__all__ = [
    "Transport",
    "ThreadTransport",
    "ProcessTransport",
    "WorkerOutcome",
    "execute_rank",
    "make_transport",
    "register_transport",
    "available_transports",
]


class WorkerOutcome:
    """What a rank produced: a return value or a formatted traceback, plus
    the rank's transport counters and (when enabled) telemetry snapshot."""

    __slots__ = ("rank", "value", "error", "stats", "telemetry")

    def __init__(self, rank: int, value: Any = None, error: str | None = None,
                 stats: TransportStats | None = None,
                 telemetry: "telemetry.TelemetrySnapshot | None" = None):
        self.rank = rank
        self.value = value
        self.error = error
        self.stats = stats
        self.telemetry = telemetry

    @property
    def failed(self) -> bool:
        return self.error is not None


def execute_rank(rank: int, size: int, inbox,
                 links: Callable[[Sequence[tuple[int, int]]], Sequence[Link]],
                 fn: Callable[..., Any], args: Sequence[Any], *,
                 stats: TransportStats | None = None) -> WorkerOutcome:
    """Run one rank's program to completion (shared by every transport).

    Builds the rank's endpoint (``inbox`` and ``links`` as
    :class:`~repro.mpi.endpoint.Endpoint` takes them) and WORLD
    communicator, runs ``fn(world, *args)``, and captures the outcome —
    value or traceback — together with the endpoint's transport counters.  A host that knows
    connection-level events (a socket worker's reconnect and connect
    retries) passes its pre-seeded ``stats`` record in; by default a fresh
    one is created.
    """
    if stats is None:
        stats = TransportStats(rank)
    # Attribute this rank's telemetry (spans from the per-rank program,
    # counters from the endpoint) to its own buffer; the snapshot rides
    # back inside the outcome so the launcher merges all ranks time-aligned.
    telemetry.bind_rank(rank)
    endpoint = Endpoint(rank, inbox, links, stats=stats)
    try:
        world = Comm(endpoint, WORLD_CONTEXT, range(size))
        value = fn(world, *args)
        return WorkerOutcome(rank, value=value, stats=stats,
                             telemetry=_rank_snapshot(rank))
    except BaseException:
        return WorkerOutcome(rank, error=traceback.format_exc(), stats=stats,
                             telemetry=_rank_snapshot(rank))
    finally:
        endpoint.close()
        telemetry.unbind_rank()


def _rank_snapshot(rank: int) -> "telemetry.TelemetrySnapshot | None":
    if not telemetry.enabled():
        return None
    snap = telemetry.snapshot(rank)
    return None if snap.empty else snap


class Transport(abc.ABC):
    """Protocol every rank-hosting substrate implements.

    Lifecycle: ``launch(fn, args)`` starts all ranks running
    ``fn(world, *args)``; ``collect(timeout)`` blocks for one
    :class:`WorkerOutcome` per rank (synthesizing failed outcomes for ranks
    that died without reporting); ``shutdown()`` releases every resource and
    is safe to call after an error.  ``kill_rank`` is the optional
    fault-injection hook.
    """

    name: str = "abstract"

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size

    @abc.abstractmethod
    def launch(self, fn: Callable[..., Any], args: Sequence[Any] = ()) -> None:
        """Start all ``size`` ranks running ``fn(world, *args)``."""

    @abc.abstractmethod
    def collect(self, timeout: float | None) -> list[WorkerOutcome]:
        """Wait for one outcome per rank; raises ``TimeoutError`` on expiry."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Tear down ranks, connections and helper threads (idempotent)."""

    def kill_rank(self, rank: int) -> None:
        """Forcibly kill one rank (fault-injection tests); optional."""
        raise NotImplementedError(f"{self.name!r} transport cannot kill ranks")


class ThreadTransport(Transport):
    """Ranks as threads; in-process queues as mailboxes."""

    name = "threaded"

    def __init__(self, size: int):
        super().__init__(size)
        self.mailboxes = [queue.SimpleQueue() for _ in range(size)]
        self.results: "queue.SimpleQueue[WorkerOutcome]" = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []

    def launch(self, fn: Callable[..., Any], args: Sequence[Any] = ()) -> None:
        # In-memory queues never block on put; endpoints send directly, and
        # a group reaches each destination rank as the sender's own object.
        links = mailbox_links(
            {rank: mailbox.put for rank, mailbox in enumerate(self.mailboxes)},
            blocking=False)
        for rank in range(self.size):
            thread = threading.Thread(
                target=self._run_rank, args=(rank, links, fn, args),
                name=f"mpi-rank-{rank}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _run_rank(self, rank: int, links, fn, args) -> None:
        self.results.put(execute_rank(rank, self.size, self.mailboxes[rank],
                                      links, fn, args))

    def collect(self, timeout: float | None) -> list[WorkerOutcome]:
        outcomes = []
        deadline = None if timeout is None else time.monotonic() + timeout
        for _ in range(self.size):
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                outcomes.append(self.results.get(timeout=remaining))
            except queue.Empty:
                raise TimeoutError("timed out waiting for worker results") from None
        return outcomes

    def shutdown(self) -> None:
        for mailbox in self.mailboxes:
            mailbox.put(SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout=5.0)


class _FrameChannel:
    """A many-writer, one-reader channel between forked processes: an
    ``AF_UNIX`` socket pair carrying :mod:`~repro.mpi.wire` frames.

    Made before fork, so every process inherits both ends.  Writers share
    one cross-process lock, so a frame is written whole and frames of
    different writers never interleave; exactly one process reads.  A
    group goes out as a gather-write MSG frame — its genome vectors from
    the sender's memory to the kernel, no user-space copy — and comes out
    as arrays that are aligned windows onto the one buffer ``recv_into``
    filled.  ``put``/``get`` are the :class:`~repro.mpi.endpoint.Endpoint`
    inbox protocol (groups and its ``SHUTDOWN`` sentinel).
    """

    def __init__(self, lock):
        self._reader, self._writer = socket.socketpair(socket.AF_UNIX,
                                                       socket.SOCK_STREAM)
        self._lock = lock

    def write(self, frame: "bytes | list") -> None:
        with self._lock:
            wire.write_frame(self._writer, frame)

    def put(self, item: "Group | tuple") -> None:
        self.write(wire.pack_frame(wire.SHUTDOWN, 0) if item is SHUTDOWN
                   else wire.pack_group_parts(item))

    def read(self) -> wire.Frame:
        return wire.read_frame(self._reader)

    def get(self) -> "Group | tuple":
        frame = self.read()
        return SHUTDOWN if frame.kind == wire.SHUTDOWN else frame.group()

    def readable(self, timeout: float) -> bool:
        return bool(select.select([self._reader], [], [], timeout)[0])

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


class ProcessTransport(Transport):
    """Ranks as forked processes; Unix socket pairs carrying wire frames
    as mailboxes and as the launcher's result channel."""

    name = "process"

    def __init__(self, size: int):
        super().__init__(size)
        self._ctx = multiprocessing.get_context("fork")
        self.mailboxes = [_FrameChannel(self._ctx.Lock()) for _ in range(size)]
        self.results = _FrameChannel(self._ctx.Lock())
        self._processes: list[multiprocessing.process.BaseProcess] = []

    def launch(self, fn: Callable[..., Any], args: Sequence[Any] = ()) -> None:
        # Socket buffers are finite: a put can block once a dead rank's
        # mailbox fills, so every destination gets its own lane and a send
        # never blocks its caller.  A group is framed once per destination
        # rank, whatever the number of tags it carries.
        links = mailbox_links(
            {rank: mailbox.put for rank, mailbox in enumerate(self.mailboxes)},
            blocking=True)
        for rank in range(self.size):
            process = self._ctx.Process(
                target=self._run_rank, args=(rank, links, fn, args),
                name=f"mpi-rank-{rank}", daemon=True,
            )
            self._processes.append(process)
            process.start()

    def _run_rank(self, rank: int, links, fn, args) -> None:
        outcome = execute_rank(rank, self.size, self.mailboxes[rank],
                               links, fn, args)
        self.results.write(wire.pack_frame_parts(wire.RESULT, rank, outcome))

    def collect(self, timeout: float | None) -> list[WorkerOutcome]:
        """Wait for one outcome per rank.

        A rank killed before posting (fault injection, OOM kill, ...) is
        detected through its exit code and synthesized as a failed outcome —
        otherwise one dead slave would hang the whole job collection.
        """
        outcomes: dict[int, WorkerOutcome] = {}
        deadline = None if timeout is None else time.monotonic() + timeout
        while len(outcomes) < self.size:
            if self.results.readable(0.25):
                outcome: WorkerOutcome = self.results.read().payload()
                outcomes[outcome.rank] = outcome
                continue
            for rank, process in enumerate(self._processes):
                if rank in outcomes or process.exitcode is None:
                    continue
                # Exited without a buffered result? Give the channel one
                # last grace wait, then declare the rank dead.
                if self.results.readable(0.2):
                    break
                outcomes[rank] = WorkerOutcome(
                    rank,
                    error=(f"process exited with code {process.exitcode} "
                           "before posting a result"),
                )
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("timed out waiting for worker results")
        return [outcomes[rank] for rank in range(self.size)]

    def shutdown(self) -> None:
        for process in self._processes:
            process.join(timeout=5.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for channel in (*self.mailboxes, self.results):
            channel.close()

    def kill_rank(self, rank: int) -> None:
        """Forcibly kill one rank (fault-injection tests)."""
        process = self._processes[rank]
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)


# -- transport registry -------------------------------------------------------

_TRANSPORTS: dict[str, Callable[..., Transport]] = {
    "threaded": ThreadTransport,
    "process": ProcessTransport,
}

#: Built-ins resolved on first use so importing the runtime never pulls in
#: the socket stack.
_LAZY_TRANSPORTS: dict[str, str] = {
    "socket": "repro.mpi.socket_transport:SocketTransport",
}


def register_transport(name: str, factory: Callable[..., Transport], *,
                       overwrite: bool = False) -> Callable[..., Transport]:
    """Register a transport factory ``(size, **options) -> Transport``."""
    if not name or not isinstance(name, str):
        raise ValueError("transport name must be a non-empty string")
    if not overwrite and (name in _TRANSPORTS or name in _LAZY_TRANSPORTS):
        raise ValueError(f"transport {name!r} is already registered")
    _LAZY_TRANSPORTS.pop(name, None)
    _TRANSPORTS[name] = factory
    return factory


def available_transports() -> set[str]:
    """Every registered transport name."""
    return set(_TRANSPORTS) | set(_LAZY_TRANSPORTS)


def make_transport(backend: str, size: int, **options: Any) -> Transport:
    """Factory used by the launcher; ``options`` go to the constructor."""
    factory = _TRANSPORTS.get(backend)
    if factory is None and backend in _LAZY_TRANSPORTS:
        module_name, _, attr = _LAZY_TRANSPORTS[backend].partition(":")
        factory = getattr(importlib.import_module(module_name), attr)
        _TRANSPORTS[backend] = factory
        # pop, not del: two threads may race the first resolution.
        _LAZY_TRANSPORTS.pop(backend, None)
    if factory is None:
        raise ValueError(f"unknown backend {backend!r}; expected one of "
                         f"{sorted(available_transports())}")
    return factory(size, **options)
