"""Job launcher — the ``mpiexec`` of this runtime.

:func:`run_mpi` starts ``size`` ranks on the named transport (threads,
forked processes, or TCP worker processes), builds each rank's WORLD
communicator, runs the user function and returns the per-rank results in
rank order.  Failures in any rank surface as
:class:`~repro.mpi.errors.MpiWorkerError` with full tracebacks; a global
``timeout`` turns distributed deadlocks into clean
:class:`~repro.mpi.errors.MpiTimeoutError` instead of hung test suites.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.mpi.errors import MpiTimeoutError, MpiWorkerError
from repro.mpi.stats import TransportStats
from repro.mpi.transport import make_transport

__all__ = ["run_mpi", "RankResults"]


def run_mpi(size: int, fn: Callable[..., Any], args: Sequence[Any] = (),
            backend: str = "process", timeout: float | None = 300.0,
            allow_failures: bool = False,
            transport_options: dict[str, Any] | None = None) -> list[Any]:
    """Run ``fn(comm, *args)`` on every rank; return values in rank order.

    Parameters
    ----------
    size:
        World size (the paper's "number of tasks": 1 master + m*m slaves).
    fn:
        The per-rank program.  Receives the WORLD :class:`Comm` first.
        With the process backend it must be picklable-by-fork (defined at
        import time; closures are fine since fork inherits memory).  With
        the socket backend it is pickled to remote workers, so it must be a
        module-level callable and ``args`` must be picklable.
    backend:
        Any name in :func:`~repro.mpi.transport.available_transports`:
        ``"process"`` (true parallelism, used for all measurements),
        ``"threaded"`` (deterministic in-process execution for tests) or
        ``"socket"`` (TCP worker processes, the multi-node mode).
    timeout:
        Seconds to wait for all ranks; ``None`` waits forever.
    allow_failures:
        When True, failed ranks yield ``None`` in the result list instead
        of raising (their tracebacks are attached to the list as the
        ``failures`` attribute via :class:`RankResults`).  Used by the
        fault-tolerance path, where an injected crash is expected.
    transport_options:
        Extra keyword options for the transport constructor — e.g.
        ``{"hosts": "nodeA:5,nodeB:4", "bind": "0.0.0.0:5555"}`` for the
        socket transport's host-spec launch mode.
    """
    transport = make_transport(backend, size, **(transport_options or {}))
    try:
        transport.launch(fn, args)
        outcomes = transport.collect(timeout)
    except TimeoutError as exc:
        raise MpiTimeoutError(f"job did not finish within {timeout}s") from exc
    finally:
        # Covers launch-time failures too (a worker dying mid-handshake
        # must not leak spawned subprocesses or the listener socket).
        transport.shutdown()

    failures = {o.rank: o.error for o in outcomes if o.failed}
    if failures and not allow_failures:
        raise MpiWorkerError(failures)
    ordered = sorted(outcomes, key=lambda o: o.rank)
    by_rank = RankResults([None] * size)
    by_rank.failures = failures
    # An outcome without stats is one the transport synthesized for a rank
    # that died before reporting: the one place a rank counts as lost.
    by_rank.transport_stats = [
        outcome.stats if outcome.stats is not None
        else TransportStats(outcome.rank, ranks_lost=1)
        for outcome in ordered
    ]
    # Telemetry snapshots ride the same path as the transport counters:
    # one per rank (None for ranks that recorded nothing or died).
    by_rank.telemetry = [
        getattr(outcome, "telemetry", None) for outcome in ordered
    ]
    for outcome in outcomes:
        if not outcome.failed:
            by_rank[outcome.rank] = outcome.value
    return by_rank


class RankResults(list):
    """Per-rank results; ``failures`` maps failed ranks to tracebacks,
    ``transport_stats`` carries each rank's message/byte counters, and
    ``telemetry`` the per-rank bus snapshots (``None`` when disabled)."""

    failures: dict[int, str]
    transport_stats: list[TransportStats]
    telemetry: list[Any]
