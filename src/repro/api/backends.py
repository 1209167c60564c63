"""Pluggable execution substrates behind one :class:`TrainerBackend` face.

The paper's Table III compares the same cellular algorithm on two
substrates — single core and master–slave MPI.  Here each substrate is a
backend implementing ``execute(ctx) -> RunResult``; the facade resolves one
by name from :data:`repro.registry.BACKENDS`, so registering a new backend
makes it reachable from :class:`~repro.api.Experiment`, the CLI and the
configuration layer with zero core edits.

* :class:`SequentialBackend` drives the single-core trainer one iteration
  at a time, firing callbacks live (early stopping and periodic
  checkpointing work mid-run).
* :class:`ProcessBackend` / :class:`ThreadedBackend` / :class:`SocketBackend`
  delegate to the master–slave :class:`~repro.parallel.DistributedRunner`
  and replay the per-iteration hooks from the reduced reports afterwards.
  The socket backend runs the ranks in TCP worker processes — pass
  ``hosts="nodeA:5,nodeB:4"`` (and ``bind=``) to span machines.

Backend bit-equivalence (the paper's sequential-vs-distributed guarantee)
is preserved through this layer and asserted by the facade tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.api.callbacks import CallbackList
from repro.api.result import RunResult
from repro.config import ExperimentConfig
from repro.data.dataset import ArrayDataset
from repro.telemetry import bus as telemetry

__all__ = [
    "RunContext",
    "TrainerBackend",
    "SequentialBackend",
    "ProcessBackend",
    "ThreadedBackend",
    "SocketBackend",
]


@dataclass
class RunContext:
    """Everything a backend (and its callbacks) needs for one run."""

    config: ExperimentConfig
    dataset: ArrayDataset | None
    """The materialized corpus; None when the backend renders per node
    instead (socket runs started from a registry dataset name)."""
    callbacks: CallbackList = field(default_factory=CallbackList)
    backend_name: str = ""
    exchange_mode: str = "neighbors"
    dataset_spec: tuple[str, dict] | None = None
    """Registry name + options the dataset came from (when it did) — lets
    spawn-based backends re-render per node instead of shipping arrays."""
    checkpoint: Any = None
    """Optional :class:`TrainingCheckpoint` to resume from (sequential only)."""
    trainer: Any = None
    """The live :class:`SequentialTrainer` (None on distributed backends)."""
    stop_requested: bool = False

    def request_stop(self) -> None:
        """Ask the run loop to stop after the current iteration (live backends)."""
        self.stop_requested = True

    @property
    def can_checkpoint(self) -> bool:
        """True when a mid-run checkpoint is possible (live trainer present)."""
        return self.trainer is not None

    def write_checkpoint(self, path) -> Any:
        """Snapshot the live trainer to ``path`` and fire ``on_checkpoint``."""
        if self.trainer is None:
            raise RuntimeError(
                "mid-run checkpoints need a live trainer; distributed backends "
                "checkpoint at run end (RunResult.save_checkpoint)")
        from repro.coevolution.checkpoint import TrainingCheckpoint, save_checkpoint

        checkpoint = TrainingCheckpoint.from_trainer(self.trainer)
        save_checkpoint(path, checkpoint)
        self.callbacks.on_checkpoint(self, path, checkpoint)
        return checkpoint


class TrainerBackend:
    """Protocol every execution substrate implements."""

    name: str = "abstract"
    #: True when the substrate's workers rebuild registry datasets on their
    #: own node — the facade then skips materializing the arrays locally.
    renders_remotely: bool = False

    def execute(self, ctx: RunContext) -> RunResult:
        raise NotImplementedError


class SequentialBackend(TrainerBackend):
    """The single-core baseline, driven iteration-by-iteration.

    Runs the exact loop of :meth:`SequentialTrainer.run` (same snapshot
    semantics, same RNG discipline — bit-identical genomes) but yields
    control to the callback list between iterations.
    """

    name = "sequential"

    def execute(self, ctx: RunContext) -> RunResult:
        from repro.coevolution.sequential import SequentialTrainer
        from repro.runtime import pin_blas_threads

        if ctx.checkpoint is not None:
            trainer = SequentialTrainer.from_checkpoint(ctx.checkpoint, ctx.dataset)
        else:
            trainer = SequentialTrainer(ctx.config, ctx.dataset)
        ctx.trainer = trainer
        pin_blas_threads(1)
        if telemetry.enabled():
            # Each run starts from a clean bus so the result's merged view
            # covers exactly this run.
            telemetry.reset()
        total = max(0, trainer.config.coevolution.iterations - trainer.start_iteration)

        ctx.callbacks.on_run_start(ctx)
        executed = 0
        stopped = False
        start = time.perf_counter()
        for _ in range(total):
            next_iteration = trainer.cells[0].iteration + 1 if trainer.cells else 1

            def fire_exchange(_snapshots, iteration=next_iteration):
                ctx.callbacks.on_exchange(ctx, iteration)

            reports = trainer.step_iteration(on_exchange=fire_exchange)
            executed += 1
            ctx.callbacks.on_iteration_end(ctx, reports[0].iteration, reports)
            if ctx.stop_requested:
                stopped = True
                break
        wall = time.perf_counter() - start

        merged = None
        if telemetry.enabled():
            snap = telemetry.snapshot(None)
            if not snap.empty:
                merged = telemetry.merge_telemetry([snap])
        result = RunResult(
            backend=self.name,
            training=trainer.result(wall),
            iteration=trainer.cells[0].iteration if trainer.cells else 0,
            iterations_run=executed,
            stopped_early=stopped,
            trainer=trainer,
            telemetry=merged,
        )
        ctx.callbacks.on_run_end(ctx, result)
        return result


class _DistributedBackend(TrainerBackend):
    """Shared driver for the master–slave substrates.

    Extra constructor options pass straight through to
    :class:`~repro.parallel.DistributedRunner` (``platform=``,
    ``fault_at=``, ``heartbeat_interval_s=``, ``miss_limit=``,
    ``timeout_s=``), so fault-injection scenarios need no dedicated front
    door.
    """

    name = "abstract-distributed"

    def __init__(self, **runner_options: Any):
        self.runner_options = runner_options

    def execute(self, ctx: RunContext) -> RunResult:
        from repro.parallel.runner import DistributedRunner

        if ctx.checkpoint is not None:
            raise ValueError(
                f"the {self.name!r} backend cannot resume a checkpoint; "
                "resume runs on the 'sequential' backend")
        runner = DistributedRunner(
            ctx.config, backend=self.name, dataset=ctx.dataset,
            dataset_spec=ctx.dataset_spec,
            exchange_mode=ctx.exchange_mode, **self.runner_options)
        if telemetry.enabled():
            telemetry.reset()
        ctx.callbacks.on_run_start(ctx)
        distributed = runner.run()

        reports = distributed.training.cell_reports
        # The furthest any slave got; < configured when ranks died mid-run,
        # so checkpoints of aborted runs stay resumable.
        iterations = max((len(r) for r in reports), default=0)
        result = RunResult(
            backend=self.name,
            training=distributed.training,
            distributed=distributed,
            iteration=iterations,
            iterations_run=iterations,
            telemetry=distributed.telemetry,
        )
        # Replay the per-iteration hooks from the reduced reports so
        # observers (metrics streams, loggers) see the same event sequence
        # as on the live sequential loop.
        for index in range(iterations):
            present = [r[index] for r in reports if len(r) > index]
            ctx.callbacks.on_exchange(ctx, present[0].iteration)
            ctx.callbacks.on_iteration_end(ctx, present[0].iteration, present)
        ctx.callbacks.on_run_end(ctx, result)
        return result


class ProcessBackend(_DistributedBackend):
    """Master–slave over forked processes (true multi-core parallelism)."""

    name = "process"


class ThreadedBackend(_DistributedBackend):
    """Master–slave over threads (deterministic, test-friendly)."""

    name = "threaded"


class SocketBackend(_DistributedBackend):
    """Master–slave over TCP worker processes (single- or multi-node).

    Constructor options reach :class:`~repro.parallel.DistributedRunner`
    unchanged; the load-bearing ones are ``hosts="nodeA:5,nodeB:4"`` (where
    the ranks run; localhost entries are forked from this process) and
    ``bind="0.0.0.0:5555"`` (the rendezvous address remote ``repro worker``
    processes connect to).  When the experiment's dataset came from the
    registry, each node renders its own copy instead of receiving the
    arrays over the wire.
    """

    name = "socket"
    renders_remotely = True
