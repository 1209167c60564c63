"""Single-core sequential trainer — the paper's Table III baseline.

Runs all ``m x m`` cells in one process, one after another, with the exact
synchronous-exchange semantics of the distributed version: at the start of
every iteration the centers of *all* cells are gathered, and every cell's
step consumes the centers of its four neighbors.  This matches the
per-iteration ``allgather`` of the distributed implementation, so (with the
same seed) both produce identical genomes — asserted by the integration
tests — and the runtime comparison isolates parallelization effects only.

Cells train through the kernels of :mod:`repro.nn.kernels` here exactly as
they do on every distributed backend.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.config import ExperimentConfig
from repro.coevolution.cell import Cell, CellReport, step_block
from repro.coevolution.checkpoint import CellSnapshot, TrainingCheckpoint, save_checkpoint
from repro.coevolution.genome import Genome
from repro.coevolution.grid import ToroidalGrid
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import load_synthetic_mnist
from repro.data.transforms import to_tanh_range
from repro.registry import dtype_policy
from repro.runtime import pin_blas_threads
from repro.telemetry import TimerSnapshot, routine_profile
from repro.telemetry import bus as telemetry

if TYPE_CHECKING:
    from repro.mpi import TransportStats
    from repro.parallel.elastic import MembershipLog

__all__ = ["RunResult", "SequentialTrainer", "build_training_dataset"]


def build_training_dataset(config: ExperimentConfig, *, cache: bool = True) -> ArrayDataset:
    """Render/load the synthetic dataset and scale it to the tanh range."""
    raw = load_synthetic_mnist(config.dataset_size, seed=config.seed, cache=cache)
    return ArrayDataset(to_tanh_range(raw.images), raw.labels)


@dataclass
class RunResult:
    """The one record of a run, whichever trainer or backend produced it.

    The paper's master ends a run with a reduction phase that returns one
    artifact: every cell's final center and mixture weights, and how the
    run went (Sec. III-B).  :class:`SequentialTrainer` and
    :class:`~repro.parallel.DistributedRunner` both build this record; on a
    sequential run the distributed-only fields keep their defaults (no
    ranks lost, no messages moved).  Serving (:meth:`to_servable`),
    checkpointing (:meth:`save_checkpoint`) and Table IV profiling
    (:meth:`profile`) hang off it whatever substrate produced it.
    """

    config: ExperimentConfig
    center_genomes: list[tuple[Genome, Genome]]
    mixture_weights: list[np.ndarray]
    cell_reports: list[list[CellReport]]
    wall_time_s: float
    backend: str = "sequential"
    iteration: int = 0
    """Absolute coevolutionary iteration reached (counts resumed progress)."""
    iterations_run: int = 0
    """Iterations executed by *this* run (< configured when stopped early)."""
    stopped_early: bool = False
    trainer: Any = field(default=None, repr=False)
    """The live :class:`SequentialTrainer` (sequential backend only; None on
    distributed runs, whose per-cell state lives in the slave processes).
    An escape hatch for post-run inspection — per-cell mixtures, loss
    assignments — without leaving the facade."""
    telemetry: Any = field(default=None, repr=False)
    """Merged :class:`repro.telemetry.bus.MergedTelemetry` for the run —
    every rank's spans/counters time-aligned (plus the launcher buffer on
    distributed runs).  ``None`` when telemetry was off.  Feed it to
    :func:`repro.telemetry.to_perfetto` / :func:`repro.telemetry.to_prometheus`
    or inspect ``span_totals`` / ``counters`` directly; :meth:`profile`
    (Table IV) and :func:`repro.telemetry.mark_timeline` (Fig. 3) are views
    over it."""
    outcome_placement: dict[int, str] = field(default_factory=dict)
    """Rank -> node the master placed it on (empty on sequential runs)."""
    dead_ranks: list[int] = field(default_factory=list)
    transport_stats: list[TransportStats] = field(default_factory=list)
    """Per-rank message/byte counters, rank order (rank 0 is the master;
    empty on sequential runs, which move no messages)."""
    fault_policy: str = "abort"
    """The fault policy the run executed under (``abort`` when the
    substrate has no ranks to lose)."""
    degraded_ranks: list[int] = field(default_factory=list)
    """Dead ranks whose cells finished frozen at their last checkpoint
    (degrade policy, or recover with nobody left to adopt)."""
    recovered_ranks: list[int] = field(default_factory=list)
    """Dead ranks whose cells were trained to completion anyway — by a
    respawned replacement worker or an adopting survivor."""
    drained_ranks: list[int] = field(default_factory=list)
    """Ranks that left *voluntarily* mid-run (``repro drain``, SIGTERM):
    their cells were checkpointed and handed off, so a drain is never a
    fault — it does not appear in ``dead_ranks`` and leaves ``ok`` True."""
    joined_ranks: list[int] = field(default_factory=list)
    """Ranks admitted through the live rendezvous after launch — elastic
    joiners filling vacant slots (as standby adopters or reclaiming a
    degraded cell)."""
    membership: MembershipLog | None = None
    """The run's :class:`repro.parallel.elastic.MembershipLog` — every
    epoch transition (launch/death/drain/join/respawn) in order, or
    ``None`` on sequential runs and backends that do not report one."""

    @property
    def complete(self) -> bool:
        """False when a distributed run lost slaves (see :attr:`dead_ranks`)."""
        return not self.dead_ranks

    @property
    def ok(self) -> bool:
        """Did the run deliver what its fault policy promises?

        ``abort``: only a fault-free run is ok.  ``degrade``: ok — frozen
        cells are the documented contract.  ``recover``: ok unless a cell
        could not be recovered and fell back to degraded.
        """
        if not self.dead_ranks:
            return True
        if self.fault_policy == "abort":
            return False
        if self.fault_policy == "degrade":
            return True
        return not self.degraded_ranks

    def best_cell_index(self) -> int:
        """Cell whose final generator fitness is best (lowest loss)."""
        finals = [reports[-1].best_generator_fitness if reports else float("inf")
                  for reports in self.cell_reports]
        return int(np.argmin(finals))

    # -- hand-offs ---------------------------------------------------------

    def to_servable(self, cell: int | None = None):
        """Hand off to the serving layer: build a
        :class:`~repro.serving.registry.ServableEnsemble` from this run's
        final centers (``cell`` defaults to the fittest cell)."""
        from repro.serving.registry import ServableEnsemble

        return ServableEnsemble.from_run_result(self, cell=cell)

    def to_checkpoint(self) -> TrainingCheckpoint:
        """Snapshot the final state as a resumable checkpoint.

        Works for every backend — the distributed reduction delivers the
        same per-cell centers and mixture weights the sequential trainer
        holds, so ``repro run --backend process --checkpoint out.npz`` is
        first-class.
        """
        return TrainingCheckpoint(
            config=self.config,
            iteration=self.iteration,
            center_genomes=list(self.center_genomes),
            mixture_weights=[np.asarray(w).copy() for w in self.mixture_weights],
        )

    def save_checkpoint(self, path: str | os.PathLike) -> TrainingCheckpoint:
        """Write :meth:`to_checkpoint` to ``path``; returns the checkpoint."""
        checkpoint = self.to_checkpoint()
        save_checkpoint(path, checkpoint)
        return checkpoint

    def profile(self, *, parallel: bool = False) -> TimerSnapshot:
        """Per-routine profile (Table IV), a view over :attr:`telemetry`.

        ``parallel=False`` sums routine times across ranks (total CPU
        work); ``parallel=True`` takes the max across concurrent ranks
        (wall-clock view; the same thing on the one-rank sequential
        backend).  Empty when the run recorded no telemetry
        (``Experiment.telemetry("basic")`` is enough).
        """
        return routine_profile(self.telemetry, parallel=parallel)

    def summary(self) -> str:
        """One line for CLI/log output."""
        if self.complete:
            status = "complete"
        elif self.recovered_ranks or self.degraded_ranks:
            status = (f"dead ranks {self.dead_ranks} "
                      f"(recovered {self.recovered_ranks}, "
                      f"degraded {self.degraded_ranks})")
        else:
            status = f"dead ranks {self.dead_ranks}"
        early = ", stopped early" if self.stopped_early else ""
        elastic = ""
        if self.drained_ranks:
            elastic += f", drained {self.drained_ranks}"
        if self.joined_ranks:
            elastic += f", joined {self.joined_ranks}"
        return (f"{self.backend} run: {self.iterations_run} iteration(s) in "
                f"{self.wall_time_s:.2f}s, {status}{early}{elastic}, "
                f"best cell {self.best_cell_index()}")


class SequentialTrainer:
    """Train the whole grid in one process (the single-core baseline)."""

    def __init__(self, config: ExperimentConfig, dataset: ArrayDataset | None = None):
        self.config = config
        self.grid = ToroidalGrid(config.coevolution.grid_rows, config.coevolution.grid_cols)
        self.dataset = dataset if dataset is not None else build_training_dataset(config)
        self.cells = [Cell(config, index, self.dataset)
                      for index in range(self.grid.cell_count)]
        # The gather hands out the center vectors themselves unless they
        # must be quantized to a narrower storage dtype (mixed16).
        policy = dtype_policy(config.network.dtype)
        self._gather_alias = policy.storage == policy.compute
        self.start_iteration = 0

    @classmethod
    def from_checkpoint(cls, checkpoint, dataset: ArrayDataset | None = None
                        ) -> "SequentialTrainer":
        """Continue a run from a :class:`~repro.coevolution.checkpoint.TrainingCheckpoint`.

        ``run()`` will execute only the iterations the original
        configuration still owes (``checkpoint.remaining_iterations``).
        """
        trainer = cls(checkpoint.config, dataset)
        for cell, (g, d), weights in zip(
                trainer.cells, checkpoint.center_genomes, checkpoint.mixture_weights):
            cell.restore(CellSnapshot(cell.cell_index, checkpoint.iteration, g, d, weights))
        trainer.start_iteration = checkpoint.iteration
        return trainer

    def step_iteration(self, on_exchange=None) -> list[CellReport]:
        """Run exactly one synchronous-exchange iteration over all cells.

        The exchange semantics match the distributed per-iteration
        ``allgather``: the centers of *all* cells are gathered first, then
        every cell steps against its neighbors' centers — through
        :func:`~repro.coevolution.cell.step_block`, as the block that is the
        whole grid with no halo.  The gather copies nothing: a center is
        never trained in place, so each cell's center vector itself is
        handed to its neighbors (``center_genomes(alias=True)``; only
        ``mixed16`` makes its quantized copies).  ``on_exchange`` (optional)
        is called with the gathered list between the two phases — the hook
        the :mod:`repro.api` run loop exposes; the vectors hold still until
        the next call, so a hook that keeps one past it copies it.  Every
        cell has released last iteration's neighbor vectors and re-homed
        an adopted center by then (:meth:`Cell.release_neighbors`), so a
        hook that reads a cell's sub-population sees every slot on the
        center, and every center lies in its own cell's slabs.
        """
        # Every cell lets go of last iteration's neighbors before any
        # center is gathered: a cell that adopted a neighbor's center
        # copies it home before that neighbor trains in its slab again.
        for cell in self.cells:
            cell.release_neighbors()
        # The gather is this trainer's whole "gather" routine (its cost is
        # what Table IV row 1 compares against MPI): one span per
        # iteration, counted once per cell like the per-round span the
        # distributed backends record inside MpiCommManager.
        with telemetry.span("exchange.gather", calls=len(self.cells)):
            snapshots = [cell.center_genomes(alias=self._gather_alias)
                         for cell in self.cells]
        if on_exchange is not None:
            on_exchange(snapshots)
        everyone = dict(enumerate(snapshots))
        return step_block(dict(enumerate(self.cells)), self.grid.neighbors_of,
                          dict.fromkeys(everyone, everyone))

    def result(self, wall_time_s: float, *, iterations_run: int = 0) -> RunResult:
        """Assemble the :class:`RunResult` for the current cell state.

        The centers are handed out by reference (:meth:`Cell.export_center`
        retires their buffers, so training on leaves them as they are).
        The telemetry view is the process's default buffer merged on its
        own (``None`` when telemetry is off); the caller decides where the
        run began by resetting the bus.
        """
        merged = None
        if telemetry.enabled():
            snap = telemetry.snapshot(None)
            if not snap.empty:
                merged = telemetry.merge_telemetry([snap])
        return RunResult(
            config=self.config,
            center_genomes=[cell.export_center() for cell in self.cells],
            mixture_weights=[cell.mixture.weights.copy() for cell in self.cells],
            cell_reports=[cell.reports for cell in self.cells],
            wall_time_s=wall_time_s,
            iteration=self.cells[0].iteration,
            iterations_run=iterations_run,
            telemetry=merged,
        )

    def run(self, iterations: int | None = None) -> RunResult:
        """Run the configured number of iterations over all cells."""
        # One core per process is the paper's execution model (Table II);
        # pinning BLAS makes the single-core baseline honestly single-core.
        pin_blas_threads(1)
        if iterations is not None:
            total_iterations = iterations
        else:
            total_iterations = self.config.coevolution.iterations - self.start_iteration
        start = time.perf_counter()
        for _ in range(total_iterations):
            self.step_iteration()
        return self.result(time.perf_counter() - start,
                           iterations_run=total_iterations)
