"""The one result type every backend returns.

:class:`RunResult` unifies :class:`~repro.coevolution.TrainingResult`
(sequential runs) and :class:`~repro.parallel.DistributedResult`
(master–slave runs): the common fields are promoted to the top level, the
backend-specific artifacts stay reachable via :attr:`training` and
:attr:`distributed`, and the hand-offs the rest of the system needs —
serving (:meth:`to_servable`), checkpointing (:meth:`save_checkpoint`),
Table IV profiling (:meth:`profile`) — hang off the one object regardless
of which substrate produced it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.coevolution.cell import CellReport
from repro.coevolution.genome import Genome
from repro.coevolution.sequential import TrainingResult
from repro.config import ExperimentConfig
from repro.parallel.runner import DistributedResult
from repro.telemetry import TimerSnapshot, routine_profile

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Outcome of one :meth:`repro.api.Experiment.run` call."""

    backend: str
    training: TrainingResult
    distributed: DistributedResult | None = None
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

    # -- common fields, promoted ------------------------------------------

    @property
    def config(self) -> ExperimentConfig:
        return self.training.config

    @property
    def center_genomes(self) -> list[tuple[Genome, Genome]]:
        return self.training.center_genomes

    @property
    def mixture_weights(self) -> list[np.ndarray]:
        return self.training.mixture_weights

    @property
    def cell_reports(self) -> list[list[CellReport]]:
        return self.training.cell_reports

    @property
    def wall_time_s(self) -> float:
        return self.training.wall_time_s

    @property
    def complete(self) -> bool:
        """False when a distributed run lost slaves (see :attr:`dead_ranks`)."""
        return self.distributed.complete if self.distributed is not None else True

    @property
    def dead_ranks(self) -> list[int]:
        return list(self.distributed.dead_ranks) if self.distributed is not None else []

    @property
    def fault_policy(self) -> str:
        """The fault policy the run executed under (``abort`` when the
        substrate has no ranks to lose)."""
        return (self.distributed.fault_policy
                if self.distributed is not None else "abort")

    @property
    def degraded_ranks(self) -> list[int]:
        """Dead ranks whose cells finished frozen at their last checkpoint."""
        if self.distributed is not None:
            return list(self.distributed.degraded_ranks)
        return []

    @property
    def recovered_ranks(self) -> list[int]:
        """Dead ranks whose cells were trained to completion anyway."""
        if self.distributed is not None:
            return list(self.distributed.recovered_ranks)
        return []

    @property
    def drained_ranks(self) -> list[int]:
        """Ranks that left voluntarily mid-run (graceful drain, not a fault)."""
        if self.distributed is not None:
            return list(self.distributed.drained_ranks)
        return []

    @property
    def joined_ranks(self) -> list[int]:
        """Ranks admitted through the live rendezvous after launch."""
        if self.distributed is not None:
            return list(self.distributed.joined_ranks)
        return []

    @property
    def membership(self):
        """The run's :class:`repro.parallel.elastic.MembershipLog` — every
        epoch transition in order (``None`` on sequential runs and backends
        that do not report one)."""
        return self.distributed.membership if self.distributed is not None else None

    @property
    def ok(self) -> bool:
        """Did the run deliver what its fault policy promises?

        Sequential runs are always ok; distributed runs defer to
        :attr:`DistributedResult.ok` (abort: no deaths; degrade: frozen
        cells are the contract; recover: every lost cell recovered)."""
        return self.distributed.ok if self.distributed is not None else True

    @property
    def transport_stats(self) -> list:
        """Per-rank :class:`~repro.mpi.TransportStats` of a distributed run
        (rank order, rank 0 = master; empty on sequential runs, which move
        no messages)."""
        if self.distributed is not None:
            return list(self.distributed.transport_stats)
        return []

    def best_cell_index(self) -> int:
        """Cell whose final generator fitness is best (lowest loss)."""
        return self.training.best_cell_index()

    # -- hand-offs ---------------------------------------------------------

    def to_servable(self, cell: int | None = None):
        """Build a serving-layer ensemble from the final centers."""
        return self.training.to_servable(cell=cell)

    def to_checkpoint(self):
        """Snapshot the final state as a resumable checkpoint.

        Works for every backend — the distributed reduction delivers the
        same per-cell centers and mixture weights the sequential trainer
        holds, so ``repro run --backend process --checkpoint out.npz`` is
        now first-class.
        """
        from repro.coevolution.checkpoint import TrainingCheckpoint

        return TrainingCheckpoint(
            config=self.config,
            iteration=self.iteration,
            center_genomes=list(self.center_genomes),
            mixture_weights=[np.asarray(w).copy() for w in self.mixture_weights],
        )

    def save_checkpoint(self, path: str | os.PathLike):
        """Write :meth:`to_checkpoint` to ``path``; returns the checkpoint."""
        from repro.coevolution.checkpoint import save_checkpoint

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
