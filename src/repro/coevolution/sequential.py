"""Single-core sequential trainer — the paper's Table III baseline.

Runs all ``m x m`` cells in one process, one after another, with the exact
synchronous-exchange semantics of the distributed version: at the start of
every iteration the centers of *all* cells are snapshotted, and every cell's
step consumes the snapshots of its four neighbors.  This matches the
per-iteration ``allgather`` of the distributed implementation, so (with the
same seed) both produce identical genomes — asserted by the integration
tests — and the runtime comparison isolates parallelization effects only.

Cells train through the kernels of :mod:`repro.nn.kernels` here exactly as
they do on every distributed backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.coevolution.cell import Cell, CellReport, step_block
from repro.coevolution.genome import Genome
from repro.coevolution.grid import ToroidalGrid
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import load_synthetic_mnist
from repro.data.transforms import to_tanh_range
from repro.runtime import pin_blas_threads
from repro.telemetry import bus as telemetry

__all__ = ["SequentialTrainer", "TrainingResult", "build_training_dataset"]


def build_training_dataset(config: ExperimentConfig, *, cache: bool = True) -> ArrayDataset:
    """Render/load the synthetic dataset and scale it to the tanh range."""
    raw = load_synthetic_mnist(config.dataset_size, seed=config.seed, cache=cache)
    return ArrayDataset(to_tanh_range(raw.images), raw.labels)


@dataclass
class TrainingResult:
    """Outcome of one full training run (either trainer)."""

    config: ExperimentConfig
    center_genomes: list[tuple[Genome, Genome]]
    mixture_weights: list[np.ndarray]
    cell_reports: list[list[CellReport]]
    wall_time_s: float

    @property
    def grid(self) -> ToroidalGrid:
        coev = self.config.coevolution
        return ToroidalGrid(coev.grid_rows, coev.grid_cols)

    def best_cell_index(self) -> int:
        """Cell whose final generator fitness is best (lowest loss)."""
        finals = [reports[-1].best_generator_fitness if reports else float("inf")
                  for reports in self.cell_reports]
        return int(np.argmin(finals))

    def to_servable(self, cell: int | None = None):
        """Hand off to the serving layer: build a
        :class:`~repro.serving.registry.ServableEnsemble` from this run's
        final centers (``cell`` defaults to the fittest cell)."""
        from repro.serving.registry import ServableEnsemble

        return ServableEnsemble.from_training_result(self, cell=cell)


class SequentialTrainer:
    """Train the whole grid in one process (the single-core baseline)."""

    def __init__(self, config: ExperimentConfig, dataset: ArrayDataset | None = None):
        self.config = config
        self.grid = ToroidalGrid(config.coevolution.grid_rows, config.coevolution.grid_cols)
        self.dataset = dataset if dataset is not None else build_training_dataset(config)
        self.cells = [Cell(config, index, self.dataset)
                      for index in range(self.grid.cell_count)]
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
            cell.restore(g, d, weights, checkpoint.iteration)
        trainer.start_iteration = checkpoint.iteration
        return trainer

    def step_iteration(self, on_exchange=None) -> list[CellReport]:
        """Run exactly one synchronous-exchange iteration over all cells.

        The exchange semantics match the distributed per-iteration
        ``allgather``: the centers of *all* cells are snapshotted first,
        then every cell steps against its neighbors' snapshots — through
        :func:`~repro.coevolution.cell.step_block`, as the block that is the
        whole grid with no halo.  ``on_exchange`` (optional) is called with
        the snapshot list between the two phases — the hook the
        :mod:`repro.api` run loop exposes.
        """
        # The in-memory snapshot is this trainer's whole "gather" routine
        # (its cost is what Table IV row 1 compares against MPI): one span
        # per iteration, counted once per cell like the per-round span the
        # distributed backends record inside MpiCommManager.
        with telemetry.span("exchange.gather", calls=len(self.cells)):
            snapshots = [cell.center_genomes() for cell in self.cells]
        if on_exchange is not None:
            on_exchange(snapshots)
        everyone = dict(enumerate(snapshots))
        return step_block(dict(enumerate(self.cells)), self.grid.neighbors_of,
                          dict.fromkeys(everyone, everyone))

    def result(self, wall_time_s: float) -> TrainingResult:
        """Assemble the :class:`TrainingResult` for the current cell state."""
        return TrainingResult(
            config=self.config,
            center_genomes=[cell.center_genomes() for cell in self.cells],
            mixture_weights=[cell.mixture.weights.copy() for cell in self.cells],
            cell_reports=[cell.reports for cell in self.cells],
            wall_time_s=wall_time_s,
        )

    def run(self, iterations: int | None = None) -> TrainingResult:
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
        return self.result(time.perf_counter() - start)
