"""Training checkpoints: survive the cluster's wall-time limit.

The paper's jobs run under slurm with a **96-hour time limit** (Table I) on
a best-effort queue — a job killed at the limit loses all training state
unless it checkpoints.  This module snapshots everything the coevolutionary
state consists of — per-cell center genomes, mixture weights, the iteration
counter and the full configuration — into a single ``.npz`` and restores a
:class:`~repro.coevolution.sequential.SequentialTrainer` that continues
where the previous job stopped.

Two granularities live here:

* :class:`TrainingCheckpoint` — the whole grid at one iteration, written
  end-of-run or between jobs (the original wall-time-limit use case);
* :class:`CellSnapshot` — one cell's record, the form in which every
  message of distributed training carries a cell's state; the
  :class:`CellCheckpointStore` keeps the latest one per cell on the master,
  the state the fault-recovery path resumes a lost cell from.

Resume semantics: cell RNG streams are re-derived from ``(seed, cell,
iteration)``, so a resumed run is deterministic given the checkpoint, though
not bit-identical to the uninterrupted run (the standard trade-off).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.coevolution.genome import Genome

__all__ = [
    "TrainingCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "CellSnapshot",
    "CellCheckpointStore",
    "initial_cell_snapshot",
]

_FORMAT_VERSION = 1


@dataclass
class TrainingCheckpoint:
    """Everything needed to continue a run."""

    config: ExperimentConfig
    iteration: int
    center_genomes: list[tuple[Genome, Genome]]
    mixture_weights: list[np.ndarray]

    def __post_init__(self) -> None:
        cells = self.config.coevolution.cells
        if len(self.center_genomes) != cells:
            raise ValueError(
                f"checkpoint holds {len(self.center_genomes)} genomes for a "
                f"{cells}-cell grid"
            )
        if len(self.mixture_weights) != cells:
            raise ValueError("one mixture weight vector per cell required")
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")

    @property
    def remaining_iterations(self) -> int:
        return max(0, self.config.coevolution.iterations - self.iteration)

    def summary(self) -> str:
        """One line saying what this checkpoint holds — for CLI/registry logs."""
        coev = self.config.coevolution
        return (
            f"checkpoint v{_FORMAT_VERSION}: grid {coev.grid_rows}x{coev.grid_cols} "
            f"({coev.cells} cells), iteration {self.iteration}/{coev.iterations} "
            f"({self.remaining_iterations} remaining)"
        )

    def __repr__(self) -> str:
        return f"<TrainingCheckpoint {self.summary()}>"

    @classmethod
    def from_trainer(cls, trainer) -> "TrainingCheckpoint":
        """Snapshot a live :class:`SequentialTrainer`."""
        return cls(
            config=trainer.config,
            iteration=trainer.cells[0].iteration if trainer.cells else 0,
            center_genomes=[cell.center_genomes() for cell in trainer.cells],
            mixture_weights=[cell.mixture.weights.copy() for cell in trainer.cells],
        )


def save_checkpoint(path: str | os.PathLike, checkpoint: TrainingCheckpoint) -> None:
    """Write the checkpoint atomically as a compressed ``.npz``.

    The round trip is bit-exact in the genomes' own dtype: vectors are raw
    float arrays in the run's *storage* dtype (float64/float32 arenas
    as-is, float16 snapshots under ``mixed16``), npz compression is
    lossless and preserves dtype, and restoring writes them back through
    :meth:`Genome.write_into` — an in-place contiguous copy (widening
    where the arena's compute dtype is wider) into the network's slab.
    Genomes that *borrow* a live arena
    (``alias=True`` snapshots) are safe to pass here: the archive writer
    consumes them synchronously, before any further training.
    """
    metadata = {
        "version": _FORMAT_VERSION,
        "config": checkpoint.config.to_dict(),
        "iteration": checkpoint.iteration,
        "learning_rates": [
            [g.learning_rate, d.learning_rate] for g, d in checkpoint.center_genomes
        ],
        "loss_names": [g.loss_name for g, _ in checkpoint.center_genomes],
    }
    arrays: dict[str, np.ndarray] = {
        "metadata": np.frombuffer(json.dumps(metadata).encode(), dtype=np.uint8),
    }
    for index, (g, d) in enumerate(checkpoint.center_genomes):
        arrays[f"generator_{index}"] = g.parameters
        arrays[f"discriminator_{index}"] = d.parameters
        arrays[f"mixture_{index}"] = checkpoint.mixture_weights[index]
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    with open(tmp, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    os.replace(tmp, path)


def load_checkpoint(path: str | os.PathLike) -> TrainingCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    with np.load(path) as archive:
        try:
            metadata = json.loads(bytes(archive["metadata"]).decode())
        except KeyError:
            raise ValueError(f"{path}: not a repro checkpoint (no metadata)") from None
        version = metadata.get("version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        config = ExperimentConfig.from_dict(metadata["config"])
        cells = config.coevolution.cells
        genomes: list[tuple[Genome, Genome]] = []
        mixtures: list[np.ndarray] = []
        for index in range(cells):
            g_lr, d_lr = metadata["learning_rates"][index]
            loss_name = metadata["loss_names"][index]
            genomes.append((
                Genome(archive[f"generator_{index}"], g_lr, loss_name),
                Genome(archive[f"discriminator_{index}"], d_lr, loss_name),
            ))
            mixtures.append(np.asarray(archive[f"mixture_{index}"]))
    return TrainingCheckpoint(
        config=config,
        iteration=int(metadata["iteration"]),
        center_genomes=genomes,
        mixture_weights=mixtures,
    )


# -- periodic in-run per-cell snapshots (fault recovery) -----------------------


@dataclass(frozen=True)
class CellSnapshot:
    """One cell's resumable state after ``iteration`` completed iterations:
    the one record of a cell, in every message that carries a cell's state.

    ``Cell.snapshot()`` and ``Cell.restore(snapshot)`` are the only
    conversions between a live cell and its record, and round-trip bit for
    bit.  Genomes are storage-dtype copies (the same quantization boundary as
    exchange payloads — see :meth:`Cell.center_genomes`), so taking a
    snapshot never perturbs training and the snapshot is safe to queue on
    any transport.
    """

    cell_index: int
    iteration: int
    generator_genome: Genome
    discriminator_genome: Genome
    mixture_weights: np.ndarray


class CellCheckpointStore:
    """Latest per-cell snapshot, kept in master memory.

    :meth:`update` keeps only the newest snapshot per cell.  Read and
    written by the master's one receive loop only, so it needs no lock.
    """

    def __init__(self):
        self._latest: dict[int, CellSnapshot] = {}

    def update(self, snapshot: CellSnapshot) -> bool:
        """Keep ``snapshot`` iff it is newer than the stored one."""
        current = self._latest.get(snapshot.cell_index)
        if current is not None and current.iteration >= snapshot.iteration:
            return False
        self._latest[snapshot.cell_index] = snapshot
        return True

    def latest(self, cell_index: int) -> CellSnapshot | None:
        return self._latest.get(cell_index)

    def iterations(self) -> dict[int, int]:
        """cell index -> iteration of the stored snapshot."""
        return {cell: s.iteration for cell, s in self._latest.items()}


def initial_cell_snapshot(config: ExperimentConfig, cell_index: int,
                          neighborhood_size: int) -> CellSnapshot:
    """A cell's iteration-0 state, derived without a dataset: a fresh
    cell's :meth:`~repro.coevolution.cell.Cell.snapshot`.

    A cell draws nothing from its dataset until its first batch, so the
    master — which has none — can still recover a rank that died before
    its first in-run snapshot.
    """
    from repro.coevolution.cell import Cell

    return Cell(config, cell_index, None, neighborhood_size).snapshot()
