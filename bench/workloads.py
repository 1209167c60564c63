"""The six benchmark workloads and the one way an experiment is built from them.

Every workload is the paper's Table I network (64-256-256-784 MLP, float64)
on a 2000-image dataset; what varies is the backend, the grid and how much
training separates two genome exchanges — that ratio decides which layer
dominates.  Why each one is here is recorded in ``BENCHMARK.json`` and, at
length, in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import os


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    grid: int                 # grid x grid cells, world size = cells + 1
    batch_size: int
    batches_per_iteration: int
    n_short: int              # iterations of the short run
    n_full: int               # iterations of the full run
    oracle: str               # the sequential workload whose digest it must equal
    recover: bool = False     # fault_policy("recover", snapshot_every=1), no fault injected
    dataset_size: int = 2000

    @property
    def cells(self) -> int:
        return self.grid * self.grid

    @property
    def lanes(self) -> int:
        """How many cells can train at once: one per core on a distributed
        backend, one at a time on the sequential one."""
        if self.backend == "sequential":
            return 1
        return min(self.cells, os.cpu_count() or 1)

    def smoke(self) -> "Workload":
        """Same backend, grid and policy with tiny batches: exercises every
        code path in about a second, measures nothing."""
        return dataclasses.replace(self, batch_size=10, batches_per_iteration=1,
                                   n_short=1, n_full=2, dataset_size=200)


# Run lengths: a full run takes 3.5-5 s on the 2-core reference box, so a
# 16 s driver run holds two (short, full) pairs and the 136 runs the driver
# makes fit its time cap.  iter_s is the difference within a pair; the box's
# speed drifts by several percent between runs, and a full run several times
# the short one keeps that from being amplified in the difference.
WORKLOADS = {w.name: w for w in (
    Workload("train-seq", "sequential", 2, 100, 4, 1, 6, "train-seq"),
    Workload("train-proc", "process", 2, 100, 4, 1, 6, "train-seq"),
    Workload("train-sock", "socket", 2, 100, 4, 1, 6, "train-seq"),
    Workload("exch-seq", "sequential", 3, 10, 1, 1, 12, "exch-seq"),
    Workload("exch-sock", "socket", 3, 10, 1, 1, 12, "exch-seq"),
    Workload("exch-sock-recover", "socket", 3, 10, 1, 1, 12, "exch-seq", recover=True),
)}


def socket_hosts(world_size: int) -> str:
    """Localhost host spec: ``min(nproc, 4)`` workers, slots split evenly."""
    workers = min(os.cpu_count() or 1, 4, world_size)
    base, extra = divmod(world_size, workers)
    return ",".join(f"127.0.0.1:{base + (1 if i < extra else 0)}" for i in range(workers))


def build_config(workload: Workload, seed: int, iterations: int):
    from repro.config import paper_table1_config

    config = paper_table1_config(workload.grid, workload.grid).scaled(
        iterations=iterations, dataset_size=workload.dataset_size,
        batch_size=workload.batch_size,
        batches_per_iteration=workload.batches_per_iteration)
    return dataclasses.replace(config, seed=seed)


def build_experiment(workload: Workload, seed: int, iterations: int, *,
                     backend: str | None = None, telemetry: str | None = None):
    """The public facade call a ``repro run`` user makes; no dataset is
    passed, so every backend takes its own dataset path."""
    from repro.api import Experiment

    backend = backend or workload.backend
    options = {"hosts": socket_hosts(workload.cells + 1)} if backend == "socket" else {}
    experiment = Experiment(build_config(workload, seed, iterations))
    experiment.backend(backend, **options)
    if workload.recover and backend != "sequential":
        experiment.fault_policy("recover", snapshot_every=1)
    if telemetry is not None:
        experiment.telemetry(telemetry)
    return experiment
