"""Table IV — profiling of the most time-consuming routines (4x4 grid).

Paper values (minutes, 4x4 grid):

    routine          single core   distributed   acceleration   speedup
    gather                  19.4          19.4         0.0%       1.00
    train                  264.9          43.8        83.5%       6.05
    update genomes         199.8          16.8        91.6%      11.87
    mutate                  25.6          17.9        29.9%       1.43
    overall                509.6          97.9        80.8%       5.21

Shape to verify: ``train`` and ``update genomes`` dominate the single-core
budget and parallelize well; ``gather`` (the neighbor exchange) does *not*
speed up — it is the same communication either way (speedup ≈ 1); ``mutate``
gains less than the compute-heavy routines.

Single-core column: per-routine *sums* over all cells (all work on one
core).  Distributed column: per-routine *maxima* across slaves (they run
concurrently, so the slowest slave sets the wall time).  Both columns are
:meth:`repro.api.RunResult.profile` views over the telemetry span totals of
a ``basic``-level run.
"""

from __future__ import annotations

from repro.api import Experiment
from repro.config import ExperimentConfig
from repro.experiments.workloads import bench_config
from repro.telemetry import ProfileRow, format_table4, profile_rows

__all__ = ["run", "format_table", "PAPER_VALUES"]

#: The paper's Table IV (minutes).
PAPER_VALUES = {
    "gather": {"single": 19.4, "distributed": 19.4, "speedup": 1.00},
    "train": {"single": 264.9, "distributed": 43.8, "speedup": 6.05},
    "update genomes": {"single": 199.8, "distributed": 16.8, "speedup": 11.87},
    "mutate": {"single": 25.6, "distributed": 17.9, "speedup": 1.43},
    "overall": {"single": 509.6, "distributed": 97.9, "speedup": 5.21},
}


def run(config: ExperimentConfig | None = None,
        backend: str = "process") -> list[ProfileRow]:
    """Profile both versions on the 4x4 workload and build the table rows."""
    if config is None:
        config = bench_config(4, 4)
    dataset = Experiment(config).build_dataset()

    sequential = (Experiment(config).dataset(dataset).backend("sequential")
                  .telemetry("basic").run())
    single_profile = sequential.profile(parallel=False)

    distributed = (Experiment(config).dataset(dataset).backend(backend)
                   .telemetry("basic").run())
    distributed_profile = distributed.profile(parallel=True)

    return profile_rows(single_profile, distributed_profile)


def format_table(rows: list[ProfileRow]) -> str:
    lines = [
        "TABLE IV — PROFILING OF EXECUTION TIMES OF THE MOST CONSUMING ROUTINES",
        format_table4(rows),
        "",
        "paper (minutes, for reference):",
    ]
    for routine, values in PAPER_VALUES.items():
        lines.append(
            f"  {routine:<16} single={values['single']:>6.1f}  "
            f"distributed={values['distributed']:>6.1f}  speedup={values['speedup']:.2f}"
        )
    return "\n".join(lines)
