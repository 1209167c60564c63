"""Bench: regenerate Table III (execution times + speedup per grid size).

The paper's headline result.  For every grid size the identical workload
runs through the single-core SequentialTrainer and the process-backend
DistributedRunner (one rank per core); the distributed run is the
registered benchmark measurement.

Shape assertions (the reproduction criteria):
  * distributed beats single-core on every grid;
  * speedup grows monotonically with the cell count (4 -> 9 -> 16).

Scale the workload up with REPRO_BENCH_ITERATIONS / REPRO_BENCH_DATASET to
approach the paper's asymptotic speedups.
"""

import pytest

from repro.coevolution import SequentialTrainer
from repro.coevolution.sequential import build_training_dataset
from repro.experiments import table3
from repro.experiments.workloads import PAPER_GRIDS, bench_config
from repro.parallel import DistributedRunner

from benchmarks.conftest import save_artifact, skip_ratios_below_cores

# Multi-minute full-training run: excluded from the fast CI lane.
pytestmark = pytest.mark.slow


@pytest.mark.parametrize("rows,cols", PAPER_GRIDS, ids=["2x2", "3x3", "4x4"])
def test_table3_grid(benchmark, artifact_store, rows, cols):
    config = bench_config(rows, cols)
    dataset = build_training_dataset(config)

    sequential = SequentialTrainer(config, dataset).run()

    def distributed_run():
        return DistributedRunner(config, backend="process", dataset=dataset).run()

    result = benchmark.pedantic(distributed_run, rounds=1, iterations=1)
    assert result.complete

    row = table3.Table3Row(
        grid=(rows, cols),
        single_core_s=sequential.wall_time_s,
        distributed_mean_s=result.training.wall_time_s,
        distributed_std_s=0.0,
        paper_speedup=table3.PAPER_VALUES[(rows, cols)]["speedup"],
        distributed_samples=[result.training.wall_time_s],
    )
    artifact_store.setdefault("table3_rows", []).append(row)

    # Core shape: the distributed version wins.
    skip_ratios_below_cores(rows * cols + 1)
    assert row.speedup > 1.0, (
        f"distributed ({row.distributed_mean_s:.1f}s) did not beat "
        f"single-core ({row.single_core_s:.1f}s) on {rows}x{cols}"
    )


def test_table3_summary(benchmark, artifact_store, results_dir):
    rows = sorted(artifact_store.get("table3_rows", []),
                  key=lambda r: r.grid[0] * r.grid[1])
    assert len(rows) == 3, "run the per-grid benches first (natural file order)"

    def assemble():
        return table3.format_table(rows)

    text = benchmark.pedantic(assemble, rounds=1, iterations=1)
    save_artifact(results_dir, "table3.txt", text)

    # The paper's scaling shape: speedup grows with the grid size.
    skip_ratios_below_cores(max(r.grid[0] * r.grid[1] for r in rows) + 1)
    speedups = [row.speedup for row in rows]
    assert speedups[0] < speedups[1] < speedups[2], speedups
