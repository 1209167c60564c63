"""Ablation: grid scaling beyond the paper (5x5 = 26 ranks).

The paper stops at 4x4 (17 ranks); this bench extends the sweep one step to
check the scalability claim holds as the rank count approaches (and with
the master exceeds) the physical core count of this machine.
"""

import pytest

from repro.coevolution import SequentialTrainer
from repro.coevolution.sequential import build_training_dataset
from repro.experiments.workloads import bench_config
from repro.parallel import DistributedRunner

from benchmarks.conftest import save_artifact, skip_ratios_below_cores

# Multi-minute full-training run: excluded from the fast CI lane.
pytestmark = pytest.mark.slow


def test_ablation_5x5_scaling(benchmark, results_dir):
    config = bench_config(5, 5)
    # Before launching, not after: 26 process ranks on a couple of cores do
    # not finish inside the 900 s MPI timeout, and the only thing this
    # bench asserts is the speedup.
    skip_ratios_below_cores(config.coevolution.cells + 1)
    dataset = build_training_dataset(config)
    sequential = SequentialTrainer(config, dataset).run()

    result = benchmark.pedantic(
        lambda: DistributedRunner(config, backend="process", dataset=dataset,
                                  timeout_s=900).run(),
        rounds=1, iterations=1,
    )
    assert result.complete

    speedup = sequential.wall_time_s / result.training.wall_time_s
    lines = [
        "ABLATION — GRID SCALING BEYOND THE PAPER (5x5, 26 ranks)",
        f"single core:  {sequential.wall_time_s:8.2f}s",
        f"distributed:  {result.training.wall_time_s:8.2f}s",
        f"speedup:      {speedup:8.2f}  (25 cells)",
    ]
    save_artifact(results_dir, "ablation_scaling.txt", "\n".join(lines))
    assert speedup > 1.5
