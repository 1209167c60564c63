"""Ablation: execution backend (sequential vs threaded vs process).

The motivation for the paper's *distributed-memory* design.  Python threads
get only partial parallelism: NumPy releases the GIL inside BLAS kernels,
but all interpreter-level work (autograd bookkeeping, the coevolutionary
logic, message handling) serializes on one GIL.  True processes parallelize
everything.  This bench quantifies both on the 3x3 workload — measured here:
threads ~1.5x over sequential, processes ~3.5x.
"""

import pytest

from repro.coevolution import SequentialTrainer
from repro.coevolution.sequential import build_training_dataset
from repro.experiments.workloads import bench_config
from repro.parallel import DistributedRunner

from benchmarks.conftest import save_artifact, skip_ratios_below_cores

# Multi-minute full-training run: excluded from the fast CI lane.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def workload():
    config = bench_config(3, 3)
    return config, build_training_dataset(config)


def test_ablation_backend(benchmark, workload, results_dir):
    config, dataset = workload
    sequential = SequentialTrainer(config, dataset).run()
    threaded = DistributedRunner(config, backend="threaded", dataset=dataset).run()

    process = benchmark.pedantic(
        lambda: DistributedRunner(config, backend="process", dataset=dataset).run(),
        rounds=1, iterations=1,
    )

    seq_s = sequential.wall_time_s
    thr_s = threaded.training.wall_time_s
    proc_s = process.training.wall_time_s
    lines = [
        "ABLATION — EXECUTION BACKEND (3x3 grid, identical protocol)",
        f"sequential (single core):     {seq_s:8.2f}s",
        f"threaded ranks (one GIL):     {thr_s:8.2f}s",
        f"process ranks (distributed):  {proc_s:8.2f}s",
        f"process speedup vs sequential: {seq_s / proc_s:7.2f}",
        f"threaded speedup vs sequential:{seq_s / thr_s:7.2f}",
        "",
        "threads parallelize only the GIL-releasing BLAS kernels; processes",
        "parallelize the Python-level training logic too.",
    ]
    save_artifact(results_dir, "ablation_backend.txt", "\n".join(lines))

    # Processes must clearly win over both, and threads cannot approach
    # process scaling (interpreter work serializes on the GIL).
    skip_ratios_below_cores(config.coevolution.cells + 1)
    assert proc_s < seq_s
    assert proc_s < thr_s
    assert (seq_s / proc_s) > 1.3 * (seq_s / thr_s)
