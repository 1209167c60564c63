"""Ablation: exchange transport (neighbour point-to-point vs LOCAL allgather).

Both modes are synchronous — every iteration blocks for the neighbours'
current centers; this bench times the two transports on the same workload.
(The stale ``async`` variant it used to compare against is gone: its result
depended on arrival order.)
"""


import pytest

from repro.coevolution.sequential import build_training_dataset
from repro.experiments.workloads import bench_config
from repro.parallel import DistributedRunner

from benchmarks.conftest import save_artifact

# Multi-minute full-training run: excluded from the fast CI lane.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def workload():
    config = bench_config(3, 3)
    return config, build_training_dataset(config)


def _run(config, dataset, mode):
    return DistributedRunner(
        config, backend="process", dataset=dataset, exchange_mode=mode
    ).run()


def test_ablation_allgather_exchange(benchmark, workload, results_dir):
    """The paper-style LOCAL allgather moves every center to every slave;
    the neighbor-p2p variant moves only what each cell consumes."""
    config, dataset = workload
    p2p = _run(config, dataset, "neighbors")
    allgather = benchmark.pedantic(
        lambda: _run(config, dataset, "allgather"), rounds=1, iterations=1
    )
    assert allgather.complete
    lines = [
        "ABLATION — EXCHANGE TRANSPORT (3x3, process backend)",
        f"neighbor p2p:     {p2p.wall_time_s:8.2f}s",
        f"LOCAL allgather:  {allgather.wall_time_s:8.2f}s",
    ]
    save_artifact(results_dir, "ablation_exchange.txt", "\n".join(lines))
