"""Regression: 1x1 grids must complete on every backend.

On a 1x1 torus all four Moore neighbors wrap to the center cell, so the
synchronous exchange used to wait for four messages that nobody would ever
send (``incoming_neighbors`` rightly excludes self) — the distributed run
deadlocked on its first exchange.  Self-edges are now satisfied locally
from the cell's own payload, which is bit-identical to what the fallback
ordering would substitute anyway.
"""

import numpy as np
import pytest

from repro.parallel import DistributedRunner
from repro.parallel.grid import Grid
from tests.conftest import make_quick_config


@pytest.fixture(scope="module")
def module_dataset():
    import os

    os.environ.setdefault("REPRO_CACHE_DIR", "/tmp/repro-test-cache")
    from repro.data.dataset import ArrayDataset
    from repro.data.synthetic import load_synthetic_mnist
    from repro.data.transforms import to_tanh_range

    raw = load_synthetic_mnist(400, seed=42)
    return ArrayDataset(to_tanh_range(raw.images), raw.labels)


def test_1x1_torus_is_all_self_edges():
    grid = Grid(1, 1)
    assert grid.neighbor_cells(0) == [0, 0, 0, 0]
    assert grid.incoming_neighbors(0) == []


def test_1x1_process_backend_completes_and_matches_sequential(module_dataset):
    from repro.coevolution import SequentialTrainer

    config = make_quick_config(1, 1, iterations=2)
    sequential = SequentialTrainer(config, module_dataset).run()
    distributed = DistributedRunner(
        config, backend="process", dataset=module_dataset
    ).run()
    sg, sd = sequential.center_genomes[0]
    dg, dd = distributed.center_genomes[0]
    np.testing.assert_array_equal(sg.parameters, dg.parameters)
    np.testing.assert_array_equal(sd.parameters, dd.parameters)


def test_1x1_socket_backend_completes(module_dataset):
    from repro.api import Experiment

    config = make_quick_config(1, 1, iterations=1)
    process = DistributedRunner(
        config, backend="process", dataset=module_dataset
    ).run()
    socketed = (Experiment(config)
                .dataset("synthetic-mnist")
                .backend("socket", hosts="127.0.0.1:2")  # master + one slave
                .run())
    assert socketed.complete
    pg, pd = process.center_genomes[0]
    sg, sd = socketed.center_genomes[0]
    np.testing.assert_array_equal(pg.parameters, sg.parameters)
    np.testing.assert_array_equal(pd.parameters, sd.parameters)


def test_1xn_row_grid_completes(module_dataset):
    """Any dimension of 1 produces self-edges (N/S wrap to the cell
    itself); the synchronous exchange must satisfy them locally too."""
    config = make_quick_config(1, 2, iterations=1)
    distributed = DistributedRunner(
        config, backend="threaded", dataset=module_dataset
    ).run()
    assert len(distributed.center_genomes) == 2
