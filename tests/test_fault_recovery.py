"""Fault-recovery tests: the chaos matrix (kill timing x transport x
policy), the heartbeat finish/death race, no-fault bit-identity of
recovery-enabled runs, and the CLI's fault reporting contract."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.parallel import DistributedRunner
from repro.parallel.heartbeat import HeartbeatMonitor
from repro.parallel.states import SlaveState
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


def _genome_digest(result) -> str:
    """Hash of every cell's final genomes + mixture weights."""
    digest = hashlib.sha256()
    for g, d in result.training.center_genomes:
        digest.update(g.parameters.tobytes())
        digest.update(d.parameters.tobytes())
    for weights in result.training.mixture_weights:
        digest.update(np.asarray(weights).tobytes())
    return digest.hexdigest()


# -- heartbeat finish/death race ----------------------------------------------


def silent_until_dead(monitor, rank):
    """Tick ``monitor`` (interval 1.0) until the silent ``rank`` is dead;
    returns the time of the fatal tick."""
    now = 0.0
    while rank not in monitor.dead_ranks():
        monitor.tick(now)
        now += 1.0
    return now - 1.0


class TestHeartbeatFinishRace:
    """A slave's FINISHED result must beat a concurrent death declaration:
    a rank that goes quiet during a long final batch can exhaust the miss
    budget while its result is already in flight."""

    def test_delayed_finish_overturns_death_declaration(self):
        monitor = HeartbeatMonitor(interval_s=1.0, miss_limit=2)
        monitor.watch(1, 0.0)
        # The slave never answers: the monitor declares it dead.
        silent_until_dead(monitor, 1)
        # ... then its result arrives (the delayed finish).
        assert monitor.mark_finished(1) is True  # death overturned
        assert monitor.dead_ranks() == []
        assert monitor.liveness[1].finished
        assert monitor.all_accounted()

    def test_mark_finished_without_prior_death_is_not_a_resurrection(self):
        monitor = HeartbeatMonitor(interval_s=1.0, miss_limit=100)
        monitor.watch(1, 0.0)
        assert monitor.mark_finished(1) is False

    def test_revive_resets_liveness_for_a_respawned_rank(self):
        monitor = HeartbeatMonitor(interval_s=1.0, miss_limit=2)
        monitor.watch(1, 0.0)
        died_at = silent_until_dead(monitor, 1)
        monitor.watch(1, died_at + 1.0)
        entry = monitor.liveness[1]
        assert not entry.dead
        assert entry.missed_rounds == 0
        assert entry.state == SlaveState.PROCESSING.value

    def test_rank_revived_after_everyone_finished_is_watched_again(self):
        """A rank respawned or joined *after* the survivors finished (the
        respawn wait alone can outlast them) must still be pinged: if it
        dies a second time the master has to hear about it."""
        monitor = HeartbeatMonitor(interval_s=1.0, miss_limit=2)
        monitor.watch(1, 0.0)
        monitor.watch(2, 0.0)
        monitor.mark_finished(1)
        monitor.mark_finished(2)
        assert monitor.all_accounted()
        assert monitor.tick(10.0) == []  # idle: nobody to ping
        monitor.watch(2, 20.0)
        # Rank 2 stays silent: declared dead within miss_limit rounds.
        for now in (20.0, 21.0, 22.0):
            monitor.tick(now)
        assert monitor.dead_ranks() == [2]


# -- initial-state recovery without a dataset ---------------------------------


class TestInitialCellSnapshot:
    def test_parity_with_real_cell(self, module_dataset):
        """The dataset-free iteration-0 snapshot must replay Cell.__init__
        exactly — same loss draw, same init RNG streams, same storage-dtype
        quantization (the guard the docstring promises)."""
        from repro.coevolution.cell import Cell
        from repro.coevolution.checkpoint import initial_cell_snapshot

        config = make_quick_config(2, 2, iterations=2)
        for cell_index in range(2):
            cell = Cell(config, cell_index, module_dataset, neighborhood_size=5)
            g_ref, d_ref = cell.center_genomes()
            snap = initial_cell_snapshot(config, cell_index, 5)
            assert snap.iteration == 0
            np.testing.assert_array_equal(snap.generator_genome.parameters,
                                          g_ref.parameters)
            np.testing.assert_array_equal(snap.discriminator_genome.parameters,
                                          d_ref.parameters)
            assert snap.generator_genome.loss_name == g_ref.loss_name
            np.testing.assert_array_equal(snap.mixture_weights,
                                          cell.mixture.weights)


# -- the chaos matrix ---------------------------------------------------------


class TestChaosMatrixProcess:
    """Kill a forked rank with os._exit at two timings (before its first
    iteration completes / mid-run, after checkpoints exist) under every
    fault policy."""

    @pytest.mark.parametrize("policy", ["abort", "degrade", "recover"])
    @pytest.mark.parametrize("kill_at", [0, 1],
                             ids=["before-first-checkpoint", "mid-run"])
    def test_process_kill(self, module_dataset, policy, kill_at):
        config = make_quick_config(2, 2, iterations=3)
        runner = DistributedRunner(
            config,
            backend="process",
            dataset=module_dataset,
            fault_at={1: kill_at},   # cell 1 -> rank 2
            fault_kill=True,
            fault_policy=policy,
            heartbeat_interval_s=0.05,
            miss_limit=4,
            timeout_s=240,
        )
        result = runner.run()
        assert result.dead_ranks == [2]
        assert result.fault_policy == policy
        assert len(result.training.center_genomes) == 4
        # The killed rank, and only it, counts as lost.
        assert [s.ranks_lost for s in result.transport_stats] == [0, 0, 1, 0, 0]
        if policy == "abort":
            assert not result.ok and not result.complete
        elif policy == "degrade":
            assert result.ok
            assert result.degraded_ranks == [2]
            assert result.recovered_ranks == []
        else:
            assert result.ok, f"recover left degraded {result.degraded_ranks}"
            assert result.recovered_ranks == [2]
            assert result.degraded_ranks == []
            # The adopted cell really trained: it has post-death reports.
            assert result.training.cell_reports[1], "recovered cell has no reports"


class TestChaosMatrixSocket:
    """The TCP variant: a worker process hosting exactly the victim rank
    dies with os._exit — a real socket-visible death."""

    HOSTS = "127.0.0.1:4,127.0.0.1:1"   # rank 4 (cell 3) alone on worker B

    @staticmethod
    def _assert_one_rank_lost(result):
        """As on the process backend: the killed rank counts as lost, and
        none of the co-hosted survivors does."""
        assert sum(s.ranks_lost for s in result.transport_stats) == 1
        assert result.transport_stats[4].ranks_lost == 1

    def _run(self, dataset, *, kill_at, policy, **options):
        config = make_quick_config(2, 2, iterations=3)
        runner = DistributedRunner(
            config,
            backend="socket",
            hosts=self.HOSTS,
            dataset=dataset,
            fault_at={3: kill_at},
            fault_kill=True,
            fault_policy=policy,
            heartbeat_interval_s=0.05,
            miss_limit=6,
            timeout_s=240,
            **options,
        )
        return runner.run()

    def test_socket_abort_mid_run(self, module_dataset):
        result = self._run(module_dataset, kill_at=1, policy="abort")
        assert result.dead_ranks == [4]
        assert not result.ok and not result.complete
        self._assert_one_rank_lost(result)

    def test_socket_degrade_before_first_checkpoint(self, module_dataset):
        result = self._run(module_dataset, kill_at=0, policy="degrade")
        assert result.dead_ranks == [4]
        assert result.ok
        assert result.degraded_ranks == [4]
        # The frozen cell reports its initial-state genomes.
        assert len(result.training.center_genomes) == 4
        self._assert_one_rank_lost(result)

    def test_socket_recover_by_adoption(self, module_dataset):
        """No restart budget: a surviving worker's slave adopts the cell."""
        result = self._run(module_dataset, kill_at=1, policy="recover")
        assert result.dead_ranks == [4]
        assert result.ok, f"degraded {result.degraded_ranks}"
        assert result.recovered_ranks == [4]
        assert result.training.cell_reports[3], "adopted cell has no reports"
        self._assert_one_rank_lost(result)

    def test_socket_recover_by_respawn(self, module_dataset):
        """With a restart budget the coordinator respawns a replacement
        worker and the cell resumes there from its checkpoint."""
        result = self._run(module_dataset, kill_at=1, policy="recover",
                           max_restarts=1)
        assert result.dead_ranks == [4]
        assert result.ok, f"degraded {result.degraded_ranks}"
        assert result.recovered_ranks == [4]
        assert result.training.cell_reports[3], "respawned cell has no reports"
        # The reborn rank counts one reconnect; the rendezvous ranks none.
        assert [s.reconnects for s in result.transport_stats] == [0, 0, 0, 0, 1]


class TestTwoWorkerSplit:
    """The benchmark's 3x3 split (ranks 0-4 | 5-9): every exchange is a
    group that mixes co-hosted and remote destinations, and an adopter may
    sit on the sender's own worker.  A co-hosted rank cannot be killed with
    ``os._exit`` (the whole worker would go), so the victim crashes."""

    HOSTS = "127.0.0.1:5,127.0.0.1:5"

    @pytest.mark.parametrize("policy", ["degrade", "recover"])
    def test_crash_on_a_shared_worker(self, module_dataset, policy):
        config = make_quick_config(3, 3, iterations=4, batch_size=10, batches=1)
        result = DistributedRunner(
            config,
            backend="socket",
            hosts=self.HOSTS,
            dataset=module_dataset,
            fault_at={6: 1},          # cell 6 -> rank 7, mid-run
            fault_policy=policy,
            snapshot_every=1,
            heartbeat_interval_s=0.05,
            miss_limit=6,
            timeout_s=240,
        ).run()
        assert result.dead_ranks == [7]
        assert result.ok
        assert len(result.training.center_genomes) == 9
        if policy == "degrade":
            assert result.degraded_ranks == [7]
        else:
            assert result.recovered_ranks == [7]
            assert result.training.cell_reports[6], "adopted cell has no reports"

    def test_send_rerouted_to_an_adopter_on_the_senders_worker(self):
        """Cell 6 (rank 7, worker B) is adopted by rank 2 on worker A:
        cell 0's group then has every destination on its own worker — the
        adopter is one more entry of the list, takes the payload by
        reference like the other co-hosted ranks, and no frame is written."""
        import socket

        from repro.mpi import wire
        from repro.mpi.comm import Comm
        from repro.mpi.constants import WORLD_CONTEXT
        from repro.mpi.endpoint import Endpoint
        from repro.mpi.socket_transport import _WorkerHub
        from repro.parallel.comm_manager import MpiCommManager
        from repro.parallel.grid import Grid
        from repro.parallel.messages import ExchangePayload
        from repro.parallel.recovery import FaultNotice, FaultState, FrozenCell

        blocks = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        ours, coordinator = socket.socketpair()
        coordinator.settimeout(30)
        hub = _WorkerHub(ours, blocks[0], blocks)
        endpoints = {rank: Endpoint(rank, hub.inboxes[rank], hub.links)
                     for rank in blocks[0]}
        try:
            managers = {}
            for rank in (1, 2, 3, 4):
                managers[rank] = MpiCommManager(
                    Comm(endpoints[rank], WORLD_CONTEXT, range(10)))
                managers[rank].rejoin_contexts(is_active_slave=True)
            grid = Grid(3, 3)
            assert sorted(grid.incoming_neighbors(0)) == [1, 2, 3, 6]
            state = FaultState()
            state.apply(FaultNotice(policy="recover", dead_ranks=(7,), cells=(
                FrozenCell(cell_index=6, iteration=1, generator_genome=None,
                           discriminator_genome=None, mixture_weights=None,
                           adopter_rank=2, rejoin_iteration=2, epoch=1),)))
            payload = ExchangePayload(0, 3, np.arange(8.0), np.arange(4.0), epoch=1)
            sender = managers[1]
            sender._send_to_consumers(grid, 0, payload, state)

            tag = sender._exchange_tag
            local = {rank: managers[rank].local for rank in (2, 3, 4)}
            # Rank 2 hosts cell 1 and speaks for adopted cell 6.
            assert local[2].recv(source=0, tag=tag(3, 1), timeout=30) is payload
            assert local[2].recv(source=0, tag=tag(3, 6), timeout=30) is payload
            assert local[3].recv(source=0, tag=tag(3, 2), timeout=30) is payload
            assert local[4].recv(source=0, tag=tag(3, 3), timeout=30) is payload
            # One host written (the sender's own worker), nothing framed:
            # the next frame on the wire is the marker sent after it.
            assert endpoints[1].stats.messages_sent == 1
            sender.local.send("marker", dest=8, tag=0)
            frame = wire.read_frame(coordinator)
            assert frame.payload()[2] == "marker"
            # Below the rejoin iteration the adopted cell is skipped.
            early = ExchangePayload(0, 1, np.arange(8.0), np.arange(4.0), epoch=1)
            sender._send_to_consumers(grid, 0, early, state)
            assert local[2].recv(source=0, tag=tag(1, 1), timeout=30) is early
            assert not local[2].iprobe(source=0, tag=tag(1, 6))
        finally:
            for endpoint in endpoints.values():
                endpoint.close()
            coordinator.close()
            ours.close()


class TestSocketRecoverAcceptance:
    """The acceptance-scale run: a 4x4 grid over TCP with one rank killed
    mid-run completes under recover with trained genomes for every cell."""

    def test_4x4_socket_recover(self, module_dataset):
        config = make_quick_config(4, 4, iterations=2,
                                   dataset_size=400, batch_size=10, batches=1)
        runner = DistributedRunner(
            config,
            backend="socket",
            hosts="127.0.0.1:16,127.0.0.1:1",   # rank 16 (cell 15) alone
            dataset=module_dataset,
            fault_at={15: 1},
            fault_kill=True,
            fault_policy="recover",
            heartbeat_interval_s=0.1,
            miss_limit=8,
            timeout_s=480,
        )
        result = runner.run()
        assert result.dead_ranks == [16]
        assert result.ok, f"degraded {result.degraded_ranks}"
        assert result.recovered_ranks == [16]
        assert len(result.training.center_genomes) == 16
        for cell in range(16):
            g, d = result.training.center_genomes[cell]
            assert g.parameters.size and d.parameters.size
            assert result.training.cell_reports[cell], f"cell {cell} untrained"


# -- no-fault bit-identity ----------------------------------------------------


class TestRecoveryBitIdentity:
    """Enabling the recovery machinery must not change training: a
    fault-free run under recover (checkpoints streaming every iteration)
    produces bit-identical genomes to the abort-policy baseline."""

    def test_threaded_recover_matches_abort_baseline(self, module_dataset):
        config = make_quick_config(2, 2, iterations=2)
        baseline = DistributedRunner(config, backend="threaded",
                                     dataset=module_dataset).run()
        recovery = DistributedRunner(config, backend="threaded",
                                     dataset=module_dataset,
                                     fault_policy="recover",
                                     snapshot_every=1).run()
        assert recovery.complete and recovery.ok
        assert _genome_digest(recovery) == _genome_digest(baseline)

    def test_socket_recover_matches_abort_baseline(self, module_dataset):
        config = make_quick_config(2, 2, iterations=2)
        baseline = DistributedRunner(config, backend="threaded",
                                     dataset=module_dataset).run()
        recovery = DistributedRunner(config, backend="socket",
                                     hosts="127.0.0.1:5",
                                     dataset=module_dataset,
                                     fault_policy="recover",
                                     snapshot_every=1).run()
        assert recovery.complete and recovery.ok
        assert _genome_digest(recovery) == _genome_digest(baseline)


# -- facade + CLI contract ----------------------------------------------------


class TestExperimentFaultPolicy:
    def test_invalid_policy_rejected(self):
        from repro.api import Experiment

        with pytest.raises(ValueError, match="fault policy"):
            Experiment().fault_policy("retry")

    def test_negative_restarts_rejected(self):
        from repro.api import Experiment

        with pytest.raises(ValueError, match="max_restarts"):
            Experiment().fault_policy("recover", max_restarts=-1)

    def test_sequential_backend_rejects_fault_policy(self):
        from repro.api import Experiment

        experiment = Experiment(make_quick_config(1, 1, iterations=1))
        experiment.backend("sequential").fault_policy("degrade")
        with pytest.raises(ValueError, match="sequential"):
            experiment.run()


class _FakeExperiment:
    """Stands in for _build_experiment's product inside _cmd_run."""

    def __init__(self, result):
        self._result = result
        self.fault_args = None

    def profile(self, enabled):
        return self

    def fault_policy(self, policy, *, max_restarts=0, snapshot_every=None):
        self.fault_args = (policy, max_restarts, snapshot_every)
        return self

    def telemetry(self, level="basic", trace_path=None):
        return self

    def callbacks(self, *callbacks):
        return self

    @property
    def config(self):
        return SimpleNamespace(
            coevolution=SimpleNamespace(cells=1, iterations=2))

    def run(self):
        return self._result


def _fake_run_result(*, fault_policy, dead_ranks, degraded=(), recovered=()):
    from repro.api.result import RunResult
    from repro.parallel.runner import DistributedResult

    training = SimpleNamespace(cell_reports=[[]], wall_time_s=0.5,
                               best_cell_index=lambda: 0)
    distributed = DistributedResult(
        training=training,
        outcome_placement={},
        dead_ranks=list(dead_ranks),
        fault_policy=fault_policy,
        degraded_ranks=list(degraded),
        recovered_ranks=list(recovered),
    )
    return RunResult(backend="threaded", training=training,
                     distributed=distributed, iterations_run=2)


class TestCliFaultContract:
    def test_run_parser_accepts_fault_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--fault-policy", "recover",
             "--max-restarts", "2", "--snapshot-every", "3"])
        assert args.fault_policy == "recover"
        assert args.max_restarts == 2
        assert args.snapshot_every == 3

    def test_abort_death_exits_nonzero_and_reports(self, monkeypatch, capsys):
        import repro.cli as cli

        fake = _FakeExperiment(_fake_run_result(
            fault_policy="abort", dead_ranks=[2]))
        monkeypatch.setattr(cli, "_build_experiment", lambda args: fake)
        code = cli.main(["run", "--telemetry", "off"])
        captured = capsys.readouterr()
        assert code == 1
        assert "fault report (abort): died [2]" in captured.err
        assert "WARNING" in captured.err
        assert fake.fault_args == ("abort", 0, None)

    def test_degrade_death_exits_zero_with_breakdown(self, monkeypatch, capsys):
        import repro.cli as cli

        fake = _FakeExperiment(_fake_run_result(
            fault_policy="degrade", dead_ranks=[2], degraded=[2]))
        monkeypatch.setattr(cli, "_build_experiment", lambda args: fake)
        code = cli.main(["run", "--telemetry", "off",
                         "--fault-policy", "degrade"])
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded [2]" in captured.err
        assert fake.fault_args == ("degrade", 0, None)

    def test_recover_success_exits_zero(self, monkeypatch, capsys):
        import repro.cli as cli

        fake = _FakeExperiment(_fake_run_result(
            fault_policy="recover", dead_ranks=[2], recovered=[2]))
        monkeypatch.setattr(cli, "_build_experiment", lambda args: fake)
        code = cli.main(["run", "--telemetry", "off",
                         "--fault-policy", "recover", "--max-restarts", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "recovered [2]" in captured.err
        assert fake.fault_args == ("recover", 1, None)
