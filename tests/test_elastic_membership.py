"""Elastic membership: epochs, the re-balancer, graceful drains, live
joins, and the churn acceptance run (kill one, drain one, join two)."""

import hashlib
import os
import socket as socketlib
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.placement import PlacementPlan, migration_count
from repro.coevolution.checkpoint import CellSnapshot
from repro.mpi.socket_transport import drain_request
from repro.parallel import DistributedRunner, elastic
from repro.parallel.elastic import (DrainNotice, MembershipEvent,
                                    MembershipLog, MembershipTable)
from repro.parallel.grid import Grid
from repro.parallel.recovery import (FaultNotice, FaultState, FrozenCell,
                                     plan_rebalance)
from tests.conftest import eagerly_initialize, make_quick_config

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def module_dataset():
    os.environ.setdefault("REPRO_CACHE_DIR", "/tmp/repro-test-cache")
    from repro.data.dataset import ArrayDataset
    from repro.data.synthetic import load_synthetic_mnist
    from repro.data.transforms import to_tanh_range

    raw = load_synthetic_mnist(400, seed=42)
    return ArrayDataset(to_tanh_range(raw.images), raw.labels)


@pytest.fixture(autouse=True)
def _clean_drain_registry():
    """The drain registry is process-global; never leak requests across
    tests (a leftover request would silently drain a later run's rank)."""
    elastic.reset_drain_registry()
    yield
    elastic.reset_drain_registry()


def _digest(center_genomes, mixture_weights) -> str:
    digest = hashlib.sha256()
    for g, d in center_genomes:
        digest.update(g.parameters.tobytes())
        digest.update(d.parameters.tobytes())
    for weights in mixture_weights:
        digest.update(np.asarray(weights).tobytes())
    return digest.hexdigest()


# -- membership table / log ---------------------------------------------------


class TestMembershipTable:
    """The table's bookkeeping; what its transitions decide is covered in
    ``tests/test_membership_transitions.py``."""

    def test_launch_is_epoch_zero(self):
        table = MembershipTable(Grid(2, 2), "abort", 5)
        assert table.epoch == 0
        assert table.vacant() == set()
        launch = table.log.events[0]
        assert launch.epoch == 0
        assert launch.kind == "launch"
        assert launch.ranks == (1, 2, 3, 4)

    def test_every_transition_bumps_the_epoch(self):
        table = MembershipTable(Grid(2, 2), "abort", 5)
        none = dict(snapshots={}, rejoin=0)
        assert table.depart("death", [2], **none).epoch == 1
        assert table.depart("drain", [4], **none).epoch == 2
        assert table.arrive("join", 2, **none).epoch == 3
        assert table.arrive("respawn", 4, **none).epoch == 4
        assert table.log.epochs() == [0, 1, 2, 3, 4]
        kinds = [event.kind for event in table.log]
        assert kinds == ["launch", "death", "drain", "join", "respawn"]
        assert table.log.events[1].cells == (1,)  # rank 2's orphaned cell

    def test_vacancies_track_departures_and_arrivals(self):
        table = MembershipTable(Grid(1, 3), "abort", 5)
        none = dict(snapshots={}, rejoin=0)
        table.depart("death", [2], **none)
        assert table.vacant() == {2}
        table.depart("drain", [3], **none)
        assert table.vacant() == {2, 3}
        table.arrive("join", 2, **none)
        table.arrive("respawn", 3, **none)
        assert table.vacant() == set()

    def test_unknown_kind_rejected(self):
        table = MembershipTable(Grid(1, 1), "abort", 5)
        with pytest.raises(ValueError, match="death or drain"):
            table.depart("eviction", [1], snapshots={}, rejoin=0)
        with pytest.raises(ValueError, match="respawn or join"):
            table.arrive("death", 1, snapshots={}, rejoin=0)
        with pytest.raises(ValueError, match="unknown membership kind"):
            MembershipEvent(epoch=1, kind="eviction", ranks=(1,))

    def test_log_is_append_only_and_iterable(self):
        log = MembershipLog()
        log.record(MembershipEvent(epoch=0, kind="launch", ranks=(1,)))
        log.record(MembershipEvent(epoch=1, kind="death", ranks=(1,)))
        assert len(log) == 2
        assert [event.epoch for event in log] == [0, 1]
        assert log.events[1].kind == "death"


# -- the deterministic re-balancer --------------------------------------------


class TestPlanRebalance:
    def test_least_loaded_lowest_rank_without_grid(self):
        assert plan_rebalance([1], {3: {7}, 4: {8, 9}}) == {1: 3}
        assert plan_rebalance([1], {4: {8}, 3: {7}}) == {1: 3}  # tie: lowest

    def test_prefers_neighborhood_locality(self):
        # Cell 5's torus neighbors on 4x4 are {1, 4, 6, 9}.  Rank 1 hosts
        # two of them; rank 2 is lighter but hosts none — locality wins.
        grid = Grid(4, 4)
        candidates = {1: {4, 6}, 2: {15}}
        with_grid = plan_rebalance([5], candidates, grid=grid)
        without = plan_rebalance([5], candidates)
        assert with_grid == {5: 1}
        assert without == {5: 2}

    def test_spreads_an_orphan_storm_across_ranks(self):
        # Two equally-eligible standby ranks: the plan's load accounting
        # must include its own earlier assignments, one orphan each.
        plan = plan_rebalance([0, 2], {1: set(), 2: set()})
        assert plan == {0: 1, 2: 2}

    def test_is_a_pure_function_of_its_inputs(self):
        grid = Grid(4, 4)
        candidates = {9: {8, 13}, 4: {0, 1}, 7: {3}}
        first = plan_rebalance([5, 12, 2], candidates, grid=grid)
        second = plan_rebalance([5, 12, 2], candidates, grid=grid)
        assert first == second

    def test_excluded_ranks_never_adopt(self):
        plan = plan_rebalance([1], {3: {7}, 4: {8}}, excluded=[3])
        assert plan == {1: 4}

    def test_no_candidates_maps_to_none(self):
        assert plan_rebalance([1], {}) == {1: None}
        assert plan_rebalance([1], {3: {7}}, excluded=[3]) == {1: None}


# -- epoch fencing ------------------------------------------------------------


def _frozen(cell, *, epoch, adopter=None, rejoin=5):
    snapshot = CellSnapshot(cell, 0, object(), object(), object())
    return FrozenCell(snapshot, adopter_rank=adopter, rejoin_iteration=rejoin,
                      epoch=epoch)


def _notice(*cells):
    return FaultNotice(policy="recover", cells=tuple(cells))


class TestEpochFencing:
    def test_static_run_stays_at_epoch_zero(self):
        state = FaultState()
        assert state.current_epoch() == 0
        assert state.min_epoch_for(3) == 0

    def test_current_epoch_tracks_the_newest_notice(self):
        state = FaultState()
        state.apply(_notice(_frozen(1, epoch=2)))
        state.apply(_notice(_frozen(3, epoch=5)))
        assert state.current_epoch() == 5
        assert state.min_epoch_for(1) == 2
        assert state.min_epoch_for(3) == 5

    def test_newer_epoch_replaces_a_known_cell(self):
        state = FaultState()
        state.apply(_notice(_frozen(1, epoch=1, adopter=None)))
        fresh = state.apply(_notice(_frozen(1, epoch=3, adopter=4)))
        assert [cell.epoch for cell in fresh] == [3]
        assert state.send_route(1) is not None  # the joiner now speaks

    def test_same_epoch_duplicate_is_idempotent(self):
        state = FaultState()
        cell = _frozen(1, epoch=2)
        assert state.apply(_notice(cell))
        assert state.apply(_notice(cell)) == []

    def test_stale_epoch_never_downgrades(self):
        state = FaultState()
        state.apply(_notice(_frozen(1, epoch=3, adopter=4)))
        assert state.apply(_notice(_frozen(1, epoch=1, adopter=None))) == []
        assert state.min_epoch_for(1) == 3


# -- the drain registry -------------------------------------------------------


class TestDrainRegistry:
    def test_request_then_mark(self):
        assert not elastic.drain_requested(3)
        elastic.request_drain(3)
        assert elastic.drain_requested(3)
        assert not elastic.was_drained(3)
        elastic.mark_drained(3)
        assert elastic.was_drained(3)

    def test_reset_clears_both_sets(self):
        elastic.request_drain(1)
        elastic.mark_drained(1)
        elastic.reset_drain_registry()
        assert not elastic.drain_requested(1)
        assert not elastic.was_drained(1)

    def test_drain_notice_exposes_its_cells(self):
        snap = CellSnapshot(cell_index=7, iteration=1,
                            generator_genome=None, discriminator_genome=None,
                            mixture_weights=None)
        notice = DrainNotice(rank=8, snapshots=(snap,))
        assert notice.cells == (7,)


# -- placement under migration ------------------------------------------------


class TestPlacementElastic:
    def test_reassign_pins_exactly_one_rank(self):
        before = PlacementPlan(("node-a", "node-a", "node-b"))
        after = before.reassign(2, "node-c")
        assert after.task_nodes == ("node-a", "node-a", "node-c")
        assert migration_count(before, after) == 1
        assert migration_count(before, before) == 0

    def test_reassign_rejects_unknown_rank(self):
        plan = PlacementPlan(("node-a",))
        with pytest.raises(ValueError, match="outside the plan"):
            plan.reassign(1, "node-b")

    def test_migration_count_rejects_resize(self):
        with pytest.raises(ValueError, match="never resizes"):
            migration_count(PlacementPlan(("a",)), PlacementPlan(("a", "b")))


# -- graceful drain, in-process -----------------------------------------------


class TestThreadedDrain:
    def test_drained_rank_hands_its_cell_off(self, module_dataset):
        config = make_quick_config(2, 2, iterations=2)
        elastic.request_drain(2)  # rank 2 = cell 1 leaves at the first boundary
        result = DistributedRunner(
            config, backend="threaded", dataset=module_dataset,
            fault_policy="recover", snapshot_every=1,
        ).run()
        assert result.drained_ranks == [2]
        assert result.dead_ranks == []
        assert result.ok and result.complete
        assert len(result.center_genomes) == 4
        for cell in range(4):
            assert result.cell_reports[cell], f"cell {cell} untrained"
        kinds = [event.kind for event in result.membership]
        assert kinds[0] == "launch"
        assert kinds.count("drain") == 1
        assert result.membership.epochs() == list(range(len(kinds)))
        assert elastic.was_drained(2)


# -- static membership: bit-identity across every backend ---------------------


class TestStaticMembershipIdentity:
    def test_all_backends_digest_identical(self, module_dataset):
        """With nobody joining or leaving, the elastic layer must be
        invisible: epoch 0 everywhere, no extra frames, and the exact
        genomes of every other backend."""
        from repro.coevolution import SequentialTrainer

        config = make_quick_config(2, 2, iterations=2)
        sequential = SequentialTrainer(config, module_dataset).run()
        reference = _digest(sequential.center_genomes,
                            sequential.mixture_weights)
        # The oracle of lazy sub-population construction: the same run
        # with every cell's sub-population initialised at build time.
        eager = SequentialTrainer(config, module_dataset)
        for cell in eager.cells:
            eagerly_initialize(cell)
        eager = eager.run()
        assert _digest(eager.center_genomes, eager.mixture_weights) == reference
        for backend, options in [
            ("threaded", {}),
            ("process", {}),
            ("socket", {"hosts": "127.0.0.1:5"}),
        ]:
            result = DistributedRunner(
                config, backend=backend, dataset=module_dataset,
                fault_policy="recover", snapshot_every=1, **options,
            ).run()
            assert result.complete and result.ok
            assert _digest(result.center_genomes,
                           result.mixture_weights) == reference, \
                f"{backend} diverged from the sequential baseline"
            kinds = [event.kind for event in result.membership]
            assert kinds == ["launch"], f"{backend} saw phantom churn"
            assert result.membership.epochs() == [0]


# -- the churn acceptance run -------------------------------------------------


def _free_port() -> int:
    with socketlib.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestChurnAcceptance:
    """Every kind of churn at once over TCP: a worker killed, a rank
    drained over the wire, fresh workers joined mid-run.  The run must
    finish with every cell trained and the membership log recording each
    transition."""

    def test_4x4_kill_drain_join(self, module_dataset):
        # The master and block {0..13} (rank 1) share the big worker;
        # cells 14 and 15 each get a worker of their own (ranks 2 and 3),
        # so the kill and the drain vacate slots a `repro worker --join`
        # can fill, and rank 1 survives to adopt what they leave.
        self._churn(module_dataset, grid=(4, 4),
                    hosts="127.0.0.1:15,127.0.0.1:1,127.0.0.1:1",
                    iterations=10, kill_cell=14, fault_kill=True,
                    dead=[2], drains=[3], joiner_slots=1, joined=[2, 3])

    def test_3x3_row_workers_fault_drain_join(self, module_dataset):
        """One grid row per worker, so every round mixes in-block and
        remote neighbours: the middle row's worker is killed and its block
        adopted, the bottom row's rank is drained, and one-rank workers
        join the vacated slots as standbys.  The row beside the master
        survives to train whatever is left."""
        self._churn(module_dataset, grid=(3, 3),
                    hosts="127.0.0.1:4,127.0.0.1:3,127.0.0.1:3",
                    iterations=40, kill_cell=3, fault_kill=True,
                    dead=[2], drains=[3], joiner_slots=1, joined=[2, 3])

    def _churn(self, module_dataset, *, grid, hosts, iterations, kill_cell,
               fault_kill, dead, drains, joiner_slots, joined):
        port = _free_port()
        token = "churn-acceptance"
        connect = f"127.0.0.1:{port}"
        cells = grid[0] * grid[1]
        # ``iterations``: long enough for the whole sequence — kill, drain
        # at an iteration boundary, `repro worker --join` processes
        # started, refused, restarted and admitted — to happen while the
        # run is live: a three-iteration run is over in about a second,
        # before the last joiner's slot has vacated.
        config = make_quick_config(*grid, iterations=iterations,
                                   dataset_size=400, batch_size=10, batches=1)
        runner = DistributedRunner(
            config,
            backend="socket",
            hosts=hosts,
            bind=connect,
            token=token,
            dataset=module_dataset,
            fault_at={kill_cell: 1},  # its rank dies mid-run
            fault_kill=fault_kill,
            fault_policy="recover",
            snapshot_every=1,
            heartbeat_interval_s=0.1,
            miss_limit=8,
            timeout_s=480,
        )
        box = {}

        def _run():
            box["result"] = runner.run()

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        joiners: list[subprocess.Popen] = []
        try:
            # Drain over the wire, retrying until the coordinator is up
            # and hosting the rank.
            deadline = time.monotonic() + 120
            for rank in drains:
                while time.monotonic() < deadline:
                    if drain_request(connect, rank=rank, token=token,
                                     timeout=5.0) == 0:
                        break
                    time.sleep(0.5)
                else:
                    pytest.fail("drain request never reached the coordinator")

            # Fresh workers ask to join; they are refused until a slot
            # vacates (the kill, the drain), so keep respawning rejected
            # ones while the run is live.
            env = {**os.environ, "PYTHONPATH": SRC}
            cmd = [sys.executable, "-m", "repro", "worker",
                   "--connect", connect, "--token", token, "--join",
                   "--slots", str(joiner_slots), "--quiet"]
            joiners = [subprocess.Popen(cmd, env=env)
                       for _ in range(len(joined) // joiner_slots)]
            while thread.is_alive():
                thread.join(timeout=0.5)
                for i, proc in enumerate(joiners):
                    if not thread.is_alive():
                        break
                    if proc.poll() is not None and proc.returncode != 0:
                        joiners[i] = subprocess.Popen(cmd, env=env)
            thread.join(timeout=480)
            assert not thread.is_alive(), "churn run never finished"
        finally:
            for proc in joiners:
                if proc.poll() is None:
                    proc.terminate()
            for proc in joiners:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()

        result = box["result"]
        assert result.dead_ranks == dead
        assert result.drained_ranks == drains
        assert sorted(result.joined_ranks) == joined
        assert result.ok, f"degraded {result.degraded_ranks}"
        assert len(result.center_genomes) == cells
        for cell in range(cells):
            assert result.cell_reports[cell], f"cell {cell} untrained"
        log = result.membership
        kinds = [event.kind for event in log]
        assert kinds[0] == "launch"
        assert kinds.count("death") == len(dead)
        assert kinds.count("drain") == len(drains)
        assert kinds.count("join") == len(joined)
        # Epochs are gapless and monotonic: every transition was recorded.
        assert log.epochs() == list(range(len(kinds)))
