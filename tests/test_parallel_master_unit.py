"""Unit tests for MasterProcess against a scripted fake comm manager."""

import threading
import time

import numpy as np
import pytest

from repro.coevolution.checkpoint import CellSnapshot
from repro.coevolution.genome import Genome
from repro.parallel.comm_manager import CommManager
from repro.parallel.elastic import DrainNotice
from repro.parallel.master import MasterProcess
from repro.parallel.messages import NodeInfo, SlaveResult, StatusReply
from tests.conftest import make_quick_config


class ScriptedMasterComm(CommManager):
    """Plays all slaves for a master under test.

    ``drain_ranks`` answer their run task with a :class:`DrainNotice`
    instead of a result; once a drain is acknowledged, each of
    ``join_ranks`` introduces a fresh process for its slot.  A rank named
    adopter in a fault notice delivers the adopted cell's result.
    """

    def __init__(self, config, *, silent_ranks=frozenset(), result_delay_s=0.0,
                 drain_ranks=(), join_ranks=()):
        self.config = config
        self.cells = config.coevolution.cells
        self.silent_ranks = set(silent_ranks)
        self.result_delay_s = result_delay_s
        self.drain_ranks = set(drain_ranks)
        self.join_ranks = list(join_ranks)
        self.sent_tasks = {}
        self.aborts_sent = []
        self.notices_sent = []
        self.drain_acks = []
        self._drain_queue: list[DrainNotice] = []
        self._join_queue: list[NodeInfo] = []
        self.contexts_built = False
        self._result_queue: list[SlaveResult] = []
        self._status_outbox: list[StatusReply] = []
        self._lock = threading.Lock()
        self._started_at = time.monotonic()

    @property
    def rank(self):
        return 0

    @property
    def size(self):
        return self.cells + 1

    # setup ------------------------------------------------------------------
    def collect_node_info(self):
        return [NodeInfo(rank, f"host{rank}", 100 + rank)
                for rank in range(1, self.size)]

    def send_run_task(self, slave_rank, task):
        self.sent_tasks[slave_rank] = task
        if slave_rank in self.silent_ranks or task.standby:
            return  # no cell to report on
        genome = Genome(np.zeros(4), 1e-3, "bce")
        if slave_rank in self.drain_ranks and task.resume is None:
            self._drain_queue.append(DrainNotice(slave_rank, (CellSnapshot(
                cell_index=task.cell_index, iteration=0,
                generator_genome=genome, discriminator_genome=genome.copy(),
                mixture_weights=np.full(5, 0.2)),)))
            return
        self._queue_result(slave_rank, task.cell_index)

    def _queue_result(self, rank, cell, recovered=False):
        genome = Genome(np.zeros(4), 1e-3, "bce")
        result = SlaveResult(
            rank=rank,
            cell_index=cell,
            generator_genome=genome,
            discriminator_genome=genome.copy(),
            mixture_weights=np.full(5, 0.2),
            recovered=recovered,
        )
        with self._lock:
            self._result_queue.append(result)

    # elastic membership ------------------------------------------------------
    def poll_drain_notice(self):
        return self._drain_queue.pop(0) if self._drain_queue else None

    def send_drain_ack(self, slave_rank):
        self.drain_acks.append(slave_rank)
        self._join_queue += [NodeInfo(rank, f"late{rank}", 900 + rank)
                             for rank in self.join_ranks]
        self.join_ranks = []

    def try_collect_node_info(self, timeout):
        return self._join_queue.pop(0) if self._join_queue else None

    def send_fault_notice(self, slave_rank, notice):
        self.notices_sent.append((slave_rank, notice))
        for cell in notice.cells:
            if cell.adopter_rank == slave_rank:
                self._queue_result(slave_rank, cell.cell_index, recovered=True)

    def build_contexts(self, is_active_slave):
        self.contexts_built = True

    # heartbeat -------------------------------------------------------------------
    def request_status(self, slave_rank):
        if slave_rank in self.silent_ranks:
            return
        with self._lock:
            self._status_outbox.append(
                StatusReply(slave_rank, "processing", 1, time.time())
            )

    def drain_status_replies(self):
        with self._lock:
            replies, self._status_outbox = self._status_outbox, []
            return replies

    def send_abort(self, slave_rank):
        self.aborts_sent.append(slave_rank)

    # results -----------------------------------------------------------------------
    def try_collect_result(self, timeout):
        if time.monotonic() - self._started_at < self.result_delay_s:
            time.sleep(min(timeout, 0.01))
            return None
        with self._lock:
            if self._result_queue:
                return self._result_queue.pop(0)
        time.sleep(min(timeout, 0.01))
        return None


@pytest.fixture()
def config():
    return make_quick_config(2, 2, iterations=1)


class TestMasterHappyPath:
    def test_collects_all_results(self, config):
        comm = ScriptedMasterComm(config)
        outcome = MasterProcess(comm, config, heartbeat_interval_s=0.02).run()
        assert outcome.complete
        assert sorted(outcome.results) == [0, 1, 2, 3]
        assert comm.contexts_built
        assert len(comm.sent_tasks) == 4

    def test_run_tasks_carry_configuration(self, config):
        comm = ScriptedMasterComm(config)
        MasterProcess(comm, config, heartbeat_interval_s=0.02).run()
        task = comm.sent_tasks[1]
        assert task.cell_index == 0
        from repro.config import ExperimentConfig

        assert ExperimentConfig.from_json(task.config_json) == config
        assert task.assigned_node.startswith("node")

    def test_placement_covers_master_and_slaves(self, config):
        comm = ScriptedMasterComm(config)
        outcome = MasterProcess(comm, config, heartbeat_interval_s=0.02).run()
        assert set(outcome.placement) == {0, 1, 2, 3, 4}

    def test_node_info_gathered(self, config):
        comm = ScriptedMasterComm(config)
        outcome = MasterProcess(comm, config, heartbeat_interval_s=0.02).run()
        assert [i.rank for i in outcome.node_info] == [1, 2, 3, 4]

    def test_fault_at_forwarded_to_task(self, config):
        comm = ScriptedMasterComm(config)
        MasterProcess(comm, config, heartbeat_interval_s=0.02,
                      fault_at={2: 5}).run()
        assert comm.sent_tasks[3].fault_at_iteration == 5  # cell 2 -> rank 3
        assert comm.sent_tasks[1].fault_at_iteration is None

    def test_trace_level_marks_the_protocol(self, config, telemetry_bus):
        telemetry_bus.bind_rank(0)  # what execute_rank does for the master
        comm = ScriptedMasterComm(config)
        MasterProcess(comm, config, heartbeat_interval_s=0.02,
                      telemetry_level="trace").run()
        events = [e.name for e in telemetry_bus.snapshot(0).events if e.instant]
        for expected in ("node info gathered", "placement decided",
                         "run tasks sent", "create heartbeat thread",
                         "final results gathered"):
            assert expected in events


class TestMasterFailureHandling:
    def test_silent_slave_declared_dead_and_survivors_aborted(self, config):
        comm = ScriptedMasterComm(config, silent_ranks={2},
                                  result_delay_s=0.4)
        outcome = MasterProcess(comm, config, heartbeat_interval_s=0.02,
                                miss_limit=3).run()
        assert outcome.dead_ranks == [2]
        assert not outcome.complete
        # Abort went to the three survivors only.
        assert sorted(comm.aborts_sent) == [1, 3, 4]
        # The survivors' results still arrived.
        assert sorted(outcome.results) == [0, 2, 3]


class TestMasterAppliesTransitions:
    """Drain and join end to end through ``_apply`` — no transport."""

    def test_drain_hands_the_cell_off_and_a_joiner_parks(self, config):
        comm = ScriptedMasterComm(config, drain_ranks={2}, join_ranks=[2],
                                  result_delay_s=0.3)
        outcome = MasterProcess(comm, config, heartbeat_interval_s=0.02,
                                fault_policy="recover").run()
        assert outcome.drained_ranks == [2] and outcome.joined_ranks == [2]
        assert outcome.dead_ranks == [] and outcome.complete
        assert outcome.degraded_ranks == [] and outcome.recovered_ranks == []
        assert sorted(outcome.results) == [0, 1, 2, 3]
        # Cell 1 went to the least-loaded survivor, which every peer heard.
        assert outcome.results[1].rank == 1 and outcome.results[1].recovered
        assert sorted(rank for rank, _ in comm.notices_sent) == [1, 3, 4]
        (notice,) = {id(n): n for _, n in comm.notices_sent}.values()
        assert [(c.cell_index, c.adopter_rank, c.epoch)
                for c in notice.cells] == [(1, 1, 1)]
        assert comm.drain_acks == [2]
        # The joiner found its home cell owned: parked, then released.
        task = comm.sent_tasks[2]
        assert task.standby and task.resume.snapshot is None
        assert task.resume.notices == (notice,)
        assert task.assigned_node == "late2" == outcome.placement[2]
        assert comm.aborts_sent == [2]
        assert [(e.kind, e.ranks) for e in outcome.membership] == [
            ("launch", (1, 2, 3, 4)), ("drain", (2,)), ("join", (2,))]

    def test_drain_under_abort_aborts_the_peers_and_still_acks(self, config):
        comm = ScriptedMasterComm(config, drain_ranks={3}, result_delay_s=0.3)
        outcome = MasterProcess(comm, config, heartbeat_interval_s=0.02).run()
        assert outcome.drained_ranks == [3] and outcome.dead_ranks == []
        assert sorted(comm.aborts_sent) == [1, 2, 4]
        assert comm.drain_acks == [3] and comm.notices_sent == []
        assert sorted(outcome.results) == [0, 1, 3]
