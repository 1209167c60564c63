"""Unit tests for MasterProcess against a scripted fake comm manager.

The master runs on a virtual clock: the scripted comm owns the time, and a
receive that finds nothing advances it by the timeout the master asked for.
Heartbeat timeouts are therefore exact and no test sleeps.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.coevolution.checkpoint import CellSnapshot
from repro.coevolution.genome import Genome
from repro.parallel import master as master_module
from repro.parallel.comm_manager import CommManager
from repro.parallel.elastic import DrainNotice
from repro.parallel.master import MasterProcess
from repro.parallel.messages import (
    Abort,
    DrainAck,
    NodeInfo,
    RunTask,
    SlaveResult,
    StatusReply,
    StatusRequest,
)
from repro.parallel.recovery import FaultNotice
from tests.conftest import make_quick_config


def snapshot(cell, iteration):
    genome = Genome(np.zeros(4), 1e-3, "bce")
    return CellSnapshot(cell, iteration, genome, genome.copy(), np.full(5, 0.2))


class ScriptedMasterComm(CommManager):
    """Plays all slaves for a master under test.

    Every slave introduces itself at time 0 and answers status requests at
    once, except ``silent_ranks``; a launched rank's result arrives at
    ``result_delay_s``.  ``drain_ranks`` answer their run task with a
    :class:`DrainNotice` instead of a result; once a drain is acknowledged,
    each of ``join_ranks`` introduces a fresh process for its slot.  A rank
    named adopter in a fault notice delivers the adopted cell's result, and
    a rank in ``abortable_ranks`` answers an abort with its aborted result.
    There is no ``build_contexts`` here: the master attaches to no context,
    and the base class's would raise.
    """

    def __init__(self, config, *, silent_ranks=frozenset(), result_delay_s=0.0,
                 drain_ranks=(), join_ranks=(), abortable_ranks=()):
        self.config = config
        self.cells = config.coevolution.cells
        self.silent_ranks = set(silent_ranks)
        self.result_delay_s = result_delay_s
        self.drain_ranks = set(drain_ranks)
        self.join_ranks = list(join_ranks)
        self.abortable_ranks = set(abortable_ranks)
        self.now = 0.0
        self.sent_tasks = {}
        self.pings = []
        self.aborts_sent = []
        self.notices_sent = []
        self.drain_acks = []
        #: (arrival time, sequence, message) of everything in flight.
        self._inbox = []
        for rank in range(1, self.size):
            self._arrive(0.0, NodeInfo(rank, f"host{rank}"))

    @property
    def rank(self):
        return 0

    @property
    def size(self):
        return self.cells + 1

    def clock(self):
        return self.now

    # the slaves' side ---------------------------------------------------------
    def _arrive(self, at, message):
        self._inbox.append((at, len(self._inbox), message))

    def _result(self, rank, cell, *, at, recovered=False, iteration=1):
        self._arrive(at, SlaveResult(rank, snapshot(cell, iteration),
                                     recovered=recovered))

    def send(self, dest, message):
        if isinstance(message, RunTask):
            self.sent_tasks[dest] = message
            if dest in self.silent_ranks or message.standby:
                return  # no cell to report on
            if dest in self.drain_ranks and message.resume is None:
                self._arrive(self.now, DrainNotice(
                    dest, tuple(snapshot(cell, 0) for cell in message.cells)))
                return
            for cell in message.cells:
                self._result(dest, cell, at=max(self.now, self.result_delay_s))
        elif isinstance(message, StatusRequest):
            self.pings.append((self.now, dest))
            if dest not in self.silent_ranks:
                self._arrive(self.now, StatusReply(dest, "processing", 1))
        elif isinstance(message, Abort):
            self.aborts_sent.append(dest)
            if dest in self.abortable_ranks:
                # Aborted at iteration 0: its record says how far it got.
                self._result(dest, dest - 1, at=self.now, iteration=0)
        elif isinstance(message, FaultNotice):
            self.notices_sent.append((dest, message))
            for cell in message.cells:
                if cell.adopter_rank == dest:
                    self._result(dest, cell.snapshot.cell_index, at=self.now,
                                 recovered=True)
        elif isinstance(message, DrainAck):
            self.drain_acks.append(dest)
            for rank in self.join_ranks:
                self._arrive(self.now, NodeInfo(rank, f"late{rank}"))
            self.join_ranks = []
        else:
            raise AssertionError(f"unexpected send to {dest}: {message!r}")

    def receive(self, timeout=None):
        """The earliest message due by ``now + timeout``, advancing the
        clock to its arrival; ``None`` (the clock at the deadline) if none."""
        if self._inbox:
            at, seq, message = min(self._inbox, key=lambda item: item[:2])
            if timeout is None or at <= self.now + timeout:
                self._inbox.remove((at, seq, message))
                self.now = max(self.now, at)
                return message
        assert timeout is not None, "the master would block forever"
        self.now += timeout
        return None


def run_master(comm, config, monkeypatch, **options):
    """``MasterProcess(comm, config, **options).run()`` on ``comm``'s clock."""
    monkeypatch.setattr(master_module, "time", SimpleNamespace(
        monotonic=comm.clock, perf_counter=comm.clock))
    options.setdefault("heartbeat_interval_s", 0.02)
    return MasterProcess(comm, config, **options).run()


@pytest.fixture()
def config():
    return make_quick_config(2, 2, iterations=1)


class TestMasterHappyPath:
    def test_collects_all_results(self, config, monkeypatch):
        comm = ScriptedMasterComm(config)
        outcome = run_master(comm, config, monkeypatch)
        assert outcome.complete
        assert sorted(outcome.results) == [0, 1, 2, 3]
        assert len(comm.sent_tasks) == 4

    def test_run_tasks_carry_configuration(self, config, monkeypatch):
        comm = ScriptedMasterComm(config)
        run_master(comm, config, monkeypatch)
        task = comm.sent_tasks[1]
        assert task.cells == (0,)
        from repro.config import ExperimentConfig

        assert ExperimentConfig.from_json(task.config_json) == config
        assert task.assigned_node.startswith("node")

    def test_placement_covers_master_and_slaves(self, config, monkeypatch):
        comm = ScriptedMasterComm(config)
        outcome = run_master(comm, config, monkeypatch)
        assert set(outcome.placement) == {0, 1, 2, 3, 4}

    def test_node_info_gathered(self, config, monkeypatch):
        comm = ScriptedMasterComm(config)
        outcome = run_master(comm, config, monkeypatch)
        assert [i.rank for i in outcome.node_info] == [1, 2, 3, 4]

    def test_fault_at_forwarded_to_task(self, config, monkeypatch):
        comm = ScriptedMasterComm(config)
        run_master(comm, config, monkeypatch, fault_at={2: 5})
        assert comm.sent_tasks[3].fault_at_iteration == 5  # cell 2 -> rank 3
        assert comm.sent_tasks[1].fault_at_iteration is None

    def test_trace_level_marks_the_protocol(self, config, telemetry_bus, monkeypatch):
        telemetry_bus.bind_rank(0)  # what execute_rank does for the master
        comm = ScriptedMasterComm(config)
        run_master(comm, config, monkeypatch, telemetry_level="trace")
        events = [e.name for e in telemetry_bus.snapshot(0).events if e.instant]
        for expected in ("node info gathered", "placement decided",
                         "run tasks sent", "start heartbeat",
                         "final results gathered"):
            assert expected in events


class TestMasterFailureHandling:
    def test_silent_slave_declared_dead_and_survivors_aborted(self, config, monkeypatch):
        comm = ScriptedMasterComm(config, silent_ranks={2},
                                  result_delay_s=0.4)
        outcome = run_master(comm, config, monkeypatch, miss_limit=3)
        assert outcome.dead_ranks == [2]
        assert not outcome.complete
        # Abort went to the three survivors and to the rank declared dead.
        assert sorted(comm.aborts_sent) == [1, 2, 3, 4]
        # The survivors' results still arrived.
        assert sorted(outcome.results) == [0, 2, 3]

    def test_death_declared_at_exactly_miss_limit_missed_pings(self, config, monkeypatch):
        comm = ScriptedMasterComm(config, silent_ranks={2}, result_delay_s=0.4)
        run_master(comm, config, monkeypatch, miss_limit=3)
        # Pinged at 0, 0.02 and 0.04; the third miss closes at 0.06, where
        # the abort goes out — and no fourth ping.
        assert [at for at, rank in comm.pings if rank == 2] == pytest.approx(
            [0.0, 0.02, 0.04])

    @pytest.mark.parametrize("policy", ["abort", "degrade", "recover"])
    def test_a_live_rank_falsely_declared_dead_is_aborted_too(self, config,
                                                             monkeypatch, policy):
        """Regression: a rank the heartbeat wrongly declared dead (silent,
        but alive — a long batch on a loaded node) was left out of the
        abort, and then waited on neighbours that had stopped sending to it
        until the run's timeout.  It now gets an abort under every policy.
        Its aborted result is taken in under ``abort``; elsewhere its cell
        moved on, and the frozen placeholder or the adopter's result
        stands."""
        comm = ScriptedMasterComm(config, silent_ranks={2}, abortable_ranks={2},
                                  result_delay_s=0.4)
        outcome = run_master(comm, config, monkeypatch, miss_limit=3,
                             fault_policy=policy)
        assert comm.aborts_sent.count(2) == 1
        assert sorted(outcome.results) == [0, 1, 2, 3]
        assert outcome.dead_ranks == [2]  # declared dead all the same
        cell = outcome.results[1]
        if policy == "abort":
            # Its own, aborted result.
            assert cell.rank == 2 and not cell.recovered
            assert cell.snapshot.iteration == 0
        elif policy == "degrade":
            assert outcome.degraded_ranks == [2]
            # The placeholder: the frozen record, the initial state here.
            assert cell.rank == 2 and cell.reports == [] and not cell.recovered
            assert cell.snapshot.iteration == 0
            assert cell.snapshot.generator_genome.parameters.size > 4
        else:
            assert outcome.recovered_ranks == [2]
            assert cell.rank != 2 and cell.recovered
            assert cell.snapshot.iteration == 1


class TestMasterAppliesTransitions:
    """Drain and join end to end through ``_apply`` — no transport."""

    def test_drain_hands_the_cell_off_and_a_joiner_parks(self, config, monkeypatch):
        comm = ScriptedMasterComm(config, drain_ranks={2}, join_ranks=[2],
                                  result_delay_s=0.3)
        outcome = run_master(comm, config, monkeypatch,
                             fault_policy="recover")
        assert outcome.drained_ranks == [2] and outcome.joined_ranks == [2]
        assert outcome.dead_ranks == [] and outcome.complete
        assert outcome.degraded_ranks == [] and outcome.recovered_ranks == []
        assert sorted(outcome.results) == [0, 1, 2, 3]
        # Cell 1 went to the least-loaded survivor, which every peer heard.
        assert outcome.results[1].rank == 1 and outcome.results[1].recovered
        assert sorted(rank for rank, _ in comm.notices_sent) == [1, 3, 4]
        (notice,) = {id(n): n for _, n in comm.notices_sent}.values()
        assert [(c.snapshot.cell_index, c.adopter_rank, c.epoch)
                for c in notice.cells] == [(1, 1, 1)]
        assert comm.drain_acks == [2]
        # The joiner found its home cell owned: parked, then released.
        task = comm.sent_tasks[2]
        assert task.standby and task.resume.snapshots == ()
        assert task.resume.notices == (notice,)
        assert task.assigned_node == "late2" == outcome.placement[2]
        assert comm.aborts_sent == [2]
        assert [(e.kind, e.ranks) for e in outcome.membership] == [
            ("launch", (1, 2, 3, 4)), ("drain", (2,)), ("join", (2,))]

    def test_drain_under_abort_aborts_the_peers_and_still_acks(self, config, monkeypatch):
        comm = ScriptedMasterComm(config, drain_ranks={3}, result_delay_s=0.3)
        outcome = run_master(comm, config, monkeypatch)
        assert outcome.drained_ranks == [3] and outcome.dead_ranks == []
        assert sorted(comm.aborts_sent) == [1, 2, 4]
        assert comm.drain_acks == [3] and comm.notices_sent == []
        assert sorted(outcome.results) == [0, 1, 3]
