"""Unit tests for SlaveProcess against a scripted fake comm manager.

These isolate the slave's control logic — the two-thread structure, the
Fig. 2 state machine, status replies, the abort path, fault injection and
the block (adoption, standby, drain) — from the MPI runtime (which has its
own tests).
"""

import queue
import threading

import pytest

from repro.coevolution.cell import Cell
from repro.coevolution.checkpoint import CellSnapshot
from repro.coevolution.genome import Genome
from repro.parallel import elastic
from repro.parallel.comm_manager import CommManager, ExchangeAborted
from repro.parallel.grid import Grid
from repro.parallel.messages import (
    Abort,
    DrainAck,
    ExchangePayload,
    NodeInfo,
    RunTask,
    SlaveResult,
    StatusReply,
    StatusRequest,
)
from repro.parallel.recovery import FaultNotice, FrozenCell, ResumeDirective
from repro.parallel.slave import InjectedFault, SlaveProcess
from repro.parallel.states import SlaveState
from tests.conftest import make_quick_config


class ScriptedComm(CommManager):
    """Plays the master and all neighbors for one slave under test.

    The slave's inbox is a queue the test fills through :meth:`deliver`
    (the task is in it from the start); what the slave sends the master
    is recorded by type.  ``abort_at`` delivers an abort inside that
    iteration's exchange, which then fails like a real aborted one.
    """

    def __init__(self, task: RunTask, rank: int = 1, abort_at=None):
        self._rank = rank
        self.task = task
        self.abort_at = abort_at
        self.inbox: queue.Queue = queue.Queue()
        self.inbox.put(task)
        self.receive_calls = 0
        self.node_info = None
        self.status_replies = []
        self.replied = threading.Event()
        self.result = None
        self.results = []
        self.snapshots = []
        self.contexts_built = False

    # identity ---------------------------------------------------------------
    @property
    def rank(self):
        return self._rank

    @property
    def size(self):
        return 5

    def build_contexts(self, is_active_slave):
        self.contexts_built = True

    # the control protocol -----------------------------------------------------
    def deliver(self, message):
        """The master sends ``message`` to the slave."""
        self.inbox.put(message)

    def settle(self):
        """Return once the main thread has taken in everything delivered so
        far: a status request queued behind it has been answered."""
        self.replied.clear()
        self.deliver(StatusRequest())
        assert self.replied.wait(30), "main thread stopped serving"

    def receive(self, timeout=None):
        self.receive_calls += 1
        try:
            return self.inbox.get(timeout=timeout)
        except queue.Empty:
            return None

    def send(self, dest, message):
        if dest == self.rank:
            self.inbox.put(message)
        elif isinstance(message, NodeInfo):
            self.node_info = message
        elif isinstance(message, StatusReply):
            self.status_replies.append(message)
            self.replied.set()
        elif isinstance(message, SlaveResult):
            self.results.append(message)
            self.result = message
        elif isinstance(message, CellSnapshot):
            self.snapshots.append(message)
        else:
            raise AssertionError(f"unexpected send to {dest}: {message!r}")

    # exchange ---------------------------------------------------------------------
    def exchange_round(self, grid, payloads, mode, abort_event=None,
                       fault_state=None, catch_up=(), resync_until=None):
        iteration = next(iter(payloads.values())).iteration
        if iteration == self.abort_at:
            self.deliver(Abort())
            assert abort_event.wait(30), "abort never reached the execution thread"
        if abort_event is not None and abort_event.is_set():
            raise ExchangeAborted("scripted abort")
        # Echo each cell's own center back as every neighbor's genome.
        return {
            cell_index: {
                neighbor: ExchangePayload(
                    neighbor, payload.iteration,
                    payload.generator_genome.copy(),
                    payload.discriminator_genome.copy(),
                )
                for neighbor in grid.neighbor_cells(cell_index)
            }
            for cell_index, payload in payloads.items()
        }


def make_task(config, **overrides):
    defaults = dict(
        config_json=config.to_json(),
        cells=(0,),
        grid_payload=Grid(config.coevolution.grid_rows,
                          config.coevolution.grid_cols).to_payload(),
        assigned_node="node00",
    )
    defaults.update(overrides)
    return RunTask(**defaults)


@pytest.fixture()
def config():
    return make_quick_config(2, 2, iterations=2)


class TestHappyPath:
    def test_full_lifecycle(self, config, small_dataset):
        comm = ScriptedComm(make_task(config))
        slave = SlaveProcess(comm, small_dataset)
        (result,) = slave.run()

        assert comm.node_info.rank == 1
        assert comm.contexts_built
        assert slave.machine.state is SlaveState.FINISHED
        assert comm.result is result
        assert result.snapshot.cell_index == 0
        assert result.snapshot.iteration == 2
        assert len(result.reports) == 2
        assert isinstance(result.snapshot.generator_genome, Genome)

    def test_state_history_matches_fig2(self, config, small_dataset):
        comm = ScriptedComm(make_task(config))
        slave = SlaveProcess(comm, small_dataset)
        slave.run()
        events = [t.event for t in slave.machine.history]
        assert events == ["run task message", "last iteration performed"]

    def test_status_requests_answered_during_training(self, config, small_dataset):
        comm = ScriptedComm(make_task(config))
        comm.deliver(StatusRequest())  # pending before training starts
        SlaveProcess(comm, small_dataset).run()
        (reply,) = comm.status_replies
        assert reply.rank == 1 and reply.state == "processing"

    def test_a_silent_master_costs_the_main_thread_two_receives(self, config,
                                                                small_dataset):
        """The main thread blocks instead of polling: with no status
        request it wakes for the task and for the execution thread's exit,
        nothing else (each status request would add one)."""
        comm = ScriptedComm(make_task(config))
        SlaveProcess(comm, small_dataset).run()
        assert comm.receive_calls == 2
        assert comm.inbox.empty()

    # The rank's buffer is what the transport's per-rank outcome ships home.

    def test_trace_level_marks_the_protocol_steps(self, config, small_dataset,
                                                  telemetry_bus):
        telemetry_bus.bind_rank(1)  # what execute_rank does for the main thread
        comm = ScriptedComm(make_task(config, telemetry_level="trace"))
        SlaveProcess(comm, small_dataset).run()
        buffer = telemetry_bus.snapshot(1)
        marks = [e.name for e in buffer.events if e.instant]
        assert "start training" in marks
        assert marks[-1] == "send results to master"
        assert buffer.span_seconds("cell.train") > 0

    def test_basic_level_ships_totals_and_no_marks(self, config, small_dataset,
                                                   telemetry_bus):
        telemetry_bus.bind_rank(1)
        comm = ScriptedComm(make_task(config, telemetry_level="basic"))
        SlaveProcess(comm, small_dataset).run()
        buffer = telemetry_bus.snapshot(1)
        assert buffer.events == []
        assert buffer.span_counts["cell.train"] == 2  # one per iteration

    def test_no_telemetry_by_default(self, config, small_dataset, telemetry_bus):
        telemetry_bus.bind_rank(1)
        comm = ScriptedComm(make_task(config))
        SlaveProcess(comm, small_dataset).run()
        assert telemetry_bus.snapshot(1).empty


class TestAbortPath:
    def test_abort_yields_partial_result(self, config, small_dataset):
        import dataclasses

        coev = dataclasses.replace(config.coevolution, iterations=1000)
        long_config = dataclasses.replace(config, coevolution=coev)
        comm = ScriptedComm(make_task(long_config), abort_at=1)
        slave = SlaveProcess(comm, small_dataset)
        (result,) = slave.run()

        assert slave.machine.state is SlaveState.FINISHED
        assert len(result.reports) == 1  # iteration 0 done, 1 aborted
        assert result.snapshot.iteration == 1  # the record says how far it got


class TestFaultInjection:
    def test_injected_fault_propagates(self, config, small_dataset):
        comm = ScriptedComm(make_task(config, fault_at_iteration=1))
        slave = SlaveProcess(comm, small_dataset)
        with pytest.raises(InjectedFault, match="iteration 1"):
            slave.run()
        assert comm.result is None  # died before reporting

    def test_fault_at_iteration_zero(self, config, small_dataset):
        comm = ScriptedComm(make_task(config, fault_at_iteration=0))
        with pytest.raises(InjectedFault):
            SlaveProcess(comm, small_dataset).run()


class TestCheckpointStreaming:
    def test_one_center_snapshot_per_iteration(self, small_dataset, monkeypatch):
        """Under ``snapshot_every=1`` the checkpoints the master keeps are
        the only center copies: N iterations cost N-1 of them (none after
        the last, whose record is the result), each exchange lends the
        center by reference and the result hands it out retired."""
        from repro.coevolution.cell import Cell

        iterations = 4
        config = make_quick_config(2, 2, iterations=iterations)
        comm = ScriptedComm(make_task(config, snapshot_every=1))
        payloads = []
        exchange = comm.exchange_round

        def recording_exchange(grid, block_payloads, *args, **kwargs):
            payloads.append(block_payloads[0])
            return exchange(grid, block_payloads, *args, **kwargs)

        comm.exchange_round = recording_exchange
        calls = []
        center_genomes = Cell.center_genomes

        def counting(self, *args, **kwargs):
            if not kwargs.get("alias"):
                calls.append(self.iteration)
            return center_genomes(self, *args, **kwargs)

        monkeypatch.setattr(Cell, "center_genomes", counting)
        (result,) = SlaveProcess(comm, small_dataset).run()

        assert calls == list(range(1, iterations))
        assert [s.iteration for s in comm.snapshots] == list(range(1, iterations))
        assert [p.iteration for p in payloads] == list(range(iterations))
        for payload in payloads:
            for genome in (payload.generator_genome, payload.discriminator_genome):
                assert not genome.parameters.flags.writeable
                assert not genome.parameters.flags.owndata
        for snapshot in comm.snapshots:
            payload = payloads[snapshot.iteration]
            assert payload.generator_genome is not snapshot.generator_genome
            assert snapshot.generator_genome.parameters.flags.owndata
        record = result.snapshot
        for genome in (record.generator_genome, record.discriminator_genome):
            assert not genome.parameters.flags.writeable
            assert not genome.parameters.flags.owndata


class RecoveryComm(ScriptedComm):
    """ScriptedComm plus the recovery surface, on a deterministic schedule.

    ``notice`` is delivered inside the block round of ``release_at`` (with
    the task when ``None``), and that round returns only once the main
    thread has taken it in — so the admission lands on the next iteration
    boundary.  ``on_round(comm, iteration, cells)`` runs inside every
    round; the slave's threads are sampled throughout.  A drain notice is
    acknowledged at once.
    """

    def __init__(self, task, notice=None, release_at=None, on_round=None,
                 abort_after_results=None):
        super().__init__(task)
        self.release_at = release_at
        self.on_round = on_round
        self.abort_after_results = abort_after_results
        self.notice = notice
        if release_at is None and notice is not None:
            self.deliver(notice)
        self.rounds = []            # (iteration, cells, catch-up cells)
        self.thread_counts = []
        self.drain_notices = []

    def _sample(self):
        self.thread_counts.append(sum(
            thread.name.startswith(f"slave-{self.rank}-")
            for thread in threading.enumerate()))

    def receive(self, timeout=None):
        self._sample()
        return super().receive(timeout)

    def exchange_round(self, grid, payloads, mode, *args, **kwargs):
        self._sample()
        iteration = next(iter(payloads.values())).iteration
        cells = sorted(payloads)
        self.rounds.append((iteration, cells, sorted(kwargs.get("catch_up", ()))))
        if iteration == self.release_at and self.notice is not None:
            self.deliver(self.notice)
            self.notice = None
            self.settle()
        if self.on_round is not None:
            self.on_round(self, iteration, cells)
        return super().exchange_round(grid, payloads, mode, *args, **kwargs)

    def send(self, dest, message):
        if isinstance(message, elastic.DrainNotice):
            self.drain_notices.append(message)
            self.deliver(DrainAck())
            return
        super().send(dest, message)
        if (isinstance(message, SlaveResult)
                and len(self.results) == self.abort_after_results):
            self.deliver(Abort())


def cell3_notice(config, dataset, *, iteration, rejoin):
    """Rank 1 adopts cell 3 (rank 4 died) from its state at ``iteration``."""
    cell = Cell(config, 3, dataset)
    while cell.iteration < iteration:
        cell.step([cell.center_genomes()] * 4)
    g_genome, d_genome = cell.center_genomes()
    snapshot = CellSnapshot(3, iteration, g_genome, d_genome, cell.mixture.weights.copy())
    frozen = FrozenCell(snapshot, adopter_rank=1, rejoin_iteration=rejoin, epoch=1)
    return FaultNotice(policy="recover", cells=(frozen,))


def reference_cell(config, dataset, notice):
    """The adopted cell built directly: restored from the notice, stepped
    with its own center in every slot to the end (what catch-up and the
    scripted echo both hand it)."""
    (frozen,) = notice.cells
    cell = Cell(config, frozen.snapshot.cell_index, dataset)
    cell.restore(frozen.snapshot)
    while cell.iteration < config.coevolution.iterations:
        cell.step([cell.center_genomes()] * 4)
    return cell


def report_bytes(reports):
    return [(r.iteration, r.best_generator_fitness, r.best_discriminator_fitness,
             r.selected_generator, r.selected_discriminator, r.learning_rate,
             r.mixture_weights.tobytes(), r.d_loss, r.g_loss) for r in reports]


def assert_matches_reference(result, cell):
    ours, theirs = result.snapshot, cell.snapshot()
    assert (ours.cell_index, ours.iteration) == (theirs.cell_index, theirs.iteration)
    for mine, reference in ((ours.generator_genome, theirs.generator_genome),
                            (ours.discriminator_genome, theirs.discriminator_genome)):
        assert mine.parameters.tobytes() == reference.parameters.tobytes()
    assert ours.mixture_weights.tobytes() == theirs.mixture_weights.tobytes()
    assert report_bytes(result.reports) == report_bytes(cell.reports)


def standby_task(config):
    task = make_task(config, cells=(),
                     resume=ResumeDirective(snapshots=(), rejoin_iteration=0))
    assert task.standby  # a directive without a snapshot parks the rank
    return task


class TestBlock:
    """A rank trains its cells as one block on one execution thread."""

    def test_adoption_joins_the_block_of_a_live_rank(self, small_dataset):
        config = make_quick_config(2, 2, iterations=4)
        notice = cell3_notice(config, small_dataset, iteration=1, rejoin=4)
        comm = RecoveryComm(make_task(config), notice=notice, release_at=1)
        (result,) = SlaveProcess(comm, small_dataset).run()

        assert comm.thread_counts and max(comm.thread_counts) == 1
        # Admitted at boundary 2: one communication-free catch-up round
        # (1 -> 2), then the block of two rounds together.
        assert comm.rounds == [(0, [0], []), (1, [0], []), (1, [3], [3]),
                               (2, [0, 3], [3]), (3, [0, 3], [3])]
        assert [(r.snapshot.cell_index, r.recovered)
                for r in comm.results] == [(0, False), (3, True)]
        assert result is comm.results[0]
        assert_matches_reference(comm.results[1],
                                 reference_cell(config, small_dataset, notice))

    def test_standby_adopts_into_an_empty_block(self, small_dataset):
        config = make_quick_config(2, 2, iterations=4)
        notice = cell3_notice(config, small_dataset, iteration=1, rejoin=4)
        comm = RecoveryComm(standby_task(config), notice=notice, abort_after_results=1)
        result = SlaveProcess(comm, small_dataset).run()

        assert result == []  # a standby ships no cell of its own
        assert comm.thread_counts and max(comm.thread_counts) == 1
        # The empty block took the admitted cell's iteration.
        assert [round_[:2] for round_ in comm.rounds] == [(1, [3]), (2, [3]), (3, [3])]
        assert [(r.snapshot.cell_index, r.recovered) for r in comm.results] == [(3, True)]
        assert_matches_reference(comm.results[0],
                                 reference_cell(config, small_dataset, notice))

    def test_standby_reports_the_block_iteration(self, small_dataset):
        """Regression: an adopter's heartbeat used to say iteration 0 for
        the rest of the run, feeding rejoin_iteration a stale horizon."""
        config = make_quick_config(2, 2, iterations=4)
        notice = cell3_notice(config, small_dataset, iteration=1, rejoin=4)
        seen = []

        def heartbeat(comm, iteration, cells):
            comm.settle()
            seen.append((iteration, comm.status_replies[-1].iteration))

        comm = RecoveryComm(standby_task(config), notice=notice,
                            on_round=heartbeat, abort_after_results=1)
        SlaveProcess(comm, small_dataset).run()
        assert seen == [(1, 1), (2, 2), (3, 3)]

    def test_failing_adopted_cell_fails_the_rank(self, small_dataset, monkeypatch):
        """Regression: an exception in an adopted cell used to be swallowed
        by its thread, leaving the master waiting on a result that never
        came."""
        config = make_quick_config(2, 2, iterations=3)
        notice = cell3_notice(config, small_dataset, iteration=0, rejoin=3)
        step = Cell.step

        def failing(self, neighbors):
            if self.cell_index == 3:
                raise RuntimeError("adopted cell blew up")
            return step(self, neighbors)

        monkeypatch.setattr(Cell, "step", failing)
        comm = RecoveryComm(make_task(config), notice=notice, release_at=0)
        with pytest.raises(RuntimeError, match="adopted cell blew up"):
            SlaveProcess(comm, small_dataset).run()
        assert comm.results == []

    def test_drain_hands_off_the_whole_block_at_one_iteration(self, small_dataset):
        config = make_quick_config(2, 2, iterations=5)
        notice = cell3_notice(config, small_dataset, iteration=1, rejoin=5)

        def drain_in_block_round(comm, iteration, cells):
            if cells == [0, 3]:
                elastic.request_drain(comm.rank)
                comm.settle()

        comm = RecoveryComm(make_task(config), notice=notice, release_at=1,
                            on_round=drain_in_block_round)
        try:
            result = SlaveProcess(comm, small_dataset).run()
        finally:
            elastic.reset_drain_registry()

        assert result == [] and comm.results == []
        (drained,) = comm.drain_notices
        assert [(s.cell_index, s.iteration) for s in drained.snapshots] == [(0, 3), (3, 3)]

    def test_cell_admitted_ahead_waits_for_the_block(self, small_dataset):
        config = make_quick_config(2, 2, iterations=5)
        notice = cell3_notice(config, small_dataset, iteration=3, rejoin=5)
        comm = RecoveryComm(make_task(config), notice=notice, release_at=0)
        SlaveProcess(comm, small_dataset).run()

        # Admitted at boundary 1, stepped only once the block reached 3.
        assert [round_[:2] for round_ in comm.rounds] == [
            (0, [0]), (1, [0]), (2, [0]), (3, [0, 3]), (4, [0, 3])]
        adopted = comm.results[1]
        assert [r.iteration for r in adopted.reports] == [4, 5]
        assert_matches_reference(adopted, reference_cell(config, small_dataset, notice))

    def test_admission_past_the_rejoin_iteration_raises(self, small_dataset):
        config = make_quick_config(2, 2, iterations=4)
        notice = cell3_notice(config, small_dataset, iteration=0, rejoin=1)
        comm = RecoveryComm(make_task(config), notice=notice, release_at=1)
        with pytest.raises(RuntimeError, match="past its rejoin iteration 1"):
            SlaveProcess(comm, small_dataset).run()
