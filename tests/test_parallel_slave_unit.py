"""Unit tests for SlaveProcess against a scripted fake comm manager.

These isolate the slave's control logic — the two-thread structure, the
Fig. 2 state machine, status replies, the abort path and fault injection —
from the MPI runtime (which has its own tests).
"""

import threading

import pytest

from repro.coevolution.genome import Genome
from repro.parallel.comm_manager import CommManager
from repro.parallel.grid import Grid
from repro.parallel.messages import ExchangePayload, RunTask
from repro.parallel.slave import InjectedFault, SlaveProcess
from repro.parallel.states import SlaveState
from tests.conftest import make_quick_config


class ScriptedComm(CommManager):
    """Plays the master and all neighbors for one slave under test."""

    def __init__(self, task: RunTask, rank: int = 1):
        self._rank = rank
        self.task = task
        self.node_info = None
        self.status_replies = []
        self.result = None
        self.contexts_built = False
        self.abort_now = threading.Event()
        self.request_status_now = threading.Event()
        self._echo_genomes: dict[int, ExchangePayload] = {}

    # identity ---------------------------------------------------------------
    @property
    def rank(self):
        return self._rank

    @property
    def size(self):
        return 5

    # setup ---------------------------------------------------------------------
    def send_node_info(self, info):
        self.node_info = info

    def wait_for_run_task(self):
        return self.task

    def build_contexts(self, is_active_slave):
        self.contexts_built = True

    # heartbeat -------------------------------------------------------------------
    def poll_status_request(self):
        if self.request_status_now.is_set():
            self.request_status_now.clear()
            return True
        return False

    def reply_status(self, reply):
        self.status_replies.append(reply)

    def poll_abort(self):
        return self.abort_now.is_set()

    # exchange ---------------------------------------------------------------------
    def exchange_genomes(self, grid, cell_index, payload, mode,
                         abort_event=None, fault_state=None, catch_up=False,
                         resync_until=None):
        if abort_event is not None and abort_event.is_set():
            from repro.parallel.comm_manager import ExchangeAborted

            raise ExchangeAborted("scripted abort")
        # Echo the slave's own center back as every neighbor's genome.
        return {
            neighbor: ExchangePayload(
                neighbor, payload.iteration,
                payload.generator_genome.copy(),
                payload.discriminator_genome.copy(),
            )
            for neighbor in grid.neighbor_cells(cell_index)
        }

    # results -----------------------------------------------------------------------
    def send_result(self, result):
        self.result = result


def make_task(config, **overrides):
    defaults = dict(
        config_json=config.to_json(),
        cell_index=0,
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
        result = slave.run()

        assert comm.node_info.rank == 1
        assert comm.contexts_built
        assert slave.machine.state is SlaveState.FINISHED
        assert comm.result is result
        assert result.cell_index == 0
        assert len(result.reports) == 2
        assert isinstance(result.generator_genome, Genome)

    def test_state_history_matches_fig2(self, config, small_dataset):
        comm = ScriptedComm(make_task(config))
        slave = SlaveProcess(comm, small_dataset)
        slave.run()
        events = [t.event for t in slave.machine.history]
        assert events == ["run task message", "last iteration performed"]

    def test_status_requests_answered_during_training(self, config, small_dataset):
        comm = ScriptedComm(make_task(config))
        slave = SlaveProcess(comm, small_dataset, poll_interval_s=0.001)
        comm.request_status_now.set()  # pending before training starts
        slave.run()
        assert comm.status_replies, "no status reply recorded"
        assert comm.status_replies[0].rank == 1
        assert comm.status_replies[0].state in ("inactive", "processing", "finished")

    def test_trace_level_marks_the_protocol_steps(self, config, small_dataset,
                                                  telemetry_bus):
        telemetry_bus.bind_rank(1)  # what execute_rank does for the main thread
        comm = ScriptedComm(make_task(config, telemetry_level="trace"))
        result = SlaveProcess(comm, small_dataset).run()
        marks = [e.name for e in result.telemetry.events if e.instant]
        assert "start training" in marks
        # The in-band copy is retaken after the send mark, so it is in it.
        assert marks[-1] == "send results to master"
        assert result.telemetry.span_seconds("cell.train") > 0

    def test_basic_level_ships_totals_and_no_marks(self, config, small_dataset,
                                                   telemetry_bus):
        telemetry_bus.bind_rank(1)
        comm = ScriptedComm(make_task(config, telemetry_level="basic"))
        result = SlaveProcess(comm, small_dataset).run()
        assert result.telemetry.events == []
        assert result.telemetry.span_counts["cell.train"] == 2  # one per iteration

    def test_no_telemetry_by_default(self, config, small_dataset):
        comm = ScriptedComm(make_task(config))
        result = SlaveProcess(comm, small_dataset).run()
        assert result.telemetry is None


class TestAbortPath:
    def test_abort_yields_partial_result(self, config, small_dataset):
        import dataclasses

        coev = dataclasses.replace(config.coevolution, iterations=1000)
        long_config = dataclasses.replace(config, coevolution=coev)
        comm = ScriptedComm(make_task(long_config))
        slave = SlaveProcess(comm, small_dataset, poll_interval_s=0.001)

        # Trip the abort as soon as the first status reply proves the
        # execution thread is alive.
        def tripwire():
            import time

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if slave._iteration >= 1:
                    comm.abort_now.set()
                    return
                time.sleep(0.002)

        trigger = threading.Thread(target=tripwire, daemon=True)
        trigger.start()
        result = slave.run()
        trigger.join(timeout=5)

        assert result.aborted
        assert slave.machine.state is SlaveState.FINISHED
        assert 0 < len(result.reports) < 1000


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
        """Under ``snapshot_every=1`` the copy a checkpoint took is the one
        the next exchange sends: N iterations cost N+1 center snapshots
        (one per exchange, one for the final result), not 2N."""
        from repro.coevolution.cell import Cell

        iterations = 4
        config = make_quick_config(2, 2, iterations=iterations)
        comm = ScriptedComm(make_task(config, fault_policy="recover",
                                      snapshot_every=1))
        snapshots, payloads = [], []
        comm.send_cell_snapshot = snapshots.append
        exchange = comm.exchange_genomes

        def recording_exchange(grid, cell_index, payload, *args, **kwargs):
            payloads.append(payload)
            return exchange(grid, cell_index, payload, *args, **kwargs)

        comm.exchange_genomes = recording_exchange
        calls = []
        center_genomes = Cell.center_genomes

        def counting(self, *args, **kwargs):
            if not kwargs.get("alias"):
                calls.append(self.iteration)
            return center_genomes(self, *args, **kwargs)

        monkeypatch.setattr(Cell, "center_genomes", counting)
        SlaveProcess(comm, small_dataset).run()

        assert len(calls) == iterations + 1
        assert [s.iteration for s in snapshots] == list(range(1, iterations))
        # The checkpoint after iteration i and the payload of iteration i+1
        # are the same pair of genome objects.
        for snapshot in snapshots:
            payload = payloads[snapshot.iteration]
            assert payload.iteration == snapshot.iteration
            assert payload.generator_genome is snapshot.generator_genome
            assert payload.discriminator_genome is snapshot.discriminator_genome
