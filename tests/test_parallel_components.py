"""Unit tests for the parallel package's components: Grid, states, messages,
profiling report."""

import pickle

import numpy as np
import pytest

from repro.coevolution.genome import Genome
from repro.parallel.grid import Grid
from repro.parallel.messages import ExchangePayload, NodeInfo, RunTask, SlaveResult, StatusReply
from repro.parallel.states import IllegalTransition, SlaveState, SlaveStateMachine
from repro.telemetry import (
    ProfileRow,
    TelemetrySnapshot,
    TimerSnapshot,
    merge_telemetry,
    profile_rows,
    routine_profile,
)


class TestGrid:
    @pytest.fixture()
    def grid(self):
        return Grid(3, 3, first_slave_rank=1)

    def test_rank_mapping(self, grid):
        assert grid.rank_of_cell(0) == 1
        assert grid.rank_of_cell(8) == 9
        assert grid.cell_of_rank(5) == 4
        assert grid.slave_ranks() == list(range(1, 10))

    def test_rank_mapping_bounds(self, grid):
        with pytest.raises(ValueError):
            grid.rank_of_cell(9)
        with pytest.raises(ValueError):
            grid.cell_of_rank(0)  # the master maps to no cell

    def test_default_neighbors_match_torus(self, grid):
        # cell 4 = (1,1) on 3x3: W=3, N=1, E=5, S=7
        assert grid.neighbor_cells(4) == [3, 1, 5, 7]
        assert grid.neighbor_ranks(4) == [4, 2, 6, 8]

    def test_neighborhood_size(self, grid):
        assert grid.neighborhood_size(4) == 5

    def test_rewire(self, grid):
        grid.rewire(4, [0, 8])
        assert grid.neighbor_cells(4) == [0, 8]
        assert grid.neighborhood_size(4) == 3
        # Other cells unaffected.
        assert grid.neighbor_cells(0) == [2, 6, 1, 3]

    def test_rewire_validation(self, grid):
        with pytest.raises(ValueError):
            grid.rewire(4, [9])
        with pytest.raises(ValueError):
            grid.rewire(4, [4])  # self
        with pytest.raises(ValueError):
            grid.rewire(9, [0])

    def test_reset_neighborhoods(self, grid):
        grid.rewire(4, [0])
        grid.reset_neighborhoods()
        assert grid.neighbor_cells(4) == [3, 1, 5, 7]

    def test_incoming_matches_outgoing_when_symmetric(self, grid):
        for cell in range(9):
            assert sorted(grid.incoming_neighbors(cell)) == sorted(grid.neighbor_cells(cell))

    def test_incoming_for_asymmetric_rewire(self, grid):
        grid.rewire(0, [4])      # 0 listens to 4
        grid.rewire(4, [])        # 4 listens to nobody
        # 4's update must reach 0 -> 0 is an incoming neighbor of 4.
        assert 0 in grid.incoming_neighbors(4)
        # nothing must be sent to 4 from 0 since 4 doesn't list 0... but 0's
        # neighbors are only 4, so 0 appears exactly once.
        assert grid.incoming_neighbors(0) == [c for c in range(9)
                                              if 0 in grid.neighbor_cells(c)]

    def test_payload_roundtrip(self, grid):
        grid.rewire(2, [0, 1])
        clone = Grid.from_payload(grid.to_payload())
        assert clone.neighbor_cells(2) == [0, 1]
        assert clone.neighbor_cells(4) == [3, 1, 5, 7]
        assert clone.first_slave_rank == 1

    def test_2x2_duplicate_neighbors(self):
        grid = Grid(2, 2)
        # W and E are the same cell; N and S likewise.
        assert grid.neighbor_cells(0) == [1, 2, 1, 2]
        assert sorted(grid.incoming_neighbors(0)) == [1, 1, 2, 2]


class TestStateMachine:
    def test_happy_path(self):
        machine = SlaveStateMachine()
        assert machine.state is SlaveState.INACTIVE
        machine.start_processing()
        assert machine.state is SlaveState.PROCESSING
        machine.finish()
        assert machine.state is SlaveState.FINISHED

    def test_history_records_events(self):
        machine = SlaveStateMachine()
        machine.start_processing()
        machine.finish()
        events = [t.event for t in machine.history]
        assert events == ["run task message", "last iteration performed"]

    @pytest.mark.parametrize("walk", [
        ["finish"],                      # inactive -> finished
        ["start_processing", "start_processing"],
        ["start_processing", "finish", "finish"],
        ["start_processing", "finish", "start_processing"],
    ])
    def test_illegal_walks(self, walk):
        machine = SlaveStateMachine()
        with pytest.raises(IllegalTransition):
            for step in walk:
                getattr(machine, step)()


class TestMessages:
    def test_all_messages_pickle(self, rng):
        genome = Genome(rng.normal(size=16), 2e-4, "bce")
        messages = [
            NodeInfo(1, "host", 1234),
            RunTask("{}", 0, {"rows": 2, "cols": 2, "first_slave_rank": 1,
                              "overrides": {}}, "node00"),
            StatusReply(1, "processing", 3, 0.0),
            ExchangePayload(0, 2, genome, genome.copy()),
            SlaveResult(1, 0, genome, genome.copy(), np.full(5, 0.2)),
        ]
        for message in messages:
            clone = pickle.loads(pickle.dumps(message))
            assert type(clone) is type(message)

    def test_exchange_payload_carries_genomes(self, rng):
        g = Genome(rng.normal(size=8), 1e-3, "mse")
        payload = ExchangePayload(3, 7, g, g.copy())
        assert payload.cell_index == 3 and payload.iteration == 7
        np.testing.assert_array_equal(payload.generator_genome.parameters, g.parameters)


class TestProfilingReport:
    """The Table IV view: per-rank span totals -> the paper's four routines."""

    @staticmethod
    def _two_ranks():
        return merge_telemetry([
            TelemetrySnapshot(rank=rank,
                              span_totals={"cell.train": seconds, "train.d_step": 9.0},
                              span_counts={"cell.train": 3, "train.d_step": 6})
            for rank, seconds in ((1, 1.0), (2, 2.0))])

    def test_total_work_view_sums_ranks(self):
        profile = routine_profile(self._two_ranks(), parallel=False)
        assert profile.seconds("train") == pytest.approx(3.0)
        assert profile.calls("train") == 6

    def test_parallel_view_takes_the_slowest_rank(self):
        profile = routine_profile(self._two_ranks(), parallel=True)
        assert profile.seconds("train") == pytest.approx(2.0)
        assert profile.calls("train") == 6

    def test_sub_spans_belong_to_no_routine(self):
        profile = routine_profile(self._two_ranks())
        assert set(profile.totals) == {"train"}  # train.d_step not double-counted

    def test_run_without_telemetry_has_an_empty_profile(self):
        assert routine_profile(None).overall == 0

    def test_profile_rows_layout(self):
        routines = ("gather", "train", "update_genomes", "mutate")
        single = TimerSnapshot(dict(zip(routines, (1.0, 10.0, 5.0, 1.0))))
        dist = TimerSnapshot(dict(zip(routines, (1.0, 2.0, 0.5, 0.7))))
        rows = profile_rows(single, dist)
        assert [r.routine for r in rows] == [
            "gather", "train", "update genomes", "mutate", "overall",
        ]
        overall = rows[-1]
        assert overall.single_core_s == pytest.approx(17.0)
        assert overall.distributed_s == pytest.approx(4.2)

    def test_profile_row_metrics(self):
        row = ProfileRow("train", single_core_s=10.0, distributed_s=2.0)
        assert row.speedup == pytest.approx(5.0)
        assert row.acceleration == pytest.approx(0.8)
