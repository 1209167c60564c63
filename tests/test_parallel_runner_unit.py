"""Unit tests for the DistributedRunner's reduction phase and validation."""

import numpy as np
import pytest

from repro.coevolution.genome import Genome
from repro.parallel.master import MasterOutcome
from repro.parallel.messages import SlaveResult
from repro.parallel.runner import DistributedRunner
from repro.telemetry import SpanEvent, TelemetrySnapshot, mark_timeline, routine_profile
from tests.conftest import make_quick_config


def make_result(cell_index, rank, value=1.0, telemetry=None):
    genome = Genome(np.full(6, value), 1e-3, "bce")
    return SlaveResult(
        rank=rank,
        cell_index=cell_index,
        generator_genome=genome,
        discriminator_genome=genome.copy(),
        mixture_weights=np.full(5, 0.2),
        telemetry=telemetry,
    )


def make_outcome(results, dead=()):
    return MasterOutcome(
        results=results,
        dead_ranks=list(dead),
        node_info=[],
        placement={0: "node00"},
        wall_time_s=1.0,
    )


@pytest.fixture()
def runner():
    return DistributedRunner(make_quick_config(2, 2, iterations=1),
                             backend="threaded")


class TestReduction:
    def test_complete_outcome(self, runner):
        results = {i: make_result(i, i + 1, value=float(i)) for i in range(4)}
        reduced = runner._reduce(make_outcome(results), wall_time_s=2.0)
        assert reduced.complete
        assert reduced.training.wall_time_s == 2.0
        for cell in range(4):
            g, _ = reduced.training.center_genomes[cell]
            assert g.parameters[0] == float(cell)

    def test_dead_slave_leaves_hole_filled_with_survivor(self, runner):
        results = {i: make_result(i, i + 1, value=float(i)) for i in (0, 2, 3)}
        reduced = runner._reduce(make_outcome(results, dead=[2]), wall_time_s=1.0)
        assert not reduced.complete
        assert reduced.dead_ranks == [2]
        # The hole (cell 1) is filled with the first available genome so the
        # result stays rectangular.
        g_hole, _ = reduced.training.center_genomes[1]
        assert g_hole.parameters[0] == 0.0

    def test_no_results_raises(self, runner):
        with pytest.raises(RuntimeError, match="nothing to reduce"):
            runner._reduce(make_outcome({}), wall_time_s=1.0)

    def test_profile_views_read_the_in_band_slave_telemetry(self, runner):
        results = {
            i: make_result(i, i + 1, telemetry=TelemetrySnapshot(
                rank=i + 1, span_totals={"cell.train": float(i + 1)},
                span_counts={"cell.train": 1}))
            for i in range(4)}
        reduced = runner._reduce(make_outcome(results), wall_time_s=1.0)
        assert reduced.telemetry.ranks == [1, 2, 3, 4]
        # parallel view = max over ranks; total-work view = sum
        wall = routine_profile(reduced.telemetry, parallel=True)
        work = routine_profile(reduced.telemetry, parallel=False)
        assert wall.seconds("train") == pytest.approx(4.0)
        assert work.seconds("train") == pytest.approx(10.0)
        assert wall.calls("train") == work.calls("train") == 4

    def test_mark_lanes_include_master_and_slaves(self, runner):
        def marked(rank, name):
            return TelemetrySnapshot(rank=rank, events=[
                SpanEvent(name, 0.0, 0.0, "t", instant=True)])

        results = {0: make_result(0, 1, telemetry=marked(1, "start training"))}
        reduced = runner._reduce(make_outcome(results), wall_time_s=1.0,
                                 rank_telemetry=[marked(0, "run tasks sent")])
        actors = {actor for _at, actor, _event in mark_timeline(reduced.telemetry)}
        assert actors == {"master", "slave-1"}


class TestValidation:
    def test_sequential_backend_rejected(self):
        with pytest.raises(ValueError, match="SequentialTrainer"):
            DistributedRunner(make_quick_config(), backend="sequential")

    def test_backend_defaults_to_config(self):
        import dataclasses

        config = make_quick_config()
        execution = dataclasses.replace(config.execution, backend="threaded")
        config = dataclasses.replace(config, execution=execution)
        assert DistributedRunner(config).backend == "threaded"
