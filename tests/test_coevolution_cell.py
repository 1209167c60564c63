"""Tests for the per-cell training step and the sequential trainer."""

import numpy as np
import pytest

from repro.coevolution.cell import Cell, NEIGHBORHOOD_SIZE
from repro.coevolution.checkpoint import CellSnapshot
from repro.coevolution.sequential import SequentialTrainer
from tests.conftest import eagerly_initialize, make_quick_config


@pytest.fixture()
def cell(small_dataset):
    return Cell(make_quick_config(), 0, small_dataset)


def neighbor_genomes_for(cell, count=4):
    """Fabricate neighbor genomes by perturbing the cell's own center."""
    out = []
    for i in range(count):
        g, d = cell.center_genomes()
        g = g.copy()
        g.parameters += 0.01 * (i + 1)
        out.append((g, d.copy()))
    return out


class TestCellBasics:
    def test_initial_state(self, cell):
        assert cell.iteration == 0
        assert cell.loss_name == "bce"
        assert len(cell.subpopulation_generators()) == NEIGHBORHOOD_SIZE
        np.testing.assert_allclose(cell.mixture.weights, np.full(5, 0.2))

    def test_center_genomes_snapshot(self, cell):
        g, d = cell.center_genomes()
        g.parameters[:] = 0
        g2, _ = cell.center_genomes()
        assert np.any(g2.parameters != 0)  # snapshot was a copy

    def test_mustangs_assigns_loss_from_pool(self, small_dataset):
        import dataclasses

        config = make_quick_config()
        training = dataclasses.replace(config.training, loss_function="mustangs")
        config = dataclasses.replace(config, training=training)
        names = {Cell(config, i, small_dataset).loss_name for i in range(12)}
        assert names <= {"bce", "mse", "heuristic"}
        assert len(names) >= 2  # twelve draws almost surely hit 2+ losses

    def test_rng_streams_are_per_cell(self, small_dataset):
        a = Cell(make_quick_config(), 0, small_dataset)
        b = Cell(make_quick_config(), 1, small_dataset)
        ga, _ = a.center_genomes()
        gb, _ = b.center_genomes()
        assert np.abs(ga.parameters - gb.parameters).max() > 0


class TestCellStep:
    def test_step_advances_and_reports(self, cell):
        report = cell.step(neighbor_genomes_for(cell))
        assert cell.iteration == 1
        assert report.iteration == 1
        assert np.isfinite(report.best_generator_fitness)
        assert np.isfinite(report.best_discriminator_fitness)
        assert 0 <= report.selected_generator < 5
        assert 0 <= report.selected_discriminator < 5
        assert report.learning_rate > 0
        assert report.mixture_weights.sum() == pytest.approx(1.0)

    def test_step_changes_center(self, cell):
        before, _ = cell.center_genomes()
        cell.step(neighbor_genomes_for(cell))
        after, _ = cell.center_genomes()
        assert np.abs(before.parameters - after.parameters).max() > 0

    def test_step_with_fewer_neighbors_tolerated(self, cell):
        report = cell.step(neighbor_genomes_for(cell, count=2))
        assert report.iteration == 1

    def test_step_with_excess_neighbors_ignores_extras(self, cell):
        report = cell.step(neighbor_genomes_for(cell, count=7))
        assert report.iteration == 1

    def test_determinism(self, small_dataset):
        def run():
            c = Cell(make_quick_config(), 0, small_dataset)
            for _ in range(2):
                c.step(neighbor_genomes_for(c))
            return c.center_genomes()[0].parameters

        np.testing.assert_array_equal(run(), run())

    def test_each_routine_span_is_counted_once_per_step(self, cell, telemetry_bus):
        telemetry_bus.set_level("basic")
        cell.step(neighbor_genomes_for(cell))
        snap = telemetry_bus.snapshot()
        for span in ("cell.update_genomes", "cell.train", "cell.mutate"):
            assert snap.span_counts[span] == 1, span
            assert snap.span_seconds(span) > 0, span

    def test_reports_accumulate(self, cell):
        cell.step(neighbor_genomes_for(cell))
        cell.step(neighbor_genomes_for(cell))
        assert len(cell.reports) == 2

    def test_sample_from_mixture(self, cell):
        samples = cell.sample_from_mixture(6)
        assert samples.shape == (6, 784)
        assert samples.min() >= -1 and samples.max() <= 1


def cell_state(cell) -> list[bytes]:
    """Everything a cell's next computation depends on, as bytes."""
    from repro.nn import arena_of

    networks = [cell.center.generator, cell.center.discriminator,
                *cell._sub_generators, *cell._sub_discriminators]
    return [arena_of(network).data.tobytes() for network in networks] + [
        cell.mixture.weights.tobytes(),
        np.asarray(cell._sub_lr).tobytes(),
        repr(cell.rng.bit_generator.state).encode(),
    ]


class TestLazySubpopulations:
    """A cell allocates its sub-population without drawing the initial
    weights; whenever and whether the draw happens, the cell must equal
    the eagerly initialised reference byte for byte."""

    @pytest.fixture()
    def pair(self, small_dataset):
        lazy = Cell(make_quick_config(), 0, small_dataset)
        eager = eagerly_initialize(Cell(make_quick_config(), 0, small_dataset))
        return lazy, eager

    @pytest.fixture()
    def neighbors(self, small_dataset):
        return [Cell(make_quick_config(), index, small_dataset).center_genomes()
                for index in range(1, 8)]

    @pytest.mark.parametrize("count", [4, 2, 0, 7])
    def test_step_matches_eager(self, pair, neighbors, count):
        lazy, eager = pair
        for _ in range(2):
            lazy_report = lazy.step(neighbors[:count])
            eager_report = eager.step(neighbors[:count])
            assert repr(lazy_report) == repr(eager_report)
            assert cell_state(lazy) == cell_state(eager)

    def test_full_neighborhood_skips_the_draw(self, pair, neighbors, monkeypatch):
        """Four neighbours overwrite every slot: no initial weight is drawn."""
        from repro.gan import networks

        def forbidden(net, rng):
            raise AssertionError("initial weights drawn for a covered slot")

        lazy, _ = pair
        monkeypatch.setattr(networks, "_draw_initial_weights", forbidden)
        lazy.step(neighbors[:4])
        lazy.sample_from_mixture(3)

    def test_sample_before_any_step_matches_eager(self, pair):
        lazy, eager = pair
        np.testing.assert_array_equal(lazy.sample_from_mixture(6),
                                      eager.sample_from_mixture(6))
        assert cell_state(lazy) == cell_state(eager)

    def test_subpopulation_generators_before_any_step_match_eager(self, pair):
        from repro.nn import arena_of

        lazy, eager = pair
        for ours, theirs in zip(lazy.subpopulation_generators(),
                                eager.subpopulation_generators()):
            np.testing.assert_array_equal(arena_of(ours).data,
                                          arena_of(theirs).data)

    def test_restore_then_step_matches_eager(self, pair, neighbors):
        lazy, eager = pair
        g, d = neighbors[6]
        for cell in (lazy, eager):
            cell.restore(CellSnapshot(0, 3, g, d, np.full(5, 0.2)))
        lazy.step(neighbors[:2])
        eager.step(neighbors[:2])
        assert cell_state(lazy) == cell_state(eager)


class TestSequentialTrainer:
    def test_runs_all_cells(self, small_dataset):
        config = make_quick_config(2, 2, iterations=2)
        result = SequentialTrainer(config, small_dataset).run()
        assert len(result.center_genomes) == 4
        assert len(result.cell_reports) == 4
        assert all(len(reports) == 2 for reports in result.cell_reports)
        assert result.wall_time_s > 0

    def test_3x3_grid(self, small_dataset):
        config = make_quick_config(3, 3, iterations=1)
        result = SequentialTrainer(config, small_dataset).run()
        assert len(result.center_genomes) == 9

    def test_iterations_override(self, small_dataset):
        config = make_quick_config(2, 2, iterations=5)
        result = SequentialTrainer(config, small_dataset).run(iterations=1)
        assert all(len(reports) == 1 for reports in result.cell_reports)

    def test_determinism_across_runs(self, small_dataset):
        config = make_quick_config(2, 2, iterations=2)
        a = SequentialTrainer(config, small_dataset).run()
        b = SequentialTrainer(config, small_dataset).run()
        for (ga, _), (gb, _) in zip(a.center_genomes, b.center_genomes):
            np.testing.assert_array_equal(ga.parameters, gb.parameters)

    def test_cells_differentiate(self, small_dataset):
        """Different cells evolve different genomes (diversity preserved)."""
        config = make_quick_config(2, 2, iterations=2)
        result = SequentialTrainer(config, small_dataset).run()
        g0 = result.center_genomes[0][0].parameters
        g3 = result.center_genomes[3][0].parameters
        assert np.abs(g0 - g3).max() > 0

    def test_best_cell_index(self, small_dataset):
        config = make_quick_config(2, 2, iterations=1)
        result = SequentialTrainer(config, small_dataset).run()
        best = result.best_cell_index()
        assert 0 <= best < 4
        finals = [r[-1].best_generator_fitness for r in result.cell_reports]
        assert finals[best] == min(finals)

    def test_training_reduces_generator_fitness_over_time(self, small_dataset):
        """Across enough iterations the best generator fitness improves
        (the arms race makes monotonicity impossible, so compare phases)."""
        config = make_quick_config(2, 2, iterations=6, batches=2)
        result = SequentialTrainer(config, small_dataset).run()
        for reports in result.cell_reports:
            early = np.mean([r.best_generator_fitness for r in reports[:2]])
            late = np.mean([r.best_generator_fitness for r in reports[-2:]])
            # Generator loss should not explode; usually it shrinks.
            assert late < early + 0.5
