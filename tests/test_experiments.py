"""Tests for the experiment regenerators (fast paths only; the timing
experiments themselves run under benchmarks/)."""

import pytest

from repro.experiments import fig1, fig2, fig4, table1, table2
from repro.experiments.workloads import PAPER_GRIDS, bench_config, quick_config
from repro.telemetry import ProfileRow


class TestWorkloads:
    def test_paper_grids(self):
        assert PAPER_GRIDS == ((2, 2), (3, 3), (4, 4))

    def test_bench_config_structure(self):
        config = bench_config(3, 3)
        assert config.coevolution.grid_size == (3, 3)
        assert config.training.batch_size == 100  # Table I value preserved
        assert config.network.hidden_neurons == 256

    def test_quick_config_is_fast_scale(self):
        config = quick_config()
        assert config.dataset_size <= 1000
        assert config.coevolution.iterations <= 4

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ITERATIONS", "7")
        assert bench_config(2, 2).coevolution.iterations == 7

    def test_env_override_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ITERATIONS", "0")
        with pytest.raises(ValueError):
            bench_config(2, 2)


class TestTable1:
    def test_all_paper_values_match(self):
        result = table1.run()
        assert result["all_match"], result["matches_paper"]

    def test_format_contains_sections(self):
        result = table1.run()
        for section in ("Network topology", "Coevolutionary settings",
                        "Hyperparameter mutation", "Training settings",
                        "Execution settings"):
            assert section in result["table"]


class TestTable2:
    def test_cores_match_paper(self):
        rows = table2.run()
        assert all(row.cores_match for row in rows)

    def test_memory_close_to_paper(self):
        rows = table2.run()
        for row in rows:
            assert abs(row.memory_mb - row.paper_memory_mb) <= 1024

    def test_placement_on_busy_cluster(self):
        rows = table2.run(busy_fraction=0.5)
        assert len(rows) == 3

    def test_format(self):
        text = table2.format_table(table2.run())
        assert "TABLE II" in text and "4x4" in text


class TestFig1:
    def test_paper_examples(self):
        data = fig1.run()
        assert data["example_interior"] == [(1, 1), (1, 0), (0, 1), (1, 2), (2, 1)]
        assert data["example_wrapping"] == [(1, 3), (1, 2), (0, 3), (1, 0), (2, 3)]

    def test_every_cell_has_neighborhood(self):
        data = fig1.run()
        assert len(data["neighborhoods"]) == 16

    def test_render(self):
        text = fig1.format_figure(fig1.run())
        assert "[C]" in text and "[N]" in text


class TestFig2:
    def test_static_walk(self):
        data = fig2.run(dynamic=False)
        assert data["walk"] == ["inactive", "processing", "finished"]
        assert len(data["transitions"]) == 2
        assert len(data["rejected"]) == 7

    def test_format(self):
        text = fig2.format_figure(fig2.run(dynamic=False))
        assert "inactive" in text and "processing" in text and "finished" in text


class TestFig4:
    def test_series_from_precomputed_rows(self):
        rows = [
            ProfileRow("gather", 1.0, 1.0),
            ProfileRow("train", 10.0, 2.0),
            ProfileRow("update genomes", 5.0, 0.4),
            ProfileRow("mutate", 1.0, 0.6),
            ProfileRow("overall", 17.0, 4.0),
        ]
        data = fig4.run(rows=rows)
        assert data["routines"] == ["gather", "train", "update genomes", "mutate"]
        assert data["single_core"] == [1.0, 10.0, 5.0, 1.0]
        assert data["distributed"] == [1.0, 2.0, 0.4, 0.6]

    def test_ascii_rendering(self):
        rows = [
            ProfileRow("gather", 1.0, 1.0),
            ProfileRow("train", 10.0, 2.0),
            ProfileRow("update genomes", 5.0, 0.4),
            ProfileRow("mutate", 1.0, 0.6),
        ]
        text = fig4.format_figure(fig4.run(rows=rows))
        assert "train" in text and "#" in text
