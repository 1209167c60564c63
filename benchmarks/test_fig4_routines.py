"""Bench: regenerate Fig. 4 (bar chart of the Table IV routine times)."""

import pytest
from repro.experiments import fig4

from benchmarks.conftest import save_artifact, skip_ratios_below_cores

# Multi-minute full-training run: excluded from the fast CI lane.
pytestmark = pytest.mark.slow


def test_fig4_series(benchmark, table4_rows, results_dir):
    data = benchmark.pedantic(lambda: fig4.run(rows=table4_rows),
                              rounds=1, iterations=1)
    assert data["routines"] == ["gather", "train", "update genomes", "mutate"]
    assert len(data["single_core"]) == len(data["distributed"]) == 4
    save_artifact(results_dir, "fig4.txt", fig4.format_figure(data))
    skip_ratios_below_cores(17)  # Table IV's 4x4 grid plus the master
    # The figure's visual message: the train bar shrinks dramatically,
    # the gather bar does not.
    train_idx = data["routines"].index("train")
    gather_idx = data["routines"].index("gather")
    train_ratio = data["distributed"][train_idx] / data["single_core"][train_idx]
    gather_ratio = (data["distributed"][gather_idx]
                    / max(data["single_core"][gather_idx], 1e-9))
    assert train_ratio < 0.5
    assert gather_ratio > train_ratio
