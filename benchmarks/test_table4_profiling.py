"""Bench: regenerate Table IV (profiling of the dominant routines, 4x4).

Shape assertions from the paper:
  * ``train`` dominates the single-core budget;
  * ``train`` and ``update genomes`` parallelize well (speedup well above 1);
  * ``gather`` does **not** parallelize (the same neighbor exchange happens
    either way) — its speedup stays near or below 1;
  * compute routines speed up far more than ``gather``.
"""

import json

import pytest
from repro.experiments import table4

from benchmarks.conftest import save_artifact, skip_ratios_below_cores

# Multi-minute full-training run: excluded from the fast CI lane.
pytestmark = pytest.mark.slow


def _row(rows, name):
    return next(r for r in rows if r.routine == name)


def _rows_payload(rows) -> str:
    """Machine-readable Table IV (tracked across PRs as BENCH_table4.json)."""
    payload = {
        "paper_minutes": table4.PAPER_VALUES,
        "rows": [
            {
                "routine": r.routine,
                "single_core_s": r.single_core_s,
                "distributed_s": r.distributed_s,
                "acceleration": r.acceleration,
                "speedup": r.speedup,
            }
            for r in rows
        ],
    }
    return json.dumps(payload, indent=2)


def test_table4_profiling(benchmark, table4_rows, results_dir):
    rows = benchmark.pedantic(lambda: table4_rows, rounds=1, iterations=1)
    save_artifact(results_dir, "table4.txt", table4.format_table(rows))
    save_artifact(results_dir, "BENCH_table4.json", _rows_payload(rows))

    gather = _row(rows, "gather")
    train = _row(rows, "train")
    update = _row(rows, "update genomes")
    overall = _row(rows, "overall")

    # train dominates single-core work (paper: 264.9 of 509.6 minutes).
    single_total = overall.single_core_s
    assert train.single_core_s > 0.4 * single_total

    skip_ratios_below_cores(17)  # the 4x4 grid plus the master
    # Compute routines parallelize...
    assert train.speedup > 2.0
    assert update.speedup > 2.0
    # ...communication does not (paper: exactly 1.00).
    assert gather.speedup < 2.0
    assert train.speedup > 1.5 * gather.speedup

    # Overall: the distributed version wins.
    assert overall.speedup > 1.0


def test_table4_acceleration_definition(benchmark, table4_rows):
    """The paper's 'acceleration' column is the relative time reduction."""
    def accelerations():
        return {r.routine: r.acceleration for r in table4_rows}

    acc = benchmark.pedantic(accelerations, rounds=1, iterations=1)
    for row in table4_rows:
        if row.single_core_s > 0:
            expected = 1.0 - row.distributed_s / row.single_core_s
            assert acc[row.routine] == max(0.0, expected)
