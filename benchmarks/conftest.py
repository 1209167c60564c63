"""Benchmark-harness fixtures.

Every benchmark regenerates one table or figure of the paper; measured
artifacts are printed and saved under ``benchmarks/results/`` so
EXPERIMENTS.md can quote them.  BLAS is pinned to one thread (one rank = one
core, the paper's Table II execution model) before any measurement.
"""

import os
import pathlib

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from repro.runtime import pin_blas_threads

pin_blas_threads(1)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def artifact_store(results_dir):
    """Shared dict where benches deposit rows for cross-bench reuse."""
    return {}


def save_artifact(results_dir: pathlib.Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
    print(f"\n{text}\n[saved to benchmarks/results/{name}]")


def skip_ratios_below_cores(ranks: int) -> None:
    """Skip the wall-clock *ratio* assertions of a bench (its table is
    already written) on a host with fewer cores than the ranks it launched:
    oversubscribed ranks time-slice, so "distributed beats sequential" is a
    property of the scheduler there, not of the code.  ``bench/`` reports
    the same ratio, unasserted, as ``speedup_vs_seq``."""
    cores = os.cpu_count() or 1
    if cores < ranks:
        pytest.skip(f"speedup shape needs one core per rank ({ranks}); "
                    f"this host has {cores}")


@pytest.fixture(scope="session")
def table4_rows(artifact_store):
    """Run the Table IV profiling measurement once; Fig. 4 reuses it."""
    from repro.experiments import table4

    if "table4_rows" not in artifact_store:
        artifact_store["table4_rows"] = table4.run()
    return artifact_store["table4_rows"]
