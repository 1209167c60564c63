"""Bench: the train step per dtype policy, and what telemetry costs it.

Table IV row 2 ("train") dominates the single-core budget; every network
runs it on the kernels of :mod:`repro.nn.kernels` (the before/after arms
against the autograd tape were retired with the tape path itself — the
PR 5 numbers are in CHANGES.md).  Two measurements remain:

* **train_step_dtype** — one full train step at Table I size (a
  discriminator update plus a generator update through
  ``GANPair.train_*_step``) per dtype policy
  (``float64``/``float32``/``mixed16``), same seeds and RNG streams per
  arm; the per-dtype rows record seconds-per-call and the speedup over
  the float64 reference arm.
* **telemetry** — the same train step under the ``repro.telemetry`` bus at
  off/basic/trace levels.  The off level is the shipping default and CI
  (``REPRO_BENCH_ASSERT_TELEMETRY=1``) asserts it stays within 2% of the
  untraced baseline arm.

Measurements interleave their arms round-robin (this guards against drift
on noisy shared machines) and keep the fastest round per arm.  Results land
in ``benchmarks/results/BENCH_train_step.json``; an aggregated
``BENCH_summary.json`` merges every ``BENCH_*.json`` artifact into one
machine-readable file (a CI artifact; git ignores it).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import time

import numpy as np
import pytest

from repro.config import NetworkSettings
from repro.gan.networks import Discriminator, Generator
from repro.gan.pair import GANPair
from repro.nn import loss_by_name
from repro.telemetry import bus

from benchmarks.conftest import RESULTS_DIR, save_artifact

# Full-size timing run: the fast CI lane instead runs this module directly
# with REPRO_BENCH_TINY=1 as a seconds-scale machinery smoke.
pytestmark = pytest.mark.slow

_TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
_SETTINGS = (NetworkSettings(latent_size=8, hidden_layers=2, hidden_neurons=16,
                             output_neurons=36)
             if _TINY else NetworkSettings())
_BATCH = 10 if _TINY else 100          # Table I batch size
_ROUNDS = 3 if _TINY else 6
_REPS = 3 if _TINY else 20


def _build_pair(settings: NetworkSettings, seed: int = 0) -> GANPair:
    rng = np.random.default_rng(seed)
    return GANPair(Generator(settings, rng), Discriminator(settings, rng),
                   loss_by_name("bce"), "adam", 2e-4)


@contextlib.contextmanager
def _bus_scope():
    """Use the telemetry bus in a bench; leave it off, empty and with the
    caller's ``REPRO_TELEMETRY`` (``set_level`` mirrors into the env)."""
    prior_env = os.environ.get("REPRO_TELEMETRY")
    try:
        yield
    finally:
        bus.set_level("off")
        bus.reset()
        if prior_env is None:
            os.environ.pop("REPRO_TELEMETRY", None)
        else:
            os.environ["REPRO_TELEMETRY"] = prior_env


def _bench_dtypes(settings: NetworkSettings, batch: int) -> dict:
    """The train step per dtype policy; float64 is the reference arm.

    One identically-seeded pair + RNG per arm (the arms differ *only* in
    dtype), the real batch stays float64 like the dataset pipeline, and
    arms alternate slot order round to round so frequency ramps cancel.
    """
    policies = ("float64", "float32", "mixed16")
    real = np.random.default_rng(7).standard_normal((batch, settings.output_neurons))
    arms = {name: (_build_pair(dataclasses.replace(settings, dtype=name)),
                   np.random.default_rng(42))
            for name in policies}

    def step(name: str) -> None:
        pair, rng = arms[name]
        pair.train_discriminator_step(real, rng)
        pair.train_generator_step(batch, rng)

    for name in policies:
        step(name)  # warm caches, per-dtype workspaces, BLAS buffers
    best = {name: float("inf") for name in policies}
    for r in range(_ROUNDS):
        order = policies if r % 2 == 0 else tuple(reversed(policies))
        for name in order:
            start = time.perf_counter()
            for _ in range(_REPS):
                step(name)
            best[name] = min(best[name], (time.perf_counter() - start) / _REPS)
    return {name: {
        "s_per_call": best[name],
        "speedup_vs_float64": best["float64"] / best[name],
    } for name in policies}


def _bench_telemetry(settings: NetworkSettings | None = None,
                     batch: int = 100) -> dict:
    """Telemetry cost on the train step, per bus level.

    Always measured at Table I size, even in the tiny CI lane: the paper's
    step is BLAS-bound there (~20ms/call), so the bus's fixed per-span cost
    is diluted the way production runs see it, and the 2% CI ratchet sits
    far above the measurement noise of a 5-rep window.  (At the tiny bench
    size the step is ~0.25ms and the guard checks alone are ~1%, under a
    noise floor of several percent — a hard gate there would only measure
    the machine.)

    Four arms measured round-robin: ``baseline`` and ``off`` both run with
    the bus disabled — separating measurement noise from real overhead —
    while ``basic`` and ``trace`` pay the recording cost.  Per-call times
    report the fastest round (like every bench here), but the overhead
    percentages are the *median of per-round ratios* against the baseline
    arm of the same round: arms interleave within a round, so slow drift
    (thermal, frequency scaling, a neighbour process) cancels out of the
    ratio instead of biasing an extreme statistic.  CI's 2% ratchet on the
    off level reads that median.
    """
    settings = settings or NetworkSettings()
    real = np.random.default_rng(7).standard_normal((batch, settings.output_neurons))
    arms = (("baseline", "off"), ("off", "off"),
            ("basic", "basic"), ("trace", "trace"))
    # One identically-seeded pair/rng per arm: every arm then performs the
    # exact same numeric sequence, so within-round position can't leak
    # state drift (evolving weights, rng phase) into the comparison.
    pairs = {arm: (_build_pair(settings), np.random.default_rng(42))
             for arm, _level in arms}

    def step(arm: str) -> None:
        pair, rng = pairs[arm]
        pair.train_discriminator_step(real, rng)
        pair.train_generator_step(batch, rng)

    for arm, _level in arms:
        step(arm)  # warm caches, workspaces, BLAS buffers
    times: dict[str, list[float]] = {arm: [] for arm, _level in arms}
    rounds, reps = 12, 10  # ~220ms per timed window at Table I size
    with _bus_scope():
        for r in range(rounds):
            # The ratchet pair alternates slots round to round (and the
            # recording pair likewise), so slot-in-round effects — GC debt
            # from the event-allocating arms, frequency ramps — cancel
            # exactly out of the per-round ratios instead of biasing them.
            ratchet = arms[:2] if r % 2 == 0 else arms[1::-1]
            recording = arms[2:] if r % 4 < 2 else arms[:1:-1]
            for arm, level in (*ratchet, *recording):
                bus.set_level(level)
                gc.collect()  # each arm starts with a clean heap
                start = time.perf_counter()
                for _ in range(reps):
                    step(arm)
                times[arm].append((time.perf_counter() - start) / reps)
                bus.reset()  # drop the recorded spans between rounds

    def overhead_pct(arm: str) -> float:
        ratios = sorted(t / b for t, b in zip(times[arm], times["baseline"]))
        return (ratios[len(ratios) // 2] - 1.0) * 100

    return {
        "baseline_s_per_call": min(times["baseline"]),
        "off_s_per_call": min(times["off"]),
        "basic_s_per_call": min(times["basic"]),
        "trace_s_per_call": min(times["trace"]),
        "off_overhead_pct": overhead_pct("off"),
        "basic_overhead_pct": overhead_pct("basic"),
        "trace_overhead_pct": overhead_pct("trace"),
    }


def test_train_step_bench(results_dir):
    benches = {
        "train_step_dtype": _bench_dtypes(_SETTINGS, _BATCH),
        "telemetry": _bench_telemetry(),
    }
    payload = {
        "network": {
            "latent_size": _SETTINGS.latent_size,
            "hidden_layers": _SETTINGS.hidden_layers,
            "hidden_neurons": _SETTINGS.hidden_neurons,
            "output_neurons": _SETTINGS.output_neurons,
        },
        "batch_size": _BATCH,
        "tiny": _TINY,
        "rounds": _ROUNDS,
        "reps": _REPS,
        "benches": benches,
    }
    save_artifact(results_dir, "BENCH_train_step.json",
                  json.dumps(payload, indent=2))
    write_summary(results_dir)

    # Machinery assertions only (thresholds are read off the artifact).
    assert benches["telemetry"]["off_s_per_call"] > 0
    for name, row in benches["train_step_dtype"].items():
        assert row["s_per_call"] > 0, name
        assert np.isfinite(row["speedup_vs_float64"]), name

    # CI's telemetry-off ratchet: with REPRO_BENCH_ASSERT_TELEMETRY=1 the
    # disabled bus must cost at most 2% over the interleaved untraced
    # baseline arm.  Two estimators of the same overhead are checked — the
    # floor ratio (fastest round each) and the median of per-round ratios —
    # and the gate trips only when BOTH exceed 2%: a real off-path
    # regression inflates both, while scheduler noise on a shared runner
    # rarely pushes the two the same way at once.  A tripped measurement
    # is retaken up to twice before failing: a burst of interference is
    # independent across retakes, a regression is not.
    if os.environ.get("REPRO_BENCH_ASSERT_TELEMETRY"):

        def off_overheads(bench: dict) -> tuple[float, float]:
            floor = (bench["off_s_per_call"]
                     / bench["baseline_s_per_call"] - 1.0) * 100
            return floor, bench["off_overhead_pct"]

        floor_pct, median_pct = off_overheads(benches["telemetry"])
        for _retake in range(2):
            if min(floor_pct, median_pct) <= 2.0:
                break
            floor_pct, median_pct = off_overheads(_bench_telemetry())
        assert min(floor_pct, median_pct) <= 2.0, (
            f"telemetry-off train step exceeds the 2% ratchet over the "
            f"untraced baseline arm on both estimators, three times "
            f"(last: floor {floor_pct:+.2f}%, median {median_pct:+.2f}%)")


def write_summary(results_dir) -> dict:
    """Merge every BENCH_*.json into one machine-readable summary."""
    summary = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.name == "BENCH_summary.json":
            continue
        try:
            summary[path.stem.removeprefix("BENCH_")] = json.loads(path.read_text())
        except (ValueError, OSError):
            summary[path.stem.removeprefix("BENCH_")] = {"error": "unreadable"}
    (results_dir / "BENCH_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    return summary


def test_summary_aggregates_all_artifacts(results_dir):
    summary = write_summary(results_dir)
    assert "train_step" in summary
    on_disk = json.loads((results_dir / "BENCH_summary.json").read_text())
    expected = {p.stem.removeprefix("BENCH_")
                for p in results_dir.glob("BENCH_*.json")} - {"summary"}
    assert set(on_disk) == expected


if __name__ == "__main__":  # pragma: no cover - manual convenience
    RESULTS_DIR.mkdir(exist_ok=True)
    test_train_step_bench(RESULTS_DIR)
