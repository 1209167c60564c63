"""End-to-end and per-layer benchmark of the cellular GAN trainer.

Two ways in:

* ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` —
  what ``BENCHMARK.json`` names: one workload, one JSON result line.
  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the probe pass.
* ``python3 bench/run.py [--seed 42] [--repeats 5] [--out FILE]`` — every
  workload, the probe pass, the layer waterfall and the cross-workload
  digest check, written to ``bench/results/``.  ``--smoke`` shrinks it to a
  plumbing test, ``--self-check`` runs it twice and compares the two.

Every training run is a fresh child process (``child.py``) with telemetry
off and BLAS pinned to one thread; see ``README.md`` for what each metric
means and which layer is expected to move it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, Workload, build_config, socket_hosts  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}

CHILD_TIMEOUT_S = 150
#: a timed run without a second (short, full) pair has no median to speak of
MIN_PAIRS = 2
#: one extra full run per telemetry level is taken on these two only
TELEMETRY_WORKLOADS = ("train-seq", "exch-sock")


# -- running one experiment in a fresh process ------------------------------

def pin_environment() -> None:
    """What every run shares: one BLAS thread, telemetry off, the dataset
    cache inside the checkout (the default is the system temp directory)."""
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                      PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(RESULTS / "cache"))
    os.environ.pop("REPRO_TELEMETRY", None)


def run_child(workload: Workload, seed: int, iterations: int, **variant) -> dict:
    """Run ``child.py``; returns its report, or ``{"error": ...}``."""
    spec = {"workload": dataclasses.asdict(workload), "seed": seed,
            "iterations": iterations, **variant}
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {CHILD_TIMEOUT_S}s"
    finally:
        # The child leads its own session: whatever ranks or socket workers
        # a failed run left behind go with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        return {"error": (err.strip().splitlines() or ["no output"])[-1]}
    report = json.loads(out.strip().splitlines()[-1])
    report["iterations"] = iterations
    return report


def run_failure(run: dict) -> str | None:
    """Why this run counts as failed, if it does."""
    if "error" in run:
        return run["error"]
    for check in ("complete", "ok", "finite"):
        if not run[check]:
            return f"{check} is false"
    if run["iterations_run"] != run["iterations"]:
        return f"ran {run['iterations_run']} of {run['iterations']} iterations"
    if run["send_retries"] or run["ranks_lost"]:
        return f"send_retries={run['send_retries']} ranks_lost={run['ranks_lost']}"
    return None


# -- end-to-end measurement ----------------------------------------------------

def measure(workload: Workload, seed: int, *, seconds: float | None = None,
            pairs: int | None = None, warmup: int = 0) -> dict:
    """Closed loop of (short, full) run pairs, one run at a time.

    Runs ``pairs`` pairs, or as many as fit in ``seconds`` (at least
    ``MIN_PAIRS``), after ``warmup`` discarded ones.  Each pair yields one
    sample of every end-to-end metric; the short run of a sequential oracle
    is taken first, and every short digest must equal it.
    """
    failures: list[str] = []
    attempted = 0

    def checked(label: str, iterations: int, **variant) -> dict:
        nonlocal attempted
        run = run_child(workload, seed, iterations, **variant)
        attempted += 1
        reason = run_failure(run)
        if reason:
            failures.append(f"{workload.name} {label}: {reason}")
        return run

    oracle = checked("oracle", workload.n_short, backend="sequential")
    for _ in range(warmup):
        run_child(workload, seed, workload.n_short)
        run_child(workload, seed, workload.n_full)

    taken: list[tuple[dict, dict]] = []
    start = time.monotonic()
    while True:
        pair_start = time.monotonic()
        short = checked("short", workload.n_short)
        full = checked("full", workload.n_full)
        taken.append((short, full))
        now = time.monotonic()
        if pairs is not None:
            if len(taken) >= pairs:
                break
        elif len(taken) >= MIN_PAIRS and now - start + (now - pair_start) > seconds:
            break

    good = [(s, f) for s, f in taken if "error" not in s and "error" not in f]
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    span = workload.n_full - workload.n_short
    for short, full in good:
        iter_s = (full["wall_s"] - short["wall_s"]) / span
        samples["wall_s"].append(full["wall_s"])
        samples["iter_s"].append(iter_s)
        samples["setup_s"].append(short["wall_s"] - workload.n_short * iter_s)
        samples["cpu_s"].append(full["cpu_s"])
        samples["peak_rss_mb"].append(full["peak_rss_mb"])

    digests = {"oracle_short": oracle.get("digest"),
               "short": sorted({s["digest"] for s, _ in good}),
               "full": sorted({f["digest"] for _, f in good})}
    if digests["short"] != [digests["oracle_short"]]:
        failures.append(f"{workload.name}: short digest {digests['short']} differs "
                        f"from sequential oracle {digests['oracle_short']}")
    if len(digests["full"]) > 1:
        failures.append(f"{workload.name}: full digest varies between runs {digests['full']}")
    return {"samples": samples, "pairs": good, "oracle": oracle, "digests": digests,
            "attempted": attempted, "failures": failures}


# -- probe pass -----------------------------------------------------------------

def waterfall(workload: Workload, m: dict[str, float]) -> dict[str, float]:
    """A model of one iteration and of set-up, built from outside.

    Rows in seconds per iteration that sum to ``run.iter_s``; the cells
    share ``workload.lanes`` cores.  What the probes do not explain is its
    own row.
    """
    distributed = workload.backend != "sequential"
    per_lane = workload.cells / workload.lanes
    rows = {
        "train_steps_s": per_lane * workload.batches_per_iteration
        * (m["gan.d_step_s"] + m["gan.g_step_s"]),
        "fitness_tables_s": per_lane * 2 * m["coevolution.fitness_table_s"],
        "snapshot_s": per_lane * m["coevolution.snapshot_s"],
        "exchange_s": (m[f"parallel.exchange_round_max_s.{workload.backend}"]
                       if distributed else 0.0),
    }
    rows["cell_rest_s"] = (per_lane * m["coevolution.cell_step_s"]
                           - rows["train_steps_s"] - rows["fitness_tables_s"])
    rows["unattributed_s"] = m["run.iter_s"] - sum(rows.values())
    rows["unattributed_frac"] = rows["unattributed_s"] / m["run.iter_s"]
    rows["setup_data_s"] = m["data.load_cached_s"]
    rows["setup_launch_s"] = m[f"mpi.launch_s.{workload.backend}"] if distributed else 0.0
    rows["setup_unattributed_s"] = (m["run.setup_s"] - rows["setup_data_s"]
                                    - rows["setup_launch_s"])
    return {f"waterfall.{name}": value for name, value in rows.items()}


def probe(workload: Workload, seed: int, calls: int, base: dict | None = None) -> dict:
    """The traced pass: untraced pairs for the totals (``base``; one pair
    measured here unless given), then the probes.  Counts ``base``'s runs too."""
    import probes

    base = base or measure(workload, seed, pairs=1)
    failures, attempted = list(base["failures"]), base["attempted"]
    if not base["pairs"]:
        return {"metrics": {}, "attempted": attempted, "failures": failures}
    short, full = base["pairs"][-1]
    config = build_config(workload, seed, workload.n_full)
    world = workload.cells + 1
    spans = probes.layer_probes(config, calls)
    spans.update(probes.mpi_probes(config, world, socket_hosts(world), max(1, calls // 4)))

    m = {name: statistics.median(values) for name, values in spans.items()}
    m["coevolution.seq_iter_max_s"] = max(spans["coevolution.seq_iter_s"])
    m["run.iter_s"] = statistics.median(base["samples"]["iter_s"])
    m["run.setup_s"] = statistics.median(base["samples"]["setup_s"])
    span = workload.n_full - workload.n_short
    m["mpi.bytes_per_iter"] = (full["bytes_sent"] - short["bytes_sent"]) / span
    m["mpi.msgs_per_iter"] = (full["msgs_sent"] - short["msgs_sent"]) / span
    m["mpi.send_retries"] = full["send_retries"]
    m["mpi.ranks_lost"] = full["ranks_lost"]
    # What the sequential facade costs beyond its iterations and the data
    # load; the oracle is that run when the workload itself is distributed.
    sequential = short if workload.backend == "sequential" else base["oracle"]
    m["api.facade_overhead_s"] = (sequential.get("wall_s", 0.0)
                                  - workload.n_short * m["coevolution.seq_iter_s"]
                                  - m["data.load_cached_s"])
    for level in ("basic", "trace"):
        overhead = 0.0                      # 0 = not measured on this workload
        if workload.name in TELEMETRY_WORKLOADS:
            traced = run_child(workload, seed, workload.n_full, telemetry=level)
            attempted += 1
            reason = run_failure(traced)
            if reason:
                failures.append(f"{workload.name} telemetry={level}: {reason}")
            else:
                overhead = traced["wall_s"] / full["wall_s"] - 1.0
        m[f"telemetry.{level}_overhead_frac"] = overhead
    m.update(waterfall(workload, m))
    return {"metrics": m, "attempted": attempted, "failures": failures,
            "digests": base["digests"]}


# -- the driver's entry: one workload, one JSON line ----------------------------

def result_line(names: list[str], values: dict[str, float], attempted: int,
                failures: list[str]) -> str:
    return json.dumps({
        "correct": not failures and all(name in values for name in names),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": UNITS[name]}
                    for name in names if name in values},
    })


def driver_main(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        outcome = probe(workload, args.seed, calls=20)
        names, values = PER_LAYER, outcome["metrics"]
    else:
        outcome = measure(workload, args.seed, seconds=args.seconds)
        names = END_TO_END
        values = {name: statistics.median(samples)
                  for name, samples in outcome["samples"].items() if samples}
    for failure in outcome["failures"]:
        print("FAILED", failure, file=sys.stderr)
    print(result_line(names, values, outcome["attempted"], outcome["failures"]))
    return 1 if outcome["failures"] else 0


# -- the full set: every workload, probe pass, waterfall, host facts -------------

def quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def host_facts() -> dict:
    import platform

    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc, "cpu_model": cpu, "load_1min_start": load, "noisy": load > nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "socket_hosts": {w.name: socket_hosts(w.cells + 1)
                         for w in WORKLOADS.values() if w.backend == "socket"},
        "git_commit": commit,
    }


def run_set(seed: int, repeats: int, calls: int, smoke: bool) -> dict:
    """One full set; prints every metric by name as it goes."""
    report = {"host": host_facts(), "seed": seed, "repeats": repeats,
              "smoke": smoke, "workloads": {}}
    for name, workload in WORKLOADS.items():
        if smoke:
            workload = workload.smoke()
        timed = measure(workload, seed, pairs=repeats, warmup=0 if smoke else 1)
        traced = probe(workload, seed, calls, base=timed)
        failures, attempted = traced["failures"], traced["attempted"]
        entry = {
            "n_short": workload.n_short, "n_full": workload.n_full,
            "end_to_end": {}, "per_layer": {}, "derived": {},
            "digest": timed["digests"]["full"][0] if timed["digests"]["full"] else None,
            "attempted": attempted, "failures": failures,
            "fail_frac": len(failures) / attempted,
        }
        for metric in END_TO_END:
            samples = timed["samples"][metric]
            if not samples:
                continue
            q1, q3 = quartiles(samples)
            entry["end_to_end"][metric] = {
                "median": statistics.median(samples), "q1": q1, "q3": q3,
                "n": len(samples), "unit": UNITS[metric], "samples": samples}
            print(f"e2e {name} {metric} {statistics.median(samples):.6g} {UNITS[metric]} "
                  f"q1={q1:.6g} q3={q3:.6g} n={len(samples)}")
        for metric in PER_LAYER:
            if metric in traced["metrics"]:
                value = traced["metrics"][metric]
                entry["per_layer"][metric] = {"value": value, "unit": UNITS[metric]}
                print(f"layer {name} {metric} {value:.6g} {UNITS[metric]}")
        print(f"check {name} fail_frac {entry['fail_frac']:.6g} frac "
              f"attempted={attempted} digest={entry['digest']}")
        for failure in failures:
            print("FAILED", failure)
        report["workloads"][name] = entry

    # Cross-workload checks: a digest group is a sequential oracle and the
    # backends that must reproduce it bit for bit; speedup is reported, not
    # gated (a faster kernel would "worsen" it while slowing nothing).
    for name, entry in report["workloads"].items():
        workload = WORKLOADS[name]
        oracle = report["workloads"][workload.oracle]
        if entry["digest"] != oracle["digest"]:
            entry["failures"].append(
                f"{name}: digest {entry['digest']} differs from {workload.oracle}")
            entry["fail_frac"] = len(entry["failures"]) / entry["attempted"]
            print("FAILED", entry["failures"][-1])
        if "wall_s" in entry["end_to_end"] and "wall_s" in oracle["end_to_end"]:
            speedup = (oracle["end_to_end"]["wall_s"]["median"]
                       / entry["end_to_end"]["wall_s"]["median"])
            efficiency = speedup / workload.lanes
            entry["derived"] = {"speedup_vs_seq": speedup, "parallel_efficiency": efficiency}
            print(f"derived {name} speedup_vs_seq {speedup:.4g} x "
                  f"(base {workload.oracle} wall_s) parallel_efficiency {efficiency:.4g}")
    report["host"]["load_1min_end"] = os.getloadavg()[0]
    return report


def write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path}")


def failed_runs(report: dict) -> int:
    return sum(len(entry["failures"]) for entry in report["workloads"].values())


def full_main(args) -> int:
    import compare

    calls = 1 if args.smoke else 20
    repeats = 1 if args.smoke else args.repeats
    first = run_set(args.seed, repeats, calls, args.smoke)
    commit = first["host"]["git_commit"][:8]
    out = Path(args.out) if args.out else RESULTS / f"bench-{commit}-seed{args.seed}.json"
    write_report(first, out)
    status = 1 if failed_runs(first) else 0
    if args.self_check:
        second = run_set(args.seed, repeats, calls, args.smoke)
        write_report(second, out.with_suffix(".second.json"))
        rows = compare.compare(first, second)
        compare.print_rows(rows)
        for row in rows:
            if row["metric"] != "setup_s" and abs(row["ratio"] - 1.0) >= 0.10:
                print(f"NOTE {row['workload']} {row['metric']}: medians of the two sets "
                      f"differ by {abs(row['ratio'] - 1.0):.0%}")
        if failed_runs(second) or any(row["verdict"] == "regressed" for row in rows):
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"nothing to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    pin_environment()
    return driver_main(args) if args.workload else full_main(args)


if __name__ == "__main__":
    sys.exit(main())
