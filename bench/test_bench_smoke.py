"""Tier-1 smoke test of the benchmark: ``run.py --smoke`` runs every workload
and the probe pass at toy size, and what it prints is what ``BENCHMARK.json``
declares — no more, no less, each with a unit and a finite value."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_prints_exactly_the_declared_metrics(tmp_path):
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in contract[key]}
                for kind, key in (("e2e", "end_to_end"), ("layer", "per_layer"))}
    workloads = {w["name"] for w in contract["workloads"]}

    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(tmp_path / "smoke.json")],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

    printed: dict[tuple[str, str], set[str]] = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] in declared:
            kind, workload, metric, value, unit = fields[:5]
            assert NAME.fullmatch(workload) and NAME.fullmatch(metric), line
            assert unit == declared[kind].get(metric), line
            assert math.isfinite(float(value)), line
            printed.setdefault((kind, workload), set()).add(metric)
    assert {workload for _, workload in printed} == workloads
    for (kind, workload), metrics in printed.items():
        assert metrics == set(declared[kind]), (kind, workload)

    report = json.loads((tmp_path / "smoke.json").read_text())
    assert all(entry["fail_frac"] == 0 for entry in report["workloads"].values())
