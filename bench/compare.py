"""Compare two full-set outputs of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians and quartiles,
the ratio B/A (base: A), the metric's bound from ``BENCHMARK.json`` and a
verdict:

* ``unresolved`` — A's own inter-quartile spread exceeds the bound, so the
  runs cannot tell a regression of that size from noise;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better by more than A's inter-quartile spread;
* ``unchanged`` — anything else.

``fail_frac`` regresses on any increase.  A digest that differs between A
and B is reported (a "pure refactor" moved float64 bits) but is not a
verdict.  Exit code 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    spread = (a["q3"] - a["q1"]) / a["median"]
    if spread > bound:
        return "unresolved"
    worse = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    return "improved" if -worse > spread else "unchanged"


def constant(value: float) -> dict:
    return {"median": value, "q1": value, "q3": value}


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in CONTRACT["end_to_end"]:
            stats_a = entry_a["end_to_end"].get(metric["name"])
            stats_b = entry_b["end_to_end"].get(metric["name"])
            if stats_a is None or stats_b is None:
                continue
            rows.append({
                "workload": name, "metric": metric["name"],
                "a": stats_a, "b": stats_b, "bound": metric["bound"],
                "ratio": stats_b["median"] / stats_a["median"],
                "verdict": verdict(stats_a, stats_b, metric["bound"], metric["better"]),
            })
        rows.append({
            "workload": name, "metric": "fail_frac",
            "a": constant(entry_a["fail_frac"]), "b": constant(entry_b["fail_frac"]),
            "bound": 0.0, "ratio": 1.0,
            "verdict": ("regressed" if entry_b["fail_frac"] > entry_a["fail_frac"]
                        else "unchanged"),
            "digest_moved": entry_a["digest"] != entry_b["digest"],
        })
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':18} {'metric':12} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'B/A':>7} {'bound':>6}  verdict")
    for row in rows:
        a, b = row["a"], row["b"]
        print(f"{row['workload']:18} {row['metric']:12} "
              f"{a['median']:>10.4g} [{a['q1']:>8.4g}, {a['q3']:>8.4g}] "
              f"{b['median']:>10.4g} [{b['q1']:>8.4g}, {b['q3']:>8.4g}] "
              f"{row['ratio']:>7.3f} {row['bound']:>6.2f}  {row['verdict']}"
              + ("  (digest moved)" if row.get("digest_moved") else ""))


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    rows = compare(a, b)
    print_rows(rows)
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
