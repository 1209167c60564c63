"""Read-side views over the bus: Table IV, Fig. 3/4 and ``repro trace``.

Everything here derives from what a run recorded, never from a clock of
its own:

* :func:`routine_profile` / :func:`profile_rows` / :func:`format_table4` /
  :func:`format_fig4_series` — the paper's Table IV and Fig. 4 from the
  per-rank span totals of a :class:`~repro.telemetry.bus.MergedTelemetry`
  (``basic`` level is enough);
* :func:`mark_timeline` / :func:`format_mark_timeline` — the Fig. 3
  master/slave protocol lanes from the :func:`~repro.telemetry.bus.mark`
  events of a ``trace``-level run;
* :func:`summarize` / :func:`format_summary` — ``repro trace <file>``:
  operates on the Perfetto trace-event dict produced by
  :func:`repro.telemetry.export.to_perfetto` (or loaded back from a
  ``trace.json``), so the CLI can digest any previously captured run
  without the live ``MergedTelemetry`` object.

The ``repro trace`` headline numbers mirror the paper's evaluation:
per-routine totals in Table IV's vocabulary, plus the
communication/computation overlap percentage that motivates asynchronous
exchange — the fraction of exchange time during which some *other* rank was
training (overlapped communication is free; non-overlapped is the
synchronization cost ParaGAN-style analyses chase).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.bus import MergedTelemetry, SpanEvent

__all__ = [
    "SPAN_TO_ROUTINE",
    "PAPER_ROUTINES",
    "TimerSnapshot",
    "ProfileRow",
    "routine_profile",
    "profile_rows",
    "format_table4",
    "format_fig4_series",
    "mark_timeline",
    "format_mark_timeline",
    "summarize",
    "format_summary",
]

#: Telemetry span -> the paper's profiled routine, in Table IV order.  The
#: only place the bus's vocabulary is projected into the paper's; spans not
#: listed (``train.d_step`` is a sub-span of ``cell.train``) belong to no
#: routine.
SPAN_TO_ROUTINE = {
    "exchange.gather": "gather",
    "cell.train": "train",
    "cell.update_genomes": "update_genomes",
    "cell.mutate": "mutate",
}
PAPER_ROUTINES = tuple(SPAN_TO_ROUTINE.values())


# -- Table IV / Fig. 4 ---------------------------------------------------------

@dataclass
class TimerSnapshot:
    """Per-name totals: name -> (seconds, call count)."""

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def seconds(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self.counts.get(name, 0)

    @property
    def overall(self) -> float:
        return sum(self.totals.values())


def routine_profile(merged: MergedTelemetry | None, *,
                    parallel: bool = False) -> TimerSnapshot:
    """The four Table IV routines of a run, from its per-rank span totals.

    ``parallel=False`` sums each routine over the ranks (total CPU work —
    the single-core column).  ``parallel=True`` takes the per-routine
    *maximum* over ranks: they run concurrently, so the wall time of a
    routine across the system is the slowest rank's (the distributed
    column).  Call counts are summed either way.  ``None`` (a run with
    telemetry off) gives an empty profile.
    """
    profile = TimerSnapshot()
    for snapshot in merged.snapshots if merged is not None else ():
        for span, routine in SPAN_TO_ROUTINE.items():
            if span not in snapshot.span_totals:
                continue
            seconds = snapshot.span_totals[span]
            held = profile.totals.get(routine, 0.0)
            profile.totals[routine] = max(held, seconds) if parallel else held + seconds
            profile.counts[routine] = (profile.counts.get(routine, 0)
                                       + snapshot.span_counts.get(span, 0))
    return profile


@dataclass(frozen=True)
class ProfileRow:
    """One row of Table IV."""

    routine: str
    single_core_s: float
    distributed_s: float

    @property
    def acceleration(self) -> float:
        """Relative time reduction vs single core (the paper's 'acceleration')."""
        if self.single_core_s <= 0:
            return 0.0
        return max(0.0, 1.0 - self.distributed_s / self.single_core_s)

    @property
    def speedup(self) -> float:
        if self.distributed_s <= 0:
            return float("inf")
        return self.single_core_s / self.distributed_s


def profile_rows(single: TimerSnapshot, distributed: TimerSnapshot) -> list[ProfileRow]:
    """Build Table IV rows (four routines + overall) from two profiles."""
    rows = [
        ProfileRow(
            routine=name.replace("_", " "),  # the paper's "update genomes"
            single_core_s=single.seconds(name),
            distributed_s=distributed.seconds(name),
        )
        for name in PAPER_ROUTINES
    ]
    rows.append(
        ProfileRow(
            routine="overall",
            single_core_s=sum(r.single_core_s for r in rows),
            distributed_s=sum(r.distributed_s for r in rows),
        )
    )
    return rows


def format_table4(rows: list[ProfileRow], unit: str = "s") -> str:
    """Render rows in the layout of the paper's Table IV."""
    header = f"{'routine':<16} {'single core':>12} {'distributed':>12} {'acceleration':>13} {'speedup':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.routine:<16} {row.single_core_s:>10.2f}{unit} {row.distributed_s:>10.2f}{unit}"
            f" {row.acceleration * 100:>12.1f}% {row.speedup:>8.2f}"
        )
    return "\n".join(lines)


def format_fig4_series(rows: list[ProfileRow]) -> dict[str, list]:
    """The two bar series of the paper's Fig. 4 (same data as Table IV)."""
    routines = [r.routine for r in rows if r.routine != "overall"]
    return {
        "routines": routines,
        "single_core": [r.single_core_s for r in rows if r.routine != "overall"],
        "distributed": [r.distributed_s for r in rows if r.routine != "overall"],
    }


# -- Fig. 3 --------------------------------------------------------------------

def mark_timeline(merged: MergedTelemetry | None
                  ) -> list[tuple[float, str, SpanEvent]]:
    """Every mark of every rank as ``(wall time, actor, event)``, in time order.

    Actors are the lanes of the paper's Fig. 3: rank 0 is ``master``, rank
    ``r`` is ``slave-r`` (records made outside any rank: ``launcher``).
    Each rank's monotonic stamps are placed on the shared axis through its
    one wall/monotonic anchor pair, so within a lane the order is the order
    of recording whatever the wall clock did mid-run.
    """
    timeline = []
    for snapshot in merged.snapshots if merged is not None else ():
        actor = {None: "launcher", 0: "master"}.get(
            snapshot.rank, f"slave-{snapshot.rank}")
        timeline.extend((snapshot.wall_time(event.start), actor, event)
                        for event in snapshot.events if event.instant)
    timeline.sort(key=lambda entry: entry[0])
    return timeline


def format_mark_timeline(merged: MergedTelemetry | None) -> str:
    """The merged master/slave event log, one ``[t] actor event`` per line."""
    timeline = mark_timeline(merged)
    if not timeline:
        return "(empty trace)"
    t0 = timeline[0][0]
    lines = []
    for at, actor, event in timeline:
        detail = (event.attrs or {}).get("detail")
        suffix = f" ({detail})" if detail else ""
        lines.append(f"[{at - t0:9.4f}s] {actor:<10} {event.name}{suffix}")
    return "\n".join(lines)


# -- repro trace ---------------------------------------------------------------

def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge overlapping intervals into a disjoint, sorted union."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _intersection_length(interval: tuple[float, float],
                         union: list[tuple[float, float]]) -> float:
    lo, hi = interval
    covered = 0.0
    for start, end in union:
        if end <= lo:
            continue
        if start >= hi:
            break
        covered += min(hi, end) - max(lo, start)
    return covered


def summarize(trace: dict) -> dict:
    """Digest a Perfetto trace dict into the ``repro trace`` report.

    Returns a plain dict: ``routines`` (name -> {seconds, calls}),
    ``spans`` (every span name -> {seconds, calls}), ``ranks`` (pid ->
    process name), ``wall_s`` (extent of the timeline),
    ``exchange_s``/``overlap_s``/``overlap_pct`` (comm/compute overlap),
    and ``slowest_cells`` (list of {cell, seconds, calls}, worst first).
    """
    events = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    names = {}
    for meta in trace.get("traceEvents", []):
        if meta.get("ph") == "M" and meta.get("name") == "process_name":
            names[meta["pid"]] = meta.get("args", {}).get("name", str(meta["pid"]))

    spans: dict[str, dict] = {}
    routines = {routine: {"seconds": 0.0, "calls": 0} for routine in PAPER_ROUTINES}
    cells: dict[object, dict] = {}
    train_by_pid: dict[int, list[tuple[float, float]]] = {}
    exchange: list[tuple[int, float, float]] = []
    lo, hi = float("inf"), float("-inf")

    for event in events:
        seconds = event.get("dur", 0.0) / 1e6
        start = event.get("ts", 0.0) / 1e6
        end = start + seconds
        lo, hi = min(lo, start), max(hi, end)
        name = event.get("name", "?")
        entry = spans.setdefault(name, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += seconds
        entry["calls"] += 1
        routine = SPAN_TO_ROUTINE.get(name)
        if routine is not None:
            routines[routine]["seconds"] += seconds
            routines[routine]["calls"] += 1
        pid = event.get("pid", 0)
        if name == "cell.train":
            train_by_pid.setdefault(pid, []).append((start, end))
            cell = (event.get("args") or {}).get("cell")
            if cell is not None:
                slot = cells.setdefault(cell, {"cell": cell, "seconds": 0.0,
                                               "calls": 0})
                slot["seconds"] += seconds
                slot["calls"] += 1
        elif name.startswith("exchange."):
            exchange.append((pid, start, end))

    # Overlap: exchange time on one rank covered by *other* ranks' training.
    exchange_s = sum(end - start for _, start, end in exchange)
    overlap_s = 0.0
    for pid, start, end in exchange:
        others = _union([iv for other, ivs in train_by_pid.items()
                         if other != pid for iv in ivs])
        overlap_s += _intersection_length((start, end), others)

    return {
        "events": len(events),
        "ranks": {pid: names.get(pid, str(pid))
                  for pid in sorted({e.get("pid", 0) for e in events})},
        "wall_s": (hi - lo) if events else 0.0,
        "spans": spans,
        "routines": routines,
        "exchange_s": exchange_s,
        "overlap_s": overlap_s,
        "overlap_pct": (100.0 * overlap_s / exchange_s) if exchange_s else 0.0,
        "slowest_cells": sorted(cells.values(),
                                key=lambda c: -c["seconds"])[:8],
    }


def format_summary(summary: dict) -> str:
    """Human-readable report for the ``repro trace`` subcommand."""
    lines = [
        f"events: {summary['events']}  "
        f"ranks: {len(summary['ranks'])}  "
        f"wall: {summary['wall_s']:.3f}s",
        "",
        "per-routine totals (Table IV vocabulary):",
    ]
    for routine in PAPER_ROUTINES:
        entry = summary["routines"][routine]
        lines.append(f"  {routine:<16} {entry['seconds']:>10.3f}s"
                     f"  x{entry['calls']}")
    other = sorted(
        (name, entry) for name, entry in summary["spans"].items()
        if name not in SPAN_TO_ROUTINE
    )
    if other:
        lines.append("other spans:")
        for name, entry in other:
            lines.append(f"  {name:<24} {entry['seconds']:>10.3f}s"
                         f"  x{entry['calls']}")
    lines += [
        "",
        f"comm/compute overlap: {summary['overlap_s']:.3f}s of "
        f"{summary['exchange_s']:.3f}s exchange time "
        f"({summary['overlap_pct']:.1f}%) hidden behind other ranks' training",
    ]
    if summary["slowest_cells"]:
        lines.append("slowest cells (train time):")
        for slot in summary["slowest_cells"]:
            lines.append(f"  cell {slot['cell']:<4} {slot['seconds']:>10.3f}s"
                         f"  x{slot['calls']}")
    return "\n".join(lines)
