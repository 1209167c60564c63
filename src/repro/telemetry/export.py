"""Exporters: Perfetto trace JSON, Prometheus text exposition, JSONL.

Three read-side formats for one :class:`~repro.telemetry.bus.MergedTelemetry`:

* :func:`to_perfetto` / :func:`write_trace` — Chrome/Perfetto trace-event
  JSON.  Every span becomes one complete (``"ph": "X"``) event and every
  mark one thread-scoped instant (``"ph": "i"``) event; each rank
  is a process (``pid``), each recording thread a track (``tid``), with
  ``"M"`` metadata events naming both.  Timestamps are the wall-aligned
  event starts, rebased to the earliest event and expressed in microseconds,
  so a 2-rank socket run opens in https://ui.perfetto.dev with the ranks'
  train/exchange spans on parallel tracks.
* :func:`to_prometheus` / :func:`parse_prometheus` — text exposition for
  the counters and gauges (``repro_<name>{rank="0"} value``), plus the
  minimal parser the round-trip tests (and any scraper stub) use.
* :class:`JsonlWriter` — append-only JSON-lines sink; the machinery behind
  :class:`repro.api.callbacks.JsonlMetrics` (which keeps its public
  contract and record shapes unchanged).
"""

from __future__ import annotations

import json
import re
from typing import IO, Any

from repro.telemetry.bus import MergedTelemetry, TelemetrySnapshot

__all__ = [
    "to_perfetto",
    "write_trace",
    "to_prometheus",
    "parse_prometheus",
    "JsonlWriter",
]

#: pid used for records made outside any rank (the launcher / sequential run).
LAUNCHER_PID = 9999


def _pid_for(snapshot: TelemetrySnapshot) -> tuple[int, str]:
    if snapshot.rank is None:
        return LAUNCHER_PID, "launcher"
    return int(snapshot.rank), f"rank {snapshot.rank}"


def to_perfetto(merged: MergedTelemetry) -> dict:
    """Render the merged timeline as a Chrome/Perfetto trace-event dict."""
    trace_events: list[dict] = []
    # Rebase to the earliest aligned event so ts values stay small.
    starts = [snap.wall_time(event.start)
              for snap in merged.snapshots for event in snap.events]
    t0 = min(starts) if starts else 0.0
    for snapshot in merged.snapshots:
        if not snapshot.events:
            continue
        pid, process_name = _pid_for(snapshot)
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        })
        tids: dict[str, int] = {}
        events = sorted(snapshot.events, key=lambda e: e.start)
        for event in events:
            tid = tids.get(event.thread)
            if tid is None:
                tid = len(tids) + 1
                tids[event.thread] = tid
                trace_events.append({
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": event.thread},
                })
            record = {
                "name": event.name,
                "pid": pid,
                "tid": tid,
                "ts": round((snapshot.wall_time(event.start) - t0) * 1e6, 3),
            }
            if event.instant:
                record.update(ph="i", s="t", cat="mark")
            else:
                record.update(ph="X", dur=round(event.duration * 1e6, 3),
                              cat=event.name.partition(".")[0])
            if event.attrs:
                record["args"] = dict(event.attrs)
            trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_trace(path: str, merged: MergedTelemetry) -> dict:
    """Write :func:`to_perfetto` output to ``path``; returns the dict."""
    trace = to_perfetto(merged)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return trace


# -- Prometheus text exposition -----------------------------------------------

_METRIC_SAFE = re.compile(r"[^a-zA-Z0-9_]")

_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$'
)
_LABEL = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')


def _metric_name(name: str) -> str:
    return "repro_" + _METRIC_SAFE.sub("_", name)


def to_prometheus(merged: MergedTelemetry) -> str:
    """Counters, span totals and gauges as Prometheus text exposition.

    Per-rank samples carry a ``rank`` label (``rank="none"`` for records
    made outside any rank); span totals export as ``_seconds`` /
    ``_calls`` pairs.
    """
    lines: list[str] = []

    def emit(kind: str, name: str, samples: list[tuple[str, float]]) -> None:
        if not samples:
            return
        lines.append(f"# TYPE {name} {kind}")
        for label, value in samples:
            rendered = repr(value) if isinstance(value, float) else str(value)
            lines.append(f'{name}{{rank="{label}"}} {rendered}')

    def rank_label(snapshot: TelemetrySnapshot) -> str:
        return "none" if snapshot.rank is None else str(snapshot.rank)

    names = sorted({n for s in merged.snapshots for n in s.counters})
    for name in names:
        emit("counter", _metric_name(name), [
            (rank_label(s), s.counters[name])
            for s in merged.snapshots if name in s.counters
        ])
    names = sorted({n for s in merged.snapshots for n in s.span_totals})
    for name in names:
        emit("counter", _metric_name(name) + "_seconds", [
            (rank_label(s), s.span_totals[name])
            for s in merged.snapshots if name in s.span_totals
        ])
        emit("counter", _metric_name(name) + "_calls", [
            (rank_label(s), float(s.span_counts.get(name, 0)))
            for s in merged.snapshots if name in s.span_totals
        ])
    names = sorted({n for s in merged.snapshots for n in s.gauges})
    for name in names:
        emit("gauge", _metric_name(name), [
            (rank_label(s), s.gauges[name])
            for s in merged.snapshots if name in s.gauges
        ])
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Minimal exposition parser: ``(name, sorted labels) -> value``.

    Understands exactly what :func:`to_prometheus` emits (plus arbitrary
    label sets) — enough for the round-trip tests and scrape stubs, not a
    general Prometheus client.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        labels = tuple(sorted(
            (m.group("key"), m.group("value"))
            for m in _LABEL.finditer(match.group("labels") or "")
        ))
        samples[(match.group("name"), labels)] = float(match.group("value"))
    return samples


# -- JSONL --------------------------------------------------------------------

class JsonlWriter:
    """Append-only JSON-lines sink with lazy open and per-record flush.

    One record per line, keys sorted (stable diffs), flushed immediately so
    a crashed run still leaves every completed record on disk.  This is the
    write path behind ``JsonlMetrics``; it is also usable directly for any
    streaming telemetry log.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle: IO[str] | None = None

    def write(self, record: dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
