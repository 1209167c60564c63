"""Wall-clock section timers with negligible overhead in the hot loop.

Usage::

    timer = RoutineTimer()
    with timer.section("train"):
        ...gradient steps...

Timers are additive across entries and picklable via :class:`TimerSnapshot`
so every slave can ship its profile to the master for aggregation
(:func:`merge_snapshots`), which is how the distributed column of Table IV
is assembled.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

__all__ = [
    "RoutineTimer",
    "TimerSnapshot",
    "NULL_TIMER",
    "merge_snapshots",
    "snapshot_from_telemetry",
]

#: The paper's four profiled routines, in Table IV order.
PAPER_ROUTINES = ("gather", "train", "update_genomes", "mutate")

#: Telemetry span name -> Table IV routine (the bus records at span
#: granularity; this projects back into the paper's vocabulary).
_SPAN_ROUTINES = {
    "exchange.gather": "gather",
    "cell.train": "train",
    "cell.update_genomes": "update_genomes",
    "cell.mutate": "mutate",
}


@dataclass
class TimerSnapshot:
    """Picklable totals: routine name -> (seconds, call count)."""

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def seconds(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self.counts.get(name, 0)

    @property
    def overall(self) -> float:
        return sum(self.totals.values())


class RoutineTimer:
    """Accumulates wall time per named section."""

    __slots__ = ("_totals", "_counts")

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    @contextlib.contextmanager
    def section(self, name: str, calls: int = 1):
        """Time a region; ``calls=0`` continues a call already counted."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._totals[name] = self._totals.get(name, 0.0) + elapsed
            self._counts[name] = self._counts.get(name, 0) + calls

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Manually add time (used when a section is measured externally)."""
        if seconds < 0:
            raise ValueError("cannot add negative time")
        self._totals[name] = self._totals.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + calls

    def seconds(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    def snapshot(self) -> TimerSnapshot:
        return TimerSnapshot(dict(self._totals), dict(self._counts))

    def reset(self) -> None:
        self._totals.clear()
        self._counts.clear()


class _NullTimer(RoutineTimer):
    """A timer that records nothing (default when profiling is off).

    ``section`` still works as a context manager but skips the clock reads,
    keeping the un-profiled hot path free of bookkeeping.
    """

    @contextlib.contextmanager
    def section(self, name: str, calls: int = 1):
        yield

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        pass


NULL_TIMER = _NullTimer()


def merge_snapshots(snapshots: list[TimerSnapshot], *, parallel: bool = False) -> TimerSnapshot:
    """Combine per-slave snapshots into one profile.

    With ``parallel=False`` times are summed (total CPU work — the single
    core column).  With ``parallel=True`` the *maximum* per routine is taken:
    slaves run concurrently, so the wall time of a routine across the system
    is the slowest slave's time (the distributed column of Table IV).
    """
    merged = TimerSnapshot()
    for snap in snapshots:
        for name, seconds in snap.totals.items():
            if parallel:
                merged.totals[name] = max(merged.totals.get(name, 0.0), seconds)
            else:
                merged.totals[name] = merged.totals.get(name, 0.0) + seconds
        for name, count in snap.counts.items():
            merged.counts[name] = merged.counts.get(name, 0) + count
    return merged


def snapshot_from_telemetry(snapshot) -> TimerSnapshot:
    """Thin adapter: a Table IV :class:`TimerSnapshot` from a bus snapshot.

    Takes a :class:`repro.telemetry.bus.TelemetrySnapshot` and projects its
    span totals into the paper's routine vocabulary, so Table IV rendering
    (:func:`repro.profiling.table.profile_rows`) works off the unified bus
    exactly as it does off a :class:`RoutineTimer`.
    """
    result = TimerSnapshot()
    for span_name, seconds in snapshot.span_totals.items():
        routine = _SPAN_ROUTINES.get(span_name)
        if routine is None:
            continue
        result.totals[routine] = result.totals.get(routine, 0.0) + seconds
        result.counts[routine] = (result.counts.get(routine, 0)
                                  + snapshot.span_counts.get(span_name, 0))
    return result
