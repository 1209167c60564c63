"""The span/counter/gauge bus: one accounting mechanism for every layer.

Design constraints, in priority order:

1. **Near-zero cost when disabled.**  Every public entry point reads the
   module-level ``_LEVEL`` flag first and returns before any allocation,
   lock or clock read.  ``span()`` hands back one shared null context
   manager; ``count()``/``gauge()`` return immediately.  The instrumented
   hot paths (``Cell.step`` phases, fused kernels, optimizer steps, the
   per-message transport counters) therefore pay one attribute load and a
   falsy test per call — asserted to stay within 2% of the train step by
   ``benchmarks/test_train_step.py``.
2. **Thread-safe and rank-aware.**  Buffers are keyed by rank.  A thread
   binds itself to a rank with :func:`bind_rank` (the per-rank main thread
   in ``execute_rank``, the slave's execution thread); unbound threads
   write to the process-default buffer (rank ``None``).  Code that knows
   its rank without a binding — the transport counters — passes ``rank=``
   explicitly.  Each buffer has its own lock, so two ranks hosted as
   threads in one process never contend.
3. **Picklable snapshots, mergeable across processes.**  Every buffer
   records one wall-clock anchor next to a monotonic anchor at creation;
   span events carry monotonic timestamps only.  At merge time each rank's
   events are aligned as ``anchor_wall + (t - anchor_mono)`` — cross-rank
   skew collapses to one constant per rank instead of per-event wall-clock
   jitter, and an NTP step mid-run cannot reorder a rank's events.

Levels: ``off`` records nothing, ``basic`` accumulates per-span totals and
counters/gauges (dict updates, no event log), ``trace`` additionally logs
every span — and every :func:`mark` — as a timeline event for the Perfetto
export and the Fig. 3 protocol lanes.  Set via the
``REPRO_TELEMETRY`` environment variable or :func:`set_level` (which also
exports the variable, so forked and spawned workers inherit the choice).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.analysis import lockcheck

__all__ = [
    "OFF",
    "BASIC",
    "TRACE",
    "LEVELS",
    "SpanEvent",
    "TelemetrySnapshot",
    "set_level",
    "level_name",
    "enabled",
    "tracing",
    "span",
    "mark",
    "count",
    "gauge",
    "bind_rank",
    "unbind_rank",
    "snapshot",
    "all_snapshots",
    "reset",
    "MergedTelemetry",
    "merge_telemetry",
]

OFF, BASIC, TRACE = 0, 1, 2
LEVELS = {"off": OFF, "basic": BASIC, "trace": TRACE}
_LEVEL_NAMES = {value: name for name, value in LEVELS.items()}


def _parse_level(text: str | None) -> int:
    if not text:
        return OFF
    try:
        return LEVELS[text.strip().lower()]
    except KeyError:
        raise ValueError(
            f"REPRO_TELEMETRY must be one of {sorted(LEVELS)}, got {text!r}"
        ) from None


#: The module-level enabled flag — checked before any allocation.
_LEVEL: int = _parse_level(os.environ.get("REPRO_TELEMETRY"))  # repro: allow[R8] -- the one-int-check-when-off design needs the level resolved before any count() site runs

_TLS = threading.local()
_BUFFERS: dict[int | None, "_Buffer"] = {}
_BUFFERS_LOCK = threading.Lock()


@dataclass(frozen=True)
class SpanEvent:
    """One completed span on a rank's timeline (``trace`` level only).

    ``start`` is monotonic (``time.perf_counter``) — meaningful only next
    to the owning snapshot's anchors.  ``instant`` events come from
    :func:`mark`: a point on the timeline (``duration`` 0.0) that no span
    total counts.
    """

    name: str
    start: float
    duration: float
    thread: str
    attrs: dict | None = None
    instant: bool = False


@dataclass
class TelemetrySnapshot:
    """Picklable state of one rank's buffer — what ships to the master.

    ``anchor_wall``/``anchor_mono`` were read back-to-back when the buffer
    was created: ``anchor_wall + (t - anchor_mono)`` places any monotonic
    timestamp ``t`` of this rank on the shared wall-clock axis.
    """

    rank: int | None = None
    anchor_wall: float = 0.0
    anchor_mono: float = 0.0
    span_totals: dict[str, float] = field(default_factory=dict)
    span_counts: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    gauge_peaks: dict[str, float] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.span_totals or self.counters or self.gauges
                    or self.events)

    def wall_time(self, mono: float) -> float:
        """Align one of this rank's monotonic timestamps to wall clock."""
        return self.anchor_wall + (mono - self.anchor_mono)

    def span_seconds(self, name: str) -> float:
        return self.span_totals.get(name, 0.0)


class _Buffer:
    """Mutable per-rank accumulation state (lock-guarded)."""

    __slots__ = ("rank", "anchor_wall", "anchor_mono", "lock", "span_totals",
                 "span_counts", "counters", "gauges", "gauge_peaks", "events")

    def __init__(self, rank: int | None):
        self.rank = rank
        # Read back-to-back: the pair is the rank's clock-alignment anchor.
        self.anchor_wall = time.time()
        self.anchor_mono = time.perf_counter()
        self.lock = threading.Lock()
        self.span_totals: dict[str, float] = {}
        self.span_counts: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.gauge_peaks: dict[str, float] = {}
        self.events: list[SpanEvent] = []

    def snapshot(self) -> TelemetrySnapshot:
        with self.lock:
            return TelemetrySnapshot(
                rank=self.rank,
                anchor_wall=self.anchor_wall,
                anchor_mono=self.anchor_mono,
                span_totals=dict(self.span_totals),
                span_counts=dict(self.span_counts),
                counters=dict(self.counters),
                gauges=dict(self.gauges),
                gauge_peaks=dict(self.gauge_peaks),
                events=list(self.events),
            )


def _buffer_for(rank: int | None) -> _Buffer:
    buffer = _BUFFERS.get(rank)
    if buffer is None:
        with _BUFFERS_LOCK:
            buffer = _BUFFERS.get(rank)
            if buffer is None:
                buffer = _Buffer(rank)
                _BUFFERS[rank] = buffer
    return buffer


def _resolve(rank: int | None) -> _Buffer:
    if rank is None:
        rank = getattr(_TLS, "rank", None)
    return _buffer_for(rank)


# -- level control -------------------------------------------------------------

def set_level(level: str | int) -> None:
    """Set the telemetry level (``"off"``/``"basic"``/``"trace"``).

    The choice is mirrored into ``os.environ["REPRO_TELEMETRY"]`` so forked
    rank processes and spawned ``repro worker`` subprocesses inherit it.
    Workers on *other machines* do not see this process's environment — the
    master additionally ships the level inside every ``RunTask``.
    """
    global _LEVEL
    _LEVEL = level if isinstance(level, int) else _parse_level(level)
    if _LEVEL not in _LEVEL_NAMES:
        raise ValueError(f"unknown telemetry level {level!r}")
    os.environ["REPRO_TELEMETRY"] = _LEVEL_NAMES[_LEVEL]


def level_name() -> str:
    return _LEVEL_NAMES[_LEVEL]


def enabled() -> bool:
    """True when any recording happens (``basic`` or ``trace``)."""
    return _LEVEL != OFF


def tracing() -> bool:
    """True when the full span timeline is recorded (``trace``)."""
    return _LEVEL >= TRACE


# -- rank binding -------------------------------------------------------------

def bind_rank(rank: int | None) -> None:
    """Attribute this thread's unlabelled records to ``rank``.

    Called by ``execute_rank`` on each rank's main thread and by the
    slave's execution thread; cheap enough to call unconditionally.
    """
    _TLS.rank = rank


def unbind_rank() -> None:
    _TLS.rank = None


# -- recording ----------------------------------------------------------------

class _NullSpan:
    """Shared do-nothing context manager returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: totals at ``basic``, plus a timeline event at ``trace``."""

    __slots__ = ("_buffer", "_name", "_attrs", "_calls", "_start")

    def __init__(self, buffer: _Buffer, name: str, attrs: dict | None, calls: int):
        self._buffer = buffer
        self._name = name
        self._attrs = attrs
        self._calls = calls

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        elapsed = time.perf_counter() - self._start
        buffer = self._buffer
        name = self._name
        with buffer.lock:
            lockcheck.check_owned(buffer.lock, "telemetry span buffer")
            buffer.span_totals[name] = buffer.span_totals.get(name, 0.0) + elapsed
            buffer.span_counts[name] = buffer.span_counts.get(name, 0) + self._calls
            if _LEVEL >= TRACE:
                buffer.events.append(SpanEvent(
                    name=name, start=self._start, duration=elapsed,
                    thread=threading.current_thread().name,
                    attrs=self._attrs,
                ))
        return False


def span(name: str, rank: int | None = None, attrs: dict | None = None,
         calls: int = 1):
    """Time a region: ``with telemetry.span("cell.train"): ...``.

    Off: returns the shared null context manager — no allocation, no clock
    read.  ``attrs`` (small dict, e.g. ``{"cell": 3}``) are attached to the
    timeline event at ``trace`` level and surface as Perfetto ``args``.
    ``calls=0`` adds the time (and a timeline slice) to a call of ``name``
    that an earlier span already counted.
    """
    if not _LEVEL:
        return _NULL_SPAN
    return _Span(_resolve(rank), name, attrs, calls)


def mark(name: str, detail: str = "", rank: int | None = None) -> None:
    """Put a point event on the timeline: ``telemetry.mark("run tasks sent")``.

    Protocol steps, fault and membership events (the boxes of the paper's
    Fig. 3) — things that happen at an instant rather than take time.
    Recorded at ``trace`` level only, on the same anchored clock as the
    spans; a no-op (no allocation, no clock read) at ``off`` and ``basic``.
    """
    if _LEVEL < TRACE:
        return
    event = SpanEvent(
        name=name, start=time.perf_counter(), duration=0.0,
        thread=threading.current_thread().name,
        attrs={"detail": detail} if detail else None, instant=True,
    )
    buffer = _resolve(rank)
    with buffer.lock:
        lockcheck.check_owned(buffer.lock, "telemetry mark buffer")
        buffer.events.append(event)


def count(name: str, value: float = 1.0, rank: int | None = None) -> None:
    """Add to a monotonic counter (no-op when telemetry is off)."""
    if not _LEVEL:
        return
    buffer = _resolve(rank)
    with buffer.lock:
        lockcheck.check_owned(buffer.lock, "telemetry counter buffer")
        buffer.counters[name] = buffer.counters.get(name, 0.0) + value


def gauge(name: str, value: float, rank: int | None = None) -> None:
    """Set a gauge to its current value (the peak is tracked alongside)."""
    if not _LEVEL:
        return
    buffer = _resolve(rank)
    with buffer.lock:
        lockcheck.check_owned(buffer.lock, "telemetry gauge buffer")
        buffer.gauges[name] = value
        peak = buffer.gauge_peaks.get(name)
        if peak is None or value > peak:
            buffer.gauge_peaks[name] = value


# -- snapshots ----------------------------------------------------------------

def snapshot(rank: int | None = None) -> TelemetrySnapshot:
    """Picklable copy of one rank's buffer (``None`` = the default buffer)."""
    return _buffer_for(rank).snapshot()


def all_snapshots() -> list[TelemetrySnapshot]:
    """Snapshots of every non-empty buffer in this process, rank order."""
    with _BUFFERS_LOCK:
        buffers = list(_BUFFERS.values())
    snaps = [b.snapshot() for b in buffers]
    return sorted((s for s in snaps if not s.empty),
                  key=lambda s: (s.rank is None, s.rank if s.rank is not None else 0))


def reset() -> None:
    """Drop every buffer (fresh anchors on next use) — run isolation."""
    with _BUFFERS_LOCK:
        _BUFFERS.clear()


# -- merging ------------------------------------------------------------------

@dataclass
class MergedTelemetry:
    """Per-rank snapshots plus cluster-wide aggregates — ``RunResult.telemetry``.

    Counters and span call counts are summed across ranks; gauges keep the
    per-rank values (summing queue depths across ranks is meaningless, so
    the aggregate view exposes the peak).  Span *wall* totals are summed
    too — the parallel=max reading of Table IV is
    :func:`repro.telemetry.summary.routine_profile`, computed from
    :attr:`snapshots`.
    """

    snapshots: list[TelemetrySnapshot] = field(default_factory=list)
    span_totals: dict[str, float] = field(default_factory=dict)
    span_counts: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    gauge_peaks: dict[str, float] = field(default_factory=dict)

    @property
    def ranks(self) -> list[int | None]:
        return [snap.rank for snap in self.snapshots]

    def per_rank(self, rank: int | None) -> TelemetrySnapshot | None:
        for snap in self.snapshots:
            if snap.rank == rank:
                return snap
        return None

    def span_seconds(self, name: str) -> float:
        return self.span_totals.get(name, 0.0)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    @property
    def events(self) -> int:
        return sum(len(snap.events) for snap in self.snapshots)


def merge_telemetry(snapshots: list[TelemetrySnapshot | None]) -> MergedTelemetry:
    """Combine per-rank snapshots (``None`` holes from dead ranks allowed).

    Two snapshots claiming the same rank (e.g. the launcher's transport-side
    capture and a slave's own) are collapsed by keeping the richer one —
    more events, then more recorded spans — so nothing is double-counted.
    """
    by_rank: dict[int | None, TelemetrySnapshot] = {}
    for snap in snapshots:
        if snap is None or snap.empty:
            continue
        held = by_rank.get(snap.rank)
        if held is None or (
            (len(snap.events), len(snap.span_counts), len(snap.counters))
            > (len(held.events), len(held.span_counts), len(held.counters))
        ):
            by_rank[snap.rank] = snap
    merged = MergedTelemetry(snapshots=sorted(
        by_rank.values(),
        key=lambda s: (s.rank is None, s.rank if s.rank is not None else 0),
    ))
    for snap in merged.snapshots:
        for name, seconds in snap.span_totals.items():
            merged.span_totals[name] = merged.span_totals.get(name, 0.0) + seconds
        for name, calls in snap.span_counts.items():
            merged.span_counts[name] = merged.span_counts.get(name, 0) + calls
        for name, value in snap.counters.items():
            merged.counters[name] = merged.counters.get(name, 0.0) + value
        for name, peak in snap.gauge_peaks.items():
            if peak > merged.gauge_peaks.get(name, float("-inf")):
                merged.gauge_peaks[name] = peak
    return merged
