"""Unit tests for the :mod:`repro.telemetry.bus` span/counter bus."""

import pickle
import sys
import threading
import time

import pytest

from repro.mpi.stats import TransportStats
from repro.telemetry.bus import MergedTelemetry, SpanEvent, TelemetrySnapshot, merge_telemetry


class TestLevels:
    def test_off_by_default_records_nothing(self, telemetry_bus):
        telemetry_bus.set_level("off")
        with telemetry_bus.span("cell.train"):
            pass
        telemetry_bus.count("optim.steps")
        telemetry_bus.gauge("serving.queue_depth", 3)
        assert telemetry_bus.snapshot().empty

    def test_off_span_is_the_shared_null_singleton(self, telemetry_bus):
        telemetry_bus.set_level("off")
        first = telemetry_bus.span("a")
        second = telemetry_bus.span("b", attrs={"cell": 1})
        assert first is second  # no per-call allocation on the off path

    def test_level_predicates(self, telemetry_bus):
        telemetry_bus.set_level("off")
        assert not telemetry_bus.enabled() and not telemetry_bus.tracing()
        telemetry_bus.set_level("basic")
        assert telemetry_bus.enabled() and not telemetry_bus.tracing()
        telemetry_bus.set_level("trace")
        assert telemetry_bus.enabled() and telemetry_bus.tracing()

    def test_set_level_mirrors_environment(self, telemetry_bus):
        import os

        telemetry_bus.set_level("basic")
        assert os.environ["REPRO_TELEMETRY"] == "basic"
        assert telemetry_bus.level_name() == "basic"

    def test_unknown_level_rejected(self, telemetry_bus):
        with pytest.raises(ValueError, match="REPRO_TELEMETRY"):
            telemetry_bus.set_level("verbose")


class TestRecording:
    def test_basic_accumulates_totals_without_events(self, telemetry_bus):
        telemetry_bus.set_level("basic")
        for _ in range(3):
            with telemetry_bus.span("cell.train"):
                time.sleep(0.001)
        snap = telemetry_bus.snapshot()
        assert snap.span_counts["cell.train"] == 3
        assert snap.span_totals["cell.train"] > 0.0
        assert snap.events == []  # timeline only at trace level

    def test_span_can_continue_a_counted_call(self, telemetry_bus):
        telemetry_bus.set_level("trace")
        with telemetry_bus.span("cell.update_genomes"):
            pass
        with telemetry_bus.span("cell.update_genomes", calls=0):
            time.sleep(0.001)
        snap = telemetry_bus.snapshot()
        assert snap.span_counts["cell.update_genomes"] == 1
        assert snap.span_totals["cell.update_genomes"] >= 0.001
        assert len(snap.events) == 2  # both stretches show on the timeline

    def test_trace_records_events_with_attrs(self, telemetry_bus):
        telemetry_bus.set_level("trace")
        with telemetry_bus.span("cell.train", attrs={"cell": 7}):
            pass
        snap = telemetry_bus.snapshot()
        (event,) = snap.events
        assert event.name == "cell.train"
        assert event.attrs == {"cell": 7}
        assert event.duration >= 0.0
        assert event.thread  # the recording thread's name

    @pytest.mark.parametrize("level", ["off", "basic"])
    def test_mark_below_trace_is_a_no_op_without_allocation(self, telemetry_bus, level):
        telemetry_bus.set_level(level)
        telemetry_bus.mark("warm-up")
        before = sys.getallocatedblocks()
        for _ in range(1000):
            telemetry_bus.mark("run tasks sent", "4 slaves")
        assert sys.getallocatedblocks() - before < 50  # none per call
        assert telemetry_bus.all_snapshots() == []  # not even a buffer

    def test_mark_at_trace_is_an_instant_on_the_timeline(self, telemetry_bus):
        telemetry_bus.set_level("trace")
        with telemetry_bus.span("exchange.gather", rank=2):
            telemetry_bus.mark("get results from neighbours", "iteration 0", rank=2)
        telemetry_bus.mark("train one iteration", rank=2)
        snap = pickle.loads(pickle.dumps(telemetry_bus.snapshot(2)))
        first, second = (e for e in snap.events if e.instant)
        assert (first.name, first.attrs) == (
            "get results from neighbours", {"detail": "iteration 0"})
        assert (second.name, second.attrs, second.duration) == (
            "train one iteration", None, 0.0)
        assert first.start < second.start  # same clock as the spans
        # Marks take no time: no span total or call count knows them.
        assert set(snap.span_counts) == {"exchange.gather"}

    def test_mark_follows_the_thread_rank_binding(self, telemetry_bus):
        telemetry_bus.set_level("trace")
        telemetry_bus.bind_rank(3)
        telemetry_bus.mark("start training")
        assert [e.name for e in telemetry_bus.snapshot(3).events] == ["start training"]

    def test_counters_and_gauge_peaks(self, telemetry_bus):
        telemetry_bus.set_level("basic")
        telemetry_bus.count("exchange.genomes_sent", 4)
        telemetry_bus.count("exchange.genomes_sent", 2)
        telemetry_bus.gauge("serving.queue_depth", 5)
        telemetry_bus.gauge("serving.queue_depth", 2)
        snap = telemetry_bus.snapshot()
        assert snap.counters["exchange.genomes_sent"] == 6
        assert snap.gauges["serving.queue_depth"] == 2  # last value
        assert snap.gauge_peaks["serving.queue_depth"] == 5  # peak kept

    def test_bind_rank_routes_thread_records(self, telemetry_bus):
        telemetry_bus.set_level("basic")

        def rank_program(rank):
            telemetry_bus.bind_rank(rank)
            telemetry_bus.count("mpi.messages_sent", rank + 1)

        threads = [threading.Thread(target=rank_program, args=(r,))
                   for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert telemetry_bus.snapshot(0).counters["mpi.messages_sent"] == 1
        assert telemetry_bus.snapshot(1).counters["mpi.messages_sent"] == 2
        assert telemetry_bus.snapshot(None).empty  # main thread recorded nothing

    def test_explicit_rank_beats_binding(self, telemetry_bus):
        telemetry_bus.set_level("basic")
        telemetry_bus.bind_rank(3)
        try:
            telemetry_bus.count("mpi.bytes_sent", 10, rank=1)
        finally:
            telemetry_bus.unbind_rank()
        assert telemetry_bus.snapshot(1).counters["mpi.bytes_sent"] == 10

    def test_reset_drops_buffers(self, telemetry_bus):
        telemetry_bus.set_level("basic")
        telemetry_bus.count("x")
        telemetry_bus.reset()
        assert telemetry_bus.snapshot().empty

    def test_snapshot_is_picklable(self, telemetry_bus):
        telemetry_bus.set_level("trace")
        with telemetry_bus.span("exchange.gather", rank=2):
            pass
        snap = telemetry_bus.snapshot(2)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.rank == 2
        assert clone.span_counts == snap.span_counts
        assert clone.events[0].name == "exchange.gather"


class TestClockAlignment:
    def test_wall_time_uses_the_anchor_pair(self):
        snap = TelemetrySnapshot(rank=0, anchor_wall=1000.0, anchor_mono=50.0)
        assert snap.wall_time(52.5) == pytest.approx(1002.5)

    def test_skewed_ranks_align_on_the_shared_axis(self):
        # Two ranks whose monotonic clocks differ wildly but whose wall
        # anchors agree: the same physical instant maps to the same wall
        # time through either snapshot.
        a = TelemetrySnapshot(rank=0, anchor_wall=500.0, anchor_mono=10.0)
        b = TelemetrySnapshot(rank=1, anchor_wall=500.0, anchor_mono=9000.0)
        assert a.wall_time(11.0) == pytest.approx(b.wall_time(9001.0))


class TestMerge:
    def _snap(self, rank, *, events=0, counters=None, spans=None):
        snap = TelemetrySnapshot(rank=rank)
        snap.counters = dict(counters or {})
        snap.span_totals = dict(spans or {})
        snap.span_counts = {name: 1 for name in snap.span_totals}
        snap.events = [SpanEvent("cell.train", 0.0, 0.1, "t")] * events
        return snap

    def test_sums_counters_and_span_totals(self):
        merged = merge_telemetry([
            self._snap(1, counters={"optim.steps": 4}, spans={"cell.train": 1.0}),
            self._snap(2, counters={"optim.steps": 6}, spans={"cell.train": 2.5}),
        ])
        assert merged.counter("optim.steps") == 10
        assert merged.span_seconds("cell.train") == pytest.approx(3.5)
        assert merged.span_counts["cell.train"] == 2
        assert merged.ranks == [1, 2]

    def test_same_rank_collapses_to_the_richer_snapshot(self):
        poor = self._snap(1, counters={"mpi.messages_sent": 5})
        rich = self._snap(1, events=3, counters={"mpi.messages_sent": 9},
                          spans={"cell.train": 1.0})
        merged = merge_telemetry([poor, rich])
        assert merged.ranks == [1]
        assert merged.counter("mpi.messages_sent") == 9  # not 14

    def test_none_holes_and_empty_snapshots_skipped(self):
        merged = merge_telemetry([None, TelemetrySnapshot(rank=3),
                                  self._snap(1, counters={"x": 1})])
        assert merged.ranks == [1]

    def test_launcher_buffer_sorts_last(self):
        merged = merge_telemetry([
            self._snap(None, counters={"socket.workers_admitted": 2}),
            self._snap(0, counters={"x": 1}),
        ])
        assert merged.ranks == [0, None]

    def test_per_rank_lookup(self):
        merged = merge_telemetry([self._snap(2, counters={"x": 1})])
        assert merged.per_rank(2) is not None
        assert merged.per_rank(7) is None

    def test_gauge_peaks_take_the_max(self):
        a = TelemetrySnapshot(rank=0, gauges={"q": 1.0}, gauge_peaks={"q": 4.0})
        b = TelemetrySnapshot(rank=1, gauges={"q": 2.0}, gauge_peaks={"q": 9.0})
        merged = merge_telemetry([a, b])
        assert merged.gauge_peaks["q"] == 9.0


class TestAdapters:
    def test_transport_stats_round_trip_through_the_bus(self, telemetry_bus):
        telemetry_bus.set_level("basic")
        stats = TransportStats(rank=2)
        stats.count_sent(b"x" * 100)
        stats.count_sent(b"y" * 50)
        stats.count_received(b"z" * 25)
        snapshot = telemetry_bus.snapshot(2)
        assert snapshot.rank == 2
        assert snapshot.counters["mpi.messages_sent"] == stats.messages_sent == 2
        assert snapshot.counters["mpi.bytes_sent"] == stats.bytes_sent == 150
        assert snapshot.counters["mpi.messages_received"] == 1
        assert snapshot.counters["mpi.bytes_received"] == 25


class TestMergedTelemetryShape:
    def test_events_property_counts_all_ranks(self):
        a = TelemetrySnapshot(rank=0, events=[SpanEvent("s", 0, 1, "t")],
                              span_totals={"s": 1.0}, span_counts={"s": 1})
        merged = MergedTelemetry(snapshots=[a])
        assert merged.events == 1
