"""Exporter golden-file tests: Perfetto JSON, Prometheus round-trip, JSONL,
and the ``repro trace`` summary math."""

import json

import pytest

from repro.telemetry.bus import MergedTelemetry, SpanEvent, TelemetrySnapshot, merge_telemetry
from repro.telemetry.export import (
    LAUNCHER_PID,
    JsonlWriter,
    parse_prometheus,
    to_perfetto,
    to_prometheus,
    write_trace,
)
from repro.telemetry.summary import (
    format_mark_timeline,
    format_summary,
    mark_timeline,
    summarize,
)


def _rank_snapshot(rank, events, *, anchor_wall=1000.0, anchor_mono=0.0,
                   counters=None, gauges=None):
    snap = TelemetrySnapshot(rank=rank, anchor_wall=anchor_wall,
                             anchor_mono=anchor_mono)
    snap.events = list(events)
    for event in events:
        snap.span_totals[event.name] = (
            snap.span_totals.get(event.name, 0.0) + event.duration)
        snap.span_counts[event.name] = snap.span_counts.get(event.name, 0) + 1
    snap.counters = dict(counters or {})
    snap.gauges = dict(gauges or {})
    snap.gauge_peaks = dict(gauges or {})
    return snap


def _two_rank_merged():
    rank1 = _rank_snapshot(1, [
        SpanEvent("exchange.gather", 0.00, 0.10, "MainThread", {"cell": 0}),
        SpanEvent("cell.train", 0.10, 0.80, "MainThread", {"cell": 0}),
    ], counters={"mpi.messages_sent": 4.0})
    rank2 = _rank_snapshot(2, [
        SpanEvent("cell.train", 0.05, 0.90, "MainThread", {"cell": 1}),
        SpanEvent("exchange.gather", 0.95, 0.20, "MainThread", {"cell": 1}),
    ], counters={"mpi.messages_sent": 6.0}, gauges={"serving.queue_depth": 3.0})
    return merge_telemetry([rank1, rank2])


class TestPerfetto:
    def test_required_keys_and_shape(self):
        trace = to_perfetto(_two_rank_merged())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        for event in trace["traceEvents"]:
            assert {"ph", "name", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert "ts" in event and "dur" in event and "cat" in event
            else:
                assert event["ph"] == "M"

    def test_one_process_track_per_rank_with_names(self):
        trace = to_perfetto(_two_rank_merged())
        names = {e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {1: "rank 1", 2: "rank 2"}

    def test_ts_monotone_per_track_and_rebased(self):
        trace = to_perfetto(_two_rank_merged())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        tracks = {}
        for event in spans:
            tracks.setdefault((event["pid"], event["tid"]), []).append(event["ts"])
        for ts in tracks.values():
            assert ts == sorted(ts)
        assert min(e["ts"] for e in spans) == 0.0  # rebased to earliest span

    def test_skew_alignment_places_ranks_on_one_axis(self):
        # Rank 2's monotonic clock is offset by +5000s; identical wall
        # anchors mean its spans must still land next to rank 1's.
        rank1 = _rank_snapshot(1, [SpanEvent("cell.train", 0.0, 0.5, "t")])
        rank2 = _rank_snapshot(
            2, [SpanEvent("cell.train", 5000.1, 0.5, "t")], anchor_mono=5000.0)
        trace = to_perfetto(merge_telemetry([rank1, rank2]))
        ts = {e["pid"]: e["ts"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert ts[1] == 0.0
        assert ts[2] == pytest.approx(0.1 * 1e6, rel=1e-6)

    def test_attrs_become_args_and_category_is_the_prefix(self):
        trace = to_perfetto(_two_rank_merged())
        train = [e for e in trace["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "cell.train"]
        assert {e["args"]["cell"] for e in train} == {0, 1}
        assert all(e["cat"] == "cell" for e in train)

    def test_marks_become_thread_scoped_instant_events(self):
        rank1 = _rank_snapshot(1, [SpanEvent("cell.train", 0.1, 0.5, "exec")])
        rank1.events.append(SpanEvent("start training", 0.05, 0.0, "exec",
                                      {"detail": "cell 0"}, instant=True))
        trace = to_perfetto(merge_telemetry([rank1]))
        (mark,) = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        (span,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert mark["name"] == "start training" and mark["s"] == "t"
        assert mark["args"] == {"detail": "cell 0"} and "dur" not in mark
        assert (mark["pid"], mark["tid"]) == (span["pid"], span["tid"])
        assert mark["ts"] == 0.0 and span["ts"] == pytest.approx(0.05 * 1e6)
        # repro trace totals count spans only.
        summary = summarize(trace)
        assert summary["events"] == 1 and set(summary["spans"]) == {"cell.train"}

    def test_launcher_snapshot_uses_reserved_pid(self):
        launcher = _rank_snapshot(None, [SpanEvent("socket.rendezvous", 0, 1, "t")])
        trace = to_perfetto(merge_telemetry([launcher]))
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["pid"] == LAUNCHER_PID

    def test_write_trace_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_trace(str(path), _two_rank_merged())
        assert json.loads(path.read_text()) == written


def _marked(rank, anchor_wall, anchor_mono, offsets):
    """A rank that marked ``e@<offset>`` at each monotonic offset past its anchor."""
    snap = TelemetrySnapshot(rank=rank, anchor_wall=anchor_wall,
                             anchor_mono=anchor_mono)
    snap.events = [SpanEvent(f"e@{offset}", anchor_mono + offset, 0.0, "t",
                             instant=True) for offset in offsets]
    return snap


class TestMarkTimeline:
    """Fig. 3: the per-rank marks merged onto one axis through each rank's
    single wall/monotonic anchor pair."""

    def test_ranks_interleave_by_anchored_monotonic_time(self):
        # Both ranks anchored at wall=1000 with monotonic clocks hours
        # apart (different boot times).  Only the offsets past the anchor
        # place an event, so whatever the slave's wall clock did after the
        # anchor was taken (an NTP step, say) cannot reorder anything.
        master = _marked(0, 1000.0, 50.0, [0.0, 2.0, 4.0])
        slave = _marked(1, 1000.0, 70000.0, [1.0, 3.0, 5.0])
        timeline = mark_timeline(merge_telemetry([slave, master]))
        assert [actor for _at, actor, _event in timeline] == [
            "master", "slave-1", "master", "slave-1", "master", "slave-1"]
        assert [at for at, _actor, _event in timeline] == pytest.approx(
            [1000.0, 1001.0, 1002.0, 1003.0, 1004.0, 1005.0])

    def test_spans_are_not_marks(self):
        snap = _marked(1, 0.0, 0.0, [1.0])
        snap.events.append(SpanEvent("cell.train", 0.5, 0.2, "t"))
        (entry,) = mark_timeline(merge_telemetry([snap]))
        assert entry[2].name == "e@1.0"

    def test_format_shows_rebased_times_actor_and_detail(self):
        slave = _marked(2, 1000.0, 9000.0, [0.0, 1.0])
        slave.events[1] = SpanEvent("train one iteration", 9001.0, 0.0, "t",
                                    {"detail": "iteration 0"}, instant=True)
        first, second = format_mark_timeline(merge_telemetry([slave])).splitlines()
        assert first == "[   0.0000s] slave-2    e@0.0"
        assert second == "[   1.0000s] slave-2    train one iteration (iteration 0)"

    def test_empty(self):
        assert "empty" in format_mark_timeline(None)
        assert mark_timeline(merge_telemetry([])) == []


class TestPrometheus:
    def test_exposition_round_trips_through_the_parser(self):
        merged = _two_rank_merged()
        samples = parse_prometheus(to_prometheus(merged))
        assert samples[("repro_mpi_messages_sent", (("rank", "1"),))] == 4.0
        assert samples[("repro_mpi_messages_sent", (("rank", "2"),))] == 6.0
        assert samples[("repro_serving_queue_depth", (("rank", "2"),))] == 3.0
        # Span totals export as _seconds/_calls pairs, full float fidelity.
        rank1 = merged.per_rank(1)
        assert samples[("repro_cell_train_seconds", (("rank", "1"),))] == (
            rank1.span_totals["cell.train"])
        assert samples[("repro_cell_train_calls", (("rank", "1"),))] == 1.0

    def test_type_lines_present(self):
        text = to_prometheus(_two_rank_merged())
        assert "# TYPE repro_mpi_messages_sent counter" in text
        assert "# TYPE repro_serving_queue_depth gauge" in text

    def test_launcher_rank_label_is_none(self):
        launcher = _rank_snapshot(None, [], counters={"socket.workers_admitted": 2.0})
        samples = parse_prometheus(to_prometheus(merge_telemetry([launcher])))
        assert samples[("repro_socket_workers_admitted", (("rank", "none"),))] == 2.0

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_prometheus("this is not an exposition line at all {{{")

    def test_empty_merged_produces_empty_exposition(self):
        assert to_prometheus(MergedTelemetry()) == ""
        assert parse_prometheus("") == {}


class TestJsonlWriter:
    def test_appends_sorted_flushed_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = JsonlWriter(str(path))
        writer.write({"b": 2, "a": 1})
        writer.write({"event": "x"})
        writer.close()
        lines = path.read_text().splitlines()
        assert lines[0] == '{"a": 1, "b": 2}'  # keys sorted
        assert json.loads(lines[1]) == {"event": "x"}

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for i in range(2):
            writer = JsonlWriter(str(path))
            writer.write({"run": i})
            writer.close()
        assert len(path.read_text().splitlines()) == 2

    def test_close_without_write_is_a_noop(self, tmp_path):
        writer = JsonlWriter(str(tmp_path / "never.jsonl"))
        writer.close()
        assert not (tmp_path / "never.jsonl").exists()


class TestSummary:
    def test_routine_totals_and_overlap(self):
        # rank 1 exchanges 0.0-0.1 while rank 2 trains 0.05-0.95: half of
        # that exchange is hidden behind the other rank's training.
        trace = to_perfetto(_two_rank_merged())
        summary = summarize(trace)
        assert summary["ranks"] == {1: "rank 1", 2: "rank 2"}
        assert summary["routines"]["train"]["calls"] == 2
        assert summary["routines"]["train"]["seconds"] == pytest.approx(1.7, abs=1e-6)
        assert summary["routines"]["gather"]["seconds"] == pytest.approx(0.3, abs=1e-6)
        assert summary["overlap_s"] == pytest.approx(0.05, abs=1e-6)
        assert summary["exchange_s"] == pytest.approx(0.3, abs=1e-6)

    def test_slowest_cells_ranked_by_train_time(self):
        summary = summarize(to_perfetto(_two_rank_merged()))
        cells = [slot["cell"] for slot in summary["slowest_cells"]]
        assert cells == [1, 0]  # 0.9s beats 0.8s

    def test_format_summary_mentions_the_table4_vocabulary(self):
        report = format_summary(summarize(to_perfetto(_two_rank_merged())))
        for routine in ("gather", "train", "update_genomes", "mutate"):
            assert routine in report
        assert "overlap" in report

    def test_empty_trace_summarizes_cleanly(self):
        summary = summarize({"traceEvents": []})
        assert summary["events"] == 0
        assert summary["wall_s"] == 0.0
        assert format_summary(summary)  # renders without raising
