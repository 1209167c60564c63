"""End-to-end telemetry: traced runs through every backend, merged per-rank
snapshots, and the Perfetto trace file a 2x2 socket run writes to disk.

Grids are 2x2 (5 ranks) throughout — matching the rest of the integration
suite's shape for distributed runs.
"""

import json

import pytest

from repro.api import Experiment
from repro.telemetry import summarize, to_perfetto, write_trace
from tests.conftest import make_quick_config


@pytest.fixture(scope="module")
def module_dataset():
    import os

    os.environ.setdefault("REPRO_CACHE_DIR", "/tmp/repro-test-cache")
    from repro.data.dataset import ArrayDataset
    from repro.data.synthetic import load_synthetic_mnist
    from repro.data.transforms import to_tanh_range

    raw = load_synthetic_mnist(400, seed=42)
    return ArrayDataset(to_tanh_range(raw.images), raw.labels)


class TestSequentialTraced:
    def test_trace_level_yields_spans_counters_and_events(
            self, telemetry_bus, module_dataset):
        config = make_quick_config(iterations=2)
        result = (Experiment(config).dataset(module_dataset)
                  .backend("sequential").telemetry("trace").run())
        merged = result.telemetry
        assert merged is not None
        # Table IV routines all appear, each counted once per cell per
        # iteration (4 cells x 2 iterations) however many stretches it ran
        # in; the sequential gather is one span per iteration, counted for
        # its four cells.
        for span in ("cell.train", "cell.update_genomes", "cell.mutate",
                     "exchange.gather"):
            assert merged.span_counts[span] == 8, span
        assert merged.counter("optim.steps") > 0
        assert merged.counter("kernels.forward") > 0
        assert merged.events > 0  # trace level keeps the timeline

    def test_basic_level_keeps_totals_but_drops_the_timeline(
            self, telemetry_bus, module_dataset):
        config = make_quick_config(iterations=1)
        result = (Experiment(config).dataset(module_dataset)
                  .backend("sequential").telemetry("basic").run())
        merged = result.telemetry
        assert merged.span_counts["cell.train"] == 4  # one per cell per step
        assert merged.events == 0

    def test_off_by_default(self, telemetry_bus, module_dataset):
        config = make_quick_config(iterations=1)
        result = (Experiment(config).dataset(module_dataset)
                  .backend("sequential").run())
        assert result.telemetry is None

    def test_trace_path_writes_perfetto_json(
            self, telemetry_bus, module_dataset, tmp_path):
        path = tmp_path / "seq-trace.json"
        config = make_quick_config(iterations=1)
        (Experiment(config).dataset(module_dataset)
         .backend("sequential").telemetry(trace_path=path).run())
        trace = json.loads(path.read_text())
        assert any(e["ph"] == "X" and e["name"] == "cell.train"
                   for e in trace["traceEvents"])


class TestDistributedTraced:
    def test_threaded_run_merges_per_rank_snapshots(
            self, telemetry_bus, module_dataset):
        config = make_quick_config(2, 2, iterations=2)
        result = (Experiment(config).dataset(module_dataset)
                  .backend("threaded").telemetry("trace").run())
        merged = result.telemetry
        # Master (rank 0) plus four slaves, launcher last if present.
        worker_ranks = [r for r in merged.ranks if r is not None]
        assert worker_ranks == [0, 1, 2, 3, 4]
        # Each slave trained its one cell for two iterations and gathered
        # neighbours each iteration.
        for rank in (1, 2, 3, 4):
            snap = merged.per_rank(rank)
            assert snap.span_counts["cell.train"] == 2
            assert snap.span_counts["exchange.gather"] == 2
        # Transport counters flowed through the bus.
        assert merged.counter("mpi.messages_sent") > 0
        assert merged.counter("mpi.bytes_sent") > 0

    def test_telemetry_matches_sequential_counters(
            self, telemetry_bus, module_dataset):
        """Backend equivalence extends to the telemetry: the same algorithm
        does the same work, so compute counters must agree bit for bit
        (exchange counters exist only on the distributed path)."""
        config = make_quick_config(2, 2, iterations=2)
        sequential = (Experiment(config).dataset(module_dataset)
                      .backend("sequential").telemetry("basic").run())
        telemetry_bus.reset()
        threaded = (Experiment(config).dataset(module_dataset)
                    .backend("threaded").telemetry("basic").run())
        for counter in ("optim.steps", "kernels.forward", "kernels.backward"):
            assert (sequential.telemetry.counter(counter)
                    == threaded.telemetry.counter(counter) > 0), counter
        assert threaded.telemetry.counter("exchange.genomes_sent") > 0

    def test_socket_run_writes_one_merged_trace_with_per_rank_tracks(
            self, telemetry_bus, module_dataset, tmp_path):
        """The PR's acceptance bar: a traced 2-worker socket run produces a
        single merged trace.json whose per-rank tracks carry train and
        exchange spans."""
        path = tmp_path / "trace.json"
        config = make_quick_config(2, 2, iterations=2)
        result = (Experiment(config)
                  .dataset("synthetic-mnist")
                  .backend("socket", hosts="127.0.0.1:3,127.0.0.1:2")
                  .telemetry(trace_path=path)
                  .run())
        assert result.complete
        merged = result.telemetry
        worker_ranks = [r for r in merged.ranks if r is not None]
        assert worker_ranks == [0, 1, 2, 3, 4]

        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        # One named track per rank.
        track_names = {e["args"]["name"] for e in events
                       if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"rank 1", "rank 2", "rank 3", "rank 4"} <= track_names
        # Every slave rank's track shows training and exchange spans.
        for rank in (1, 2, 3, 4):
            names = {e["name"] for e in events
                     if e["ph"] == "X" and e["pid"] == rank}
            assert "cell.train" in names
            assert "exchange.gather" in names
        # ts monotone per track — loads cleanly in Perfetto.
        tracks = {}
        for e in events:
            if e["ph"] == "X":
                tracks.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        for ts in tracks.values():
            assert ts == sorted(ts)
        # The repro-trace summary digests it.
        summary = summarize(trace)
        assert summary["routines"]["train"]["calls"] >= 8
        assert summary["wall_s"] > 0


class TestRunResultExport:
    def test_merged_view_feeds_both_exporters(
            self, telemetry_bus, module_dataset, tmp_path):
        from repro.telemetry import parse_prometheus, to_prometheus

        config = make_quick_config(iterations=1)
        result = (Experiment(config).dataset(module_dataset)
                  .backend("sequential").telemetry("trace").run())
        trace = to_perfetto(result.telemetry)
        assert trace["traceEvents"]
        samples = parse_prometheus(to_prometheus(result.telemetry))
        assert any(name == "repro_cell_train_seconds"
                   for name, _labels in samples)
        written = write_trace(tmp_path / "t.json", result.telemetry)
        assert written == trace
