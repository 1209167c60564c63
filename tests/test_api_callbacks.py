"""Tests for the callback-driven run loop and the shipped callbacks."""

import json

import numpy as np
import pytest

from repro.api import (
    Callback,
    CallbackList,
    EarlyStopping,
    Experiment,
    JsonlMetrics,
    PeriodicCheckpoint,
)

from tests.conftest import make_quick_config


class RecordingCallback(Callback):
    """Records every hook invocation in order."""

    def __init__(self):
        self.events = []

    def on_run_start(self, ctx):
        self.events.append(("run_start",))

    def on_exchange(self, ctx, iteration):
        self.events.append(("exchange", iteration))

    def on_iteration_end(self, ctx, iteration, reports):
        self.events.append(("iteration_end", iteration, len(reports)))

    def on_checkpoint(self, ctx, path, checkpoint):
        self.events.append(("checkpoint", checkpoint.iteration))

    def on_run_end(self, ctx, result):
        self.events.append(("run_end", result.iterations_run))

    def kinds(self):
        return [event[0] for event in self.events]


class TestHookSequence:
    def test_sequential_fires_live_in_order(self, cache_dir):
        config = make_quick_config(iterations=2)
        recorder = RecordingCallback()
        Experiment(config).backend("sequential").callbacks(recorder).run()
        assert recorder.kinds() == [
            "run_start",
            "exchange", "iteration_end",
            "exchange", "iteration_end",
            "run_end",
        ]
        assert recorder.events[1] == ("exchange", 1)
        assert recorder.events[2] == ("iteration_end", 1, config.coevolution.cells)
        assert recorder.events[-1] == ("run_end", 2)

    def test_distributed_replays_identical_sequence(self, cache_dir):
        config = make_quick_config(iterations=2)
        live = RecordingCallback()
        replayed = RecordingCallback()
        Experiment(config).backend("sequential").callbacks(live).run()
        Experiment(config).backend("threaded").callbacks(replayed).run()
        assert live.events == replayed.events

    def test_recovered_run_replays_each_iteration_once(self, cache_dir):
        """A cell restored from its snapshot has lost the reports from
        before it, so its report list is shorter than its neighbours': the
        replay still fires each hook once per iteration, in order, with
        only that iteration's reports."""

        class ReplayRecorder(Callback):
            def __init__(self):
                self.exchanges, self.ends = [], []

            def on_exchange(self, ctx, iteration):
                self.exchanges.append(iteration)

            def on_iteration_end(self, ctx, iteration, reports):
                self.ends.append((iteration, [r.iteration for r in reports]))

        config = make_quick_config(iterations=6)
        recorder = ReplayRecorder()
        result = (Experiment(config)
                  .backend("threaded", fault_at={0: 2},
                           heartbeat_interval_s=0.05, miss_limit=4)
                  .fault_policy("recover")
                  .callbacks(recorder)
                  .run())
        iterations = [iteration for iteration, _ in recorder.ends]
        assert iterations == recorder.exchanges == list(range(1, 7))
        for iteration, carried in recorder.ends:
            assert carried and set(carried) == {iteration}
        assert (sum(len(carried) for _, carried in recorder.ends)
                == sum(len(reports) for reports in result.cell_reports))
        assert result.iteration == result.iterations_run == 6

    def test_callback_list_dispatch_order(self):
        first, second = RecordingCallback(), RecordingCallback()
        callbacks = CallbackList([first, second])
        callbacks.on_run_start(None)
        assert first.kinds() == second.kinds() == ["run_start"]

    def test_non_callback_rejected(self):
        with pytest.raises(TypeError):
            CallbackList([object()])


class TestEarlyStopping:
    def test_stops_on_plateau(self, cache_dir):
        config = make_quick_config(iterations=8)
        # An impossible improvement threshold plateaus immediately: the
        # first evaluation sets the baseline, the second exhausts patience.
        stopper = EarlyStopping(metric="fitness", patience=1, min_delta=1e9)
        result = (Experiment(config).backend("sequential")
                  .callbacks(stopper).run())
        assert result.stopped_early
        assert result.iterations_run == 2
        assert stopper.stopped_at == 2
        assert len(stopper.history) == 2

    def test_no_stop_when_patience_not_exhausted(self, cache_dir):
        config = make_quick_config(iterations=2)
        stopper = EarlyStopping(metric="fitness", patience=5, min_delta=1e9)
        result = (Experiment(config).backend("sequential")
                  .callbacks(stopper).run())
        assert not result.stopped_early
        assert result.iterations_run == 2

    def test_fid_metric_evaluates(self, cache_dir):
        config = make_quick_config(iterations=2)
        stopper = EarlyStopping(metric="fid", patience=99, fid_samples=32,
                                classifier_epochs=1)
        Experiment(config).backend("sequential").callbacks(stopper).run()
        assert len(stopper.history) == 2
        assert all(np.isfinite(value) for _, value in stopper.history)

    def test_fid_does_not_perturb_training(self, cache_dir):
        """Metric evaluation must consume no cell RNG: genomes unchanged."""
        config = make_quick_config(iterations=2)
        plain = Experiment(config).backend("sequential").run()
        watched = (Experiment(config).backend("sequential")
                   .callbacks(EarlyStopping(metric="fid", patience=99,
                                            fid_samples=16,
                                            classifier_epochs=1))
                   .run())
        for (a, _), (b, _) in zip(plain.center_genomes, watched.center_genomes):
            assert np.array_equal(a.parameters, b.parameters)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(metric="accuracy")

    def test_state_resets_between_runs(self, cache_dir):
        """A reused instance must stop the second run too, not stay latched."""
        config = make_quick_config(iterations=4)
        stopper = EarlyStopping(metric="fitness", patience=1, min_delta=1e9)
        experiment = Experiment(config).backend("sequential").callbacks(stopper)
        first = experiment.run()
        second = experiment.run()
        assert first.stopped_early and second.stopped_early
        assert first.iterations_run == second.iterations_run == 2
        assert len(stopper.history) == 2


class TestPeriodicCheckpoint:
    def test_writes_every_n_iterations(self, cache_dir, tmp_path):
        config = make_quick_config(iterations=4)
        path = tmp_path / "periodic.npz"
        recorder = RecordingCallback()
        checkpointer = PeriodicCheckpoint(path, every=2)
        Experiment(config).backend("sequential").callbacks(
            checkpointer, recorder).run()
        # Iterations 2 and 4 plus the end-of-run snapshot; only the mid-run
        # writes dispatch on_checkpoint (the end write happens after other
        # callbacks' on_run_end, so a hook there would be out of order).
        assert checkpointer.writes == 3
        assert path.exists()
        assert [e for e in recorder.events if e[0] == "checkpoint"] == [
            ("checkpoint", 2), ("checkpoint", 4)]

    def test_checkpoint_resumes(self, cache_dir, tmp_path):
        from repro.coevolution.checkpoint import load_checkpoint

        config = make_quick_config(iterations=3)
        path = tmp_path / "resume.npz"
        stopper = EarlyStopping(metric="fitness", patience=1, min_delta=1e9)
        Experiment(config).backend("sequential").callbacks(
            PeriodicCheckpoint(path, every=1, at_end=False), stopper).run()
        # The stopper fired at iteration 2, after that iteration's snapshot.
        checkpoint = load_checkpoint(path)
        assert checkpoint.iteration == 2
        assert checkpoint.remaining_iterations == 1

    def test_end_of_run_checkpoint_works_distributed(self, cache_dir, tmp_path):
        from repro.coevolution.checkpoint import load_checkpoint

        config = make_quick_config(iterations=2)
        path = tmp_path / "dist.npz"
        Experiment(config).backend("threaded").callbacks(
            PeriodicCheckpoint(path)).run()
        assert load_checkpoint(path).iteration == 2


class TestJsonlMetrics:
    def test_streams_one_line_per_event(self, cache_dir, tmp_path):
        config = make_quick_config(iterations=2)
        path = tmp_path / "metrics.jsonl"
        Experiment(config).backend("sequential").callbacks(
            JsonlMetrics(path)).run()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in events] == [
            "run_start", "iteration", "iteration", "run_end"]
        assert events[0]["grid"] == [2, 2]
        assert events[1]["iteration"] == 1
        assert len(events[1]["cells"]) == config.coevolution.cells
        assert events[-1]["iterations_run"] == 2
        assert events[-1]["complete"] is True

    def test_run_end_is_the_final_event_with_checkpointing(self, cache_dir,
                                                           tmp_path):
        """The end-of-run checkpoint must not append events after run_end."""
        config = make_quick_config(iterations=2)
        metrics_path = tmp_path / "metrics.jsonl"
        Experiment(config).backend("sequential").callbacks(
            JsonlMetrics(metrics_path),
            PeriodicCheckpoint(tmp_path / "model.npz", every=1),
        ).run()
        events = [json.loads(line)["event"]
                  for line in metrics_path.read_text().splitlines()]
        assert events[-1] == "run_end"
        assert events == ["run_start", "iteration", "checkpoint",
                          "iteration", "checkpoint", "run_end"]

    def test_distributed_stream_matches_sequential(self, cache_dir, tmp_path):
        config = make_quick_config(iterations=2)
        seq_path = tmp_path / "seq.jsonl"
        dist_path = tmp_path / "dist.jsonl"
        Experiment(config).backend("sequential").callbacks(
            JsonlMetrics(seq_path)).run()
        Experiment(config).backend("threaded").callbacks(
            JsonlMetrics(dist_path)).run()

        def iteration_events(path):
            return [json.loads(line) for line in path.read_text().splitlines()
                    if json.loads(line)["event"] == "iteration"]

        assert iteration_events(seq_path) == iteration_events(dist_path)
