"""Tests for the Experiment facade: resolution, equivalence, resume."""


import numpy as np
import pytest

from repro.api import Callback, Experiment, RunResult
from repro.config import default_config

from tests.conftest import make_quick_config


def _genomes_equal(a, b) -> bool:
    return all(
        np.array_equal(ga.parameters, gb.parameters)
        and np.array_equal(da.parameters, db.parameters)
        for (ga, da), (gb, db) in zip(a, b)
    )


class TestBuilder:
    def test_default_config_is_the_laptop_default(self):
        assert Experiment().config == default_config()

    def test_fluent_overrides(self):
        experiment = (Experiment()
                      .grid(3, 3)
                      .seed(7)
                      .loss("mse")
                      .backend("threaded"))
        config = experiment.config
        assert config.coevolution.grid_size == (3, 3)
        assert config.execution.number_of_tasks == 10
        assert config.seed == 7
        assert config.training.loss_function == "mse"
        assert config.execution.backend == "threaded"

    def test_describe_is_valid_config_json(self):
        from repro.config import ExperimentConfig

        experiment = Experiment().grid(2, 2).backend("sequential")
        assert ExperimentConfig.from_json(experiment.describe()) == experiment.config

    def test_backend_name_flows_into_config(self):
        assert Experiment().backend("sequential").config.execution.backend == "sequential"

    def test_dataset_instance_shared_verbatim(self, cache_dir):
        config = make_quick_config()
        dataset = Experiment(config).build_dataset()
        assert Experiment(config).dataset(dataset).build_dataset() is dataset


class TestEquivalence:
    """The paper's sequential-vs-distributed guarantee, through the facade."""

    def test_sequential_matches_direct_trainer(self, cache_dir):
        from repro.coevolution.sequential import SequentialTrainer

        config = make_quick_config(iterations=2)
        facade = Experiment(config).backend("sequential").run()
        trainer = SequentialTrainer(config)
        direct = trainer.run()
        assert _genomes_equal(facade.center_genomes, direct.center_genomes)

    def test_sequential_matches_process(self, cache_dir):
        config = make_quick_config(iterations=2)
        sequential = Experiment(config).backend("sequential").run()
        process = Experiment(config).backend("process").run()
        assert process.complete
        assert _genomes_equal(sequential.center_genomes, process.center_genomes)
        for a, b in zip(sequential.mixture_weights, process.mixture_weights):
            assert np.array_equal(a, b)

    def test_sequential_matches_threaded(self, cache_dir):
        config = make_quick_config(iterations=2)
        sequential = Experiment(config).backend("sequential").run()
        threaded = Experiment(config).backend("threaded").run()
        assert _genomes_equal(sequential.center_genomes, threaded.center_genomes)


class TestRunResult:
    def test_common_fields_promoted(self, cache_dir):
        config = make_quick_config(iterations=1)
        result = Experiment(config).backend("sequential").run()
        assert isinstance(result, RunResult)
        assert result.config == Experiment(config).backend("sequential").config
        assert len(result.center_genomes) == config.coevolution.cells
        assert len(result.cell_reports) == config.coevolution.cells
        assert result.iterations_run == 1
        assert result.complete and result.dead_ranks == []
        assert 0 <= result.best_cell_index() < config.coevolution.cells
        assert "sequential run" in result.summary()

    @pytest.mark.parametrize("entry", ["sequential", "threaded", "process", "socket",
                                       "SequentialTrainer", "DistributedRunner"])
    def test_one_record_from_every_entry_point(self, cache_dir, entry):
        """Every trainer and backend returns the one run record (the
        genome equality across them is asserted by TestEquivalence)."""
        from repro.coevolution.sequential import SequentialTrainer
        from repro.parallel import DistributedRunner

        config = make_quick_config(iterations=1)
        if entry == "SequentialTrainer":
            result = SequentialTrainer(config).run()
        elif entry == "DistributedRunner":
            result = DistributedRunner(config, backend="threaded").run()
        else:
            result = Experiment(config).backend(entry).run()
        assert isinstance(result, RunResult)
        assert result.ok and result.complete
        assert result.iteration == result.iterations_run == 1
        assert len(result.center_genomes) == config.coevolution.cells

    def test_distributed_result_reachable(self, cache_dir):
        config = make_quick_config(iterations=1)
        result = Experiment(config).backend("threaded").run()
        assert set(result.outcome_placement) == {0, 1, 2, 3, 4}
        assert result.backend == "threaded"
        assert result.trainer is None
        assert result.iterations_run == 1

    def test_profile_is_a_view_over_the_run_telemetry(self, cache_dir, telemetry_bus):
        config = make_quick_config(iterations=1)
        result = Experiment(config).backend("sequential").telemetry("basic").run()
        total = result.profile(parallel=False)
        assert total.seconds("train") == result.telemetry.span_seconds("cell.train") > 0.0
        untimed = Experiment(config).backend("sequential").run()
        assert untimed.profile().totals == {}  # telemetry off: nothing to view

    def test_to_servable(self, cache_dir):
        config = make_quick_config(iterations=1)
        result = Experiment(config).backend("sequential").run()
        ensemble = result.to_servable()
        images = ensemble.sample(4, seed=1)
        assert images.shape == (4, config.network.output_neurons)

    def test_servable_carries_the_iteration_reached(self, cache_dir):
        """An early-stopped run serves the iteration it reached, as its
        checkpoint does, not the configured count."""

        class StopAtTwo(Callback):
            def on_iteration_end(self, ctx, iteration, reports):
                if iteration == 2:
                    ctx.request_stop()

        config = make_quick_config(iterations=8)
        result = (Experiment(config).backend("sequential")
                  .callbacks(StopAtTwo()).run())
        assert result.stopped_early
        assert result.to_servable().iteration == result.to_checkpoint().iteration == 2

    def test_checkpoint_roundtrip_any_backend(self, cache_dir, tmp_path):
        config = make_quick_config(iterations=2)
        for backend in ("sequential", "threaded"):
            result = Experiment(config).backend(backend).run()
            path = tmp_path / f"{backend}.npz"
            result.save_checkpoint(path)

            from repro.coevolution.checkpoint import load_checkpoint

            restored = load_checkpoint(path)
            assert restored.iteration == 2
            assert restored.remaining_iterations == 0
            assert _genomes_equal(restored.center_genomes, result.center_genomes)


class TestAbortedRuns:
    def test_aborted_distributed_checkpoint_stays_resumable(self, cache_dir):
        """A run that lost ranks must not checkpoint as 'finished'."""
        config = make_quick_config(iterations=50)  # long enough to abort
        result = (Experiment(config)
                  .backend("threaded", fault_at={0: 1},
                           heartbeat_interval_s=0.05, miss_limit=4,
                           timeout_s=120)
                  .run())
        assert not result.complete
        assert result.iteration == result.iterations_run < 50
        assert result.to_checkpoint().remaining_iterations > 0


class TestResume:
    def test_resume_runs_remaining_iterations(self, cache_dir, tmp_path):
        config = make_quick_config(iterations=3)
        # Train 1 of 3 iterations sequentially, snapshot, resume via facade.
        from repro.coevolution.checkpoint import TrainingCheckpoint, save_checkpoint
        from repro.coevolution.sequential import SequentialTrainer

        trainer = SequentialTrainer(config)
        trainer.run(iterations=1)
        path = tmp_path / "partial.npz"
        save_checkpoint(path, TrainingCheckpoint.from_trainer(trainer))

        experiment = Experiment.from_checkpoint(path)
        assert experiment.checkpoint.iteration == 1
        result = experiment.run()
        assert result.iterations_run == 2
        assert result.iteration == 3

    def test_resume_pins_sequential_backend(self, cache_dir, tmp_path):
        from repro.coevolution.checkpoint import TrainingCheckpoint, save_checkpoint
        from repro.coevolution.sequential import SequentialTrainer

        config = make_quick_config(iterations=2)
        trainer = SequentialTrainer(config)
        trainer.run(iterations=1)
        path = tmp_path / "partial.npz"
        save_checkpoint(path, TrainingCheckpoint.from_trainer(trainer))

        experiment = Experiment.from_checkpoint(path)
        assert experiment.config.execution.backend == "sequential"

    def test_distributed_backend_refuses_checkpoint(self, cache_dir, tmp_path):
        from repro.coevolution.checkpoint import TrainingCheckpoint, save_checkpoint
        from repro.coevolution.sequential import SequentialTrainer

        config = make_quick_config(iterations=2)
        trainer = SequentialTrainer(config)
        trainer.run(iterations=1)
        path = tmp_path / "partial.npz"
        save_checkpoint(path, TrainingCheckpoint.from_trainer(trainer))

        experiment = Experiment.from_checkpoint(path).backend("threaded")
        with pytest.raises(ValueError, match="resume"):
            experiment.run()
