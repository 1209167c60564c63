"""Tests for the backend/dataset/loss registries behind repro.api."""

import dataclasses

import pytest

from repro.api import BACKENDS, DATASETS, LOSSES, Experiment, RegistryError
from repro.config import ConfigError, default_config
from repro.nn import loss_by_name
from repro.nn.losses import GANLoss
from repro.registry import Registry

from tests.conftest import make_quick_config


class TestRegistryCore:
    def test_builtin_names_known_without_import(self):
        registry = Registry("thing")
        registry.register_lazy("lazy", "json:loads")
        assert "lazy" in registry
        assert registry.known() == {"lazy"}

    def test_lazy_entry_resolves_on_create(self):
        registry = Registry("thing")
        registry.register_lazy("loads", "json:loads")
        assert registry.create("loads", '{"a": 1}') == {"a": 1}

    def test_register_and_create(self):
        registry = Registry("thing")
        registry.register("double", lambda x: 2 * x)
        assert registry.create("double", 21) == 42

    def test_duplicate_rejected_unless_overwritten(self):
        registry = Registry("thing")
        registry.register("x", int)
        with pytest.raises(RegistryError):
            registry.register("x", float)
        registry.register("x", float, overwrite=True)
        assert registry.get("x") is float

    def test_unknown_name_lists_known(self):
        registry = Registry("thing")
        registry.register("known", int)
        with pytest.raises(RegistryError, match="known"):
            registry.get("missing")

    def test_unregister(self):
        registry = Registry("thing")
        registry.register("x", int)
        registry.unregister("x")
        assert "x" not in registry
        with pytest.raises(RegistryError):
            registry.unregister("x")

    def test_non_callable_factory_rejected(self):
        registry = Registry("thing")
        with pytest.raises(RegistryError):
            registry.register("bad", 42)

    def test_first_resolution_of_a_lazy_entry_is_race_free(self):
        """The rank threads of one worker all resolve the loss at their
        first cell build: every one of them must get the factory, whichever
        thread moves the entry out of the lazy map."""
        import json
        import sys
        import threading

        def race(workers=8):
            registry = Registry("thing")
            registry.register_lazy("loads", "json:loads")
            barrier = threading.Barrier(workers)
            failures = []

            def resolve():
                barrier.wait(timeout=10)
                try:
                    assert registry.get("loads") is json.loads
                except BaseException as exc:  # noqa: BLE001 - collected
                    failures.append(exc)

            threads = [threading.Thread(target=resolve) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert registry.known() == {"loads"}
            return failures

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            failures = [exc for _ in range(300) for exc in race()]
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:3]


class TestBuiltins:
    def test_backends(self):
        assert {"sequential", "process", "threaded", "socket"} <= BACKENDS.known()

    def test_socket_backend_resolves(self):
        from repro.api.backends import SocketBackend

        backend = BACKENDS.create("socket", hosts="127.0.0.1:5")
        assert isinstance(backend, SocketBackend)
        assert backend.runner_options == {"hosts": "127.0.0.1:5"}

    def test_socket_validates_in_config(self):
        """ExecutionSettings checks the registry, so the new backend is a
        legal config value end to end."""
        import dataclasses

        from repro.config import default_config

        config = default_config()
        execution = dataclasses.replace(config.execution, backend="socket")
        replaced = dataclasses.replace(config, execution=execution)
        assert replaced.execution.backend == "socket"

    def test_datasets(self):
        assert {"synthetic-mnist", "synthetic-shapes"} <= DATASETS.known()

    def test_losses_match_loss_by_name(self):
        for name in ("bce", "mse", "heuristic"):
            assert name in LOSSES
            assert type(LOSSES.create(name)) is type(loss_by_name(name))


class _ConstantLoss(GANLoss):
    name = "constant"

    def discriminator_loss(self, real_logits, fake_logits):
        return (real_logits * 0.0).sum()

    def generator_loss(self, fake_logits):
        return (fake_logits * 0.0).sum()


class TestExtensibility:
    """A registered component is usable end to end with zero core edits."""

    def test_custom_loss_validates_in_config_and_resolves(self):
        LOSSES.register("constant", _ConstantLoss)
        try:
            config = default_config()
            training = dataclasses.replace(config.training, loss_function="constant")
            config = dataclasses.replace(config, training=training)  # no ConfigError
            assert config.training.loss_function == "constant"
            assert isinstance(loss_by_name("constant"), _ConstantLoss)
        finally:
            LOSSES.unregister("constant")

    def test_unregistered_loss_still_rejected(self):
        config = default_config()
        with pytest.raises(ConfigError, match="nope"):
            dataclasses.replace(
                config,
                training=dataclasses.replace(config.training, loss_function="nope"),
            )

    def test_custom_loss_trains(self, cache_dir, monkeypatch):
        """...on the kernels: the tape sees the loss's logits and nothing
        else (no network forward goes through ``Tensor``), and the input
        ``_ConstantLoss.discriminator_loss`` ignores gets a zero gradient."""
        from repro.nn import Linear

        def no_tape_forward(self, x):
            raise AssertionError("a network was forwarded through the tape")

        monkeypatch.setattr(Linear, "forward", no_tape_forward)
        LOSSES.register("constant", _ConstantLoss)
        try:
            config = make_quick_config(iterations=1)
            result = Experiment(config).loss("constant").backend("sequential").run()
            assert result.iterations_run == 1
            assert all(g.loss_name == "constant"
                       for g, _ in result.center_genomes)
        finally:
            LOSSES.unregister("constant")

    def test_plug_in_loss_digest_is_pinned_on_every_backend(self, cache_dir):
        """The quickstart's ``SmoothedBCELoss`` 2x2 run: one trajectory on
        all four backends, and the one the full tape trained before plug-in
        losses rode the kernels (digest recorded at commit 122d2e7)."""
        import hashlib
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "examples" / "api_quickstart.py"
        spec = importlib.util.spec_from_file_location("api_quickstart", path)
        quickstart = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(quickstart)
        LOSSES.register("smoothed-bce", quickstart.SmoothedBCELoss)
        try:
            for backend in ("sequential", "threaded", "process", "socket"):
                result = (Experiment(default_config(2, 2, seed=9))
                          .scaled(iterations=6, dataset_size=1000, batch_size=50,
                                  batches_per_iteration=2)
                          .loss("smoothed-bce").backend(backend).run())
                digest = hashlib.sha256()
                for g, d in result.center_genomes:
                    digest.update(g.parameters.tobytes())
                    digest.update(d.parameters.tobytes())
                assert digest.hexdigest() == (
                    "2a543059a35e8c73b55b1a9c2d1b0e87"
                    "632903313427f584a04b3526de4f4c7f"), backend
        finally:
            LOSSES.unregister("smoothed-bce")

    def test_custom_dataset_by_name(self, cache_dir):
        from repro.api.datasets import synthetic_mnist

        DATASETS.register("tiny", lambda config: synthetic_mnist(config).subset(
            list(range(200))))
        try:
            config = make_quick_config(iterations=1)
            experiment = Experiment(config).dataset("tiny")
            assert len(experiment.build_dataset()) == 200
        finally:
            DATASETS.unregister("tiny")

    def test_custom_backend_reachable_from_facade(self):
        from repro.api import RunResult, TrainerBackend
        from repro.coevolution.sequential import SequentialTrainer

        class RecordingBackend(TrainerBackend):
            name = "recording"

            def execute(self, ctx):
                trainer = SequentialTrainer(ctx.config, ctx.dataset)
                training = trainer.result(0.0)
                return RunResult(backend=self.name, training=training)

        BACKENDS.register("recording", RecordingBackend)
        try:
            config = make_quick_config(iterations=1)
            # A custom backend name is also a *valid configuration value*.
            result = Experiment(config).backend("recording").run()
            assert result.backend == "recording"
            assert result.config.execution.backend == "recording"
        finally:
            BACKENDS.unregister("recording")

    def test_unknown_backend_rejected_by_facade(self):
        with pytest.raises(RegistryError):
            Experiment().backend("warp-drive")

    def test_unknown_dataset_rejected_by_facade(self):
        with pytest.raises(RegistryError):
            Experiment().dataset("imagenet")
