"""The :class:`Experiment` facade — one front door for every substrate.

Builder style: start from a config (or the laptop-scale default), override
by name, pick a backend, attach callbacks, run::

    from repro.api import Experiment, JsonlMetrics

    result = (Experiment()
              .grid(3, 3)
              .scaled(iterations=8, dataset_size=4000)
              .loss("mustangs")
              .backend("process")
              .callbacks(JsonlMetrics("metrics.jsonl"))
              .run())
    result.save_checkpoint("model.npz")
    server_ensemble = result.to_servable()

Backends, datasets and losses resolve against the registries in
:mod:`repro.registry`, so a scenario the core has never heard of —
``LOSSES.register("wgan", ...)``, ``DATASETS.register("celeba-like", ...)``
— plugs in without touching this module.  The same seed produces
bit-identical final genomes on ``sequential``, ``threaded`` and ``process``
(the paper's equivalence guarantee, extended through the facade).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any

from repro.api.backends import RunContext, TrainerBackend
from repro.api.callbacks import Callback, CallbackList
from repro.coevolution.sequential import RunResult
from repro.config import ExperimentConfig, default_config
from repro.data.dataset import ArrayDataset
from repro.registry import BACKENDS, DATASETS, RegistryError

__all__ = ["Experiment", "DEFAULT_DATASET", "serve_checkpoint", "load_ensemble"]

#: Registry name of the corpus used when no dataset is selected.
DEFAULT_DATASET = "synthetic-mnist"


class Experiment:
    """Configure and run one cellular GAN training experiment."""

    def __init__(self, config: ExperimentConfig | None = None):
        self._config = config if config is not None else default_config()
        self._backend_name: str | None = None
        self._backend_options: dict[str, Any] = {}
        self._dataset_source: str | ArrayDataset | None = None
        self._dataset_options: dict[str, Any] = {}
        self._exchange_mode = "neighbors"
        self._callbacks: list[Callback] = []
        self._checkpoint = None
        self._telemetry_level: str | None = None
        self._trace_path: str | os.PathLike | None = None
        self._fault_policy: str = "abort"
        self._max_restarts: int = 0
        self._snapshot_every: int | None = None

    # -- alternate starting points ----------------------------------------

    @classmethod
    def from_checkpoint(cls, source: str | os.PathLike | Any) -> "Experiment":
        """Resume a checkpointed run (path or loaded ``TrainingCheckpoint``).

        The resumed experiment is pinned to the ``sequential`` backend, the
        only substrate with live restore semantics.
        """
        from repro.coevolution.checkpoint import TrainingCheckpoint, load_checkpoint

        checkpoint = (source if isinstance(source, TrainingCheckpoint)
                      else load_checkpoint(source))
        experiment = cls(checkpoint.config)
        experiment._checkpoint = checkpoint
        experiment._backend_name = "sequential"
        return experiment

    # -- config overrides (each returns self for chaining) ------------------

    def grid(self, rows: int, cols: int) -> "Experiment":
        """Use a ``rows x cols`` grid (tasks re-derived as cells + 1)."""
        self._config = self._config.with_grid(rows, cols)
        return self

    def seed(self, seed: int) -> "Experiment":
        self._config = dataclasses.replace(self._config, seed=seed)
        return self

    def scaled(self, **kwargs: Any) -> "Experiment":
        """Scale the workload (``iterations=``, ``dataset_size=``, ...)."""
        self._config = self._config.scaled(**kwargs)
        return self

    def loss(self, name: str) -> "Experiment":
        """Train with the named GAN loss (any registered name, or ``mustangs``)."""
        training = dataclasses.replace(self._config.training, loss_function=name)
        self._config = dataclasses.replace(self._config, training=training)
        return self

    def dtype(self, name: str) -> "Experiment":
        """Train under the named dtype policy (``float64``/``float32``/``mixed16``).

        ``float64`` is the bit-identical reference; ``float32`` halves the
        memory and roughly doubles the training throughput; ``mixed16``
        computes in float32 and exchanges/stores genomes in float16.
        """
        self._config = self._config.with_dtype(name)
        return self

    def exchange(self, mode: str) -> "Experiment":
        """Neighbor-exchange mode for distributed backends
        (``neighbors`` / ``allgather``)."""
        self._exchange_mode = mode
        return self

    def override(self, **fields: Any) -> "Experiment":
        """Replace top-level config fields (``dataset_size=``, ``seed=``, ...)."""
        self._config = dataclasses.replace(self._config, **fields)
        return self

    # -- component selection ------------------------------------------------

    def backend(self, name: str, **options: Any) -> "Experiment":
        """Select the execution substrate by registry name.

        Extra keyword options go to the backend factory (e.g.
        ``backend("process", miss_limit=4)`` tightens failure detection).
        """
        if name not in BACKENDS:
            raise RegistryError(
                f"unknown backend {name!r}; known: {sorted(BACKENDS.known())}")
        self._backend_name = name
        self._backend_options = dict(options)
        return self

    def dataset(self, source: str | ArrayDataset, **options: Any) -> "Experiment":
        """Select the training corpus: a registry name or a ready dataset.

        Passing a built :class:`ArrayDataset` instance shares it as-is —
        useful when several runs must consume identical data (Table III).
        """
        if isinstance(source, str) and source not in DATASETS:
            raise RegistryError(
                f"unknown dataset {source!r}; known: {sorted(DATASETS.known())}")
        self._dataset_source = source
        self._dataset_options = dict(options)
        return self

    def fault_policy(self, policy: str = "abort", *, max_restarts: int = 0,
                     snapshot_every: int | None = None) -> "Experiment":
        """Choose what a distributed run does when a rank dies mid-run.

        ``abort`` (the default) keeps the legacy contract: survivors are
        stopped and the run reports the dead ranks.  ``degrade`` finishes the
        run with the dead ranks' cells frozen at their last checkpoint
        (:attr:`RunResult.degraded_ranks` names them).  ``recover`` migrates
        the dead ranks' cells onto surviving slaves — or, on the socket
        backend with ``max_restarts > 0``, onto freshly respawned replacement
        workers — and resumes them from their latest in-run checkpoint.

        ``snapshot_every`` is the per-cell checkpoint cadence in iterations
        (default: every iteration for non-abort policies, off for abort —
        the abort default keeps the no-fault message flow byte-identical to
        runs without recovery enabled).
        """
        from repro.parallel.recovery import validate_fault_policy

        validate_fault_policy(policy)
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self._fault_policy = policy
        self._max_restarts = max_restarts
        self._snapshot_every = snapshot_every
        return self

    def telemetry(self, level: str = "basic",
                  trace_path: str | os.PathLike | None = None) -> "Experiment":
        """Enable the :mod:`repro.telemetry` bus for this run.

        ``level`` is ``off`` (counters disabled, near-zero cost),
        ``basic`` (span totals + counters: enough for the Table IV view,
        :meth:`RunResult.profile`) or ``trace`` (individual span and
        protocol-mark events: the Fig. 3 lanes, exportable to Perfetto).
        Passing ``trace_path`` implies ``trace`` level and writes the merged
        Chrome/Perfetto trace there after the run;
        :attr:`RunResult.telemetry` carries the merged view either way.
        """
        from repro.telemetry import bus

        if trace_path is not None:
            level = "trace"
        if level not in bus.LEVELS:
            raise ValueError(
                f"unknown telemetry level {level!r}; expected one of "
                f"{sorted(bus.LEVELS)}")
        self._telemetry_level = level
        self._trace_path = trace_path
        return self

    def callbacks(self, *callbacks: Callback) -> "Experiment":
        """Attach run-loop callbacks (appended in order)."""
        self._callbacks.extend(callbacks)
        return self

    add_callback = callbacks

    # -- resolution ----------------------------------------------------------

    @property
    def checkpoint(self):
        """The checkpoint this experiment resumes from (None for fresh runs)."""
        return self._checkpoint

    @property
    def config(self) -> ExperimentConfig:
        """The fully resolved configuration this experiment will run."""
        name = self._backend_name or self._config.execution.backend
        if self._config.execution.backend == name:
            return self._config
        execution = dataclasses.replace(self._config.execution, backend=name)
        return dataclasses.replace(self._config, execution=execution)

    def describe(self) -> str:
        """The resolved configuration as JSON (what ``repro config`` prints)."""
        return self.config.to_json()

    def build_dataset(self) -> ArrayDataset:
        """Materialize the training corpus this experiment will consume."""
        source = self._dataset_source
        if isinstance(source, str):
            return DATASETS.create(source, self.config, **self._dataset_options)
        if source is None:
            return DATASETS.create(DEFAULT_DATASET, self.config)
        return source

    def dataset_spec(self) -> tuple[str, dict] | None:
        """Registry name + options of the corpus, when it has one.

        ``None`` for ready-made :class:`ArrayDataset` objects — those can
        only travel by value.
        """
        source = self._dataset_source
        if isinstance(source, str):
            return source, dict(self._dataset_options)
        if source is None:
            return DEFAULT_DATASET, {}
        return None

    # -- execution ------------------------------------------------------------

    def run(self) -> RunResult:
        """Resolve backend + dataset, drive the run loop, return the result."""
        config = self.config
        options = dict(self._backend_options)
        fault_requested = (self._fault_policy != "abort" or self._max_restarts
                           or self._snapshot_every is not None)
        if fault_requested:
            if config.execution.backend == "sequential":
                raise ValueError(
                    "fault_policy applies to distributed backends; the "
                    "'sequential' backend has no ranks to lose")
            options.setdefault("fault_policy", self._fault_policy)
            if self._max_restarts:
                options.setdefault("max_restarts", self._max_restarts)
            if self._snapshot_every is not None:
                options.setdefault("snapshot_every", self._snapshot_every)
        backend = BACKENDS.create(config.execution.backend, **options)
        if not isinstance(backend, TrainerBackend):
            raise TypeError(
                f"backend factory for {config.execution.backend!r} produced "
                f"{type(backend).__name__}, not a TrainerBackend")
        spec = self.dataset_spec()
        # Spawn-based substrates render registry datasets per node; building
        # the arrays here too would be pure wasted work (and wire bytes).
        renders_remotely = (getattr(backend, "renders_remotely", False)
                            and spec is not None)
        ctx = RunContext(
            config=config,
            dataset=None if renders_remotely else self.build_dataset(),
            callbacks=CallbackList(self._callbacks),
            backend_name=backend.name,
            exchange_mode=self._exchange_mode,
            dataset_spec=spec,
            checkpoint=self._checkpoint,
        )
        if self._telemetry_level is not None:
            from repro.telemetry import bus

            # The level is scoped to this run: a leaked global level would
            # make every later run in the process record (and, distributed,
            # ship trace events home), so restore it and drain the buffers
            # this run consumed — backends snapshot before returning.
            prior_level = bus.level_name()
            bus.set_level(self._telemetry_level)
            try:
                result = backend.execute(ctx)
            finally:
                bus.set_level(prior_level)
                bus.reset()
        else:
            result = backend.execute(ctx)
        if self._trace_path is not None and result.telemetry is not None:
            from repro.telemetry import write_trace

            write_trace(self._trace_path, result.telemetry)
        return result


# -- checkpoint-driven service entry points (used by the CLI) ----------------

def serve_checkpoint(path: str | os.PathLike, **load_test_options: Any):
    """Load a checkpoint into the serving stack and replay a traffic trace.

    Thin pass-through to :func:`repro.serving.loadtest.run_load_test`;
    returns the :class:`~repro.serving.server.ServerStats`.
    """
    from repro.serving.loadtest import run_load_test

    return run_load_test(os.fspath(path), **load_test_options)


def load_ensemble(path: str | os.PathLike, cell: int = 0):
    """Rebuild a servable generator ensemble from a checkpoint file.

    Returns ``(checkpoint, ensemble)`` so callers can both report on the
    checkpoint and sample from the ensemble.
    """
    from repro.coevolution.checkpoint import load_checkpoint
    from repro.serving.registry import ServableEnsemble

    checkpoint = load_checkpoint(path)
    return checkpoint, ServableEnsemble.from_checkpoint(checkpoint, cell=cell)
