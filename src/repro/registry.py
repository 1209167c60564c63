"""String-keyed component registries backing :mod:`repro.api`.

The paper's point is that one cellular coevolutionary algorithm runs over
interchangeable execution substrates; this module is where the
interchangeability lives.  Three registries — backends, datasets, losses —
map configuration names to factories, so a new scenario (a custom GAN loss,
a procedurally generated dataset, an experimental execution backend) is one
``register()`` call away and needs **zero core edits**:

    from repro.registry import LOSSES

    LOSSES.register("wgan", WassersteinLoss)
    config = default_config()            # loss_function="wgan" now validates
    Experiment(config).loss("wgan").run()

This module is deliberately a *leaf*: it imports nothing from the rest of
``repro``, so low-level modules (:mod:`repro.config.settings`,
:mod:`repro.nn.losses`) can consult it without import cycles.  The built-in
entries are registered **lazily** as ``"module:attribute"`` paths and only
imported when first created — name lookups (config validation, CLI
``choices=``) never pull in heavy modules.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "Registry",
    "RegistryError",
    "BackendRegistry",
    "DatasetRegistry",
    "LossRegistry",
    "DtypeRegistry",
    "DtypePolicy",
    "BACKENDS",
    "DATASETS",
    "LOSSES",
    "DTYPES",
    "dtype_policy",
]


class RegistryError(KeyError):
    """Raised when a name is not (or already) registered."""


class Registry:
    """A string-keyed map of factories with lazy built-in entries.

    ``register(name, factory)`` stores a callable; ``create(name, *a, **kw)``
    resolves the factory and calls it.  Built-ins are declared as
    ``register_lazy(name, "pkg.module:attr")`` and imported on first use.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: dict[str, Callable[..., Any]] = {}
        self._lazy: dict[str, str] = {}

    # -- registration -----------------------------------------------------

    def register(self, name: str, factory: Callable[..., Any], *,
                 overwrite: bool = False) -> Callable[..., Any]:
        """Register ``factory`` under ``name``; returns the factory so the
        call can double as a decorator: ``@LOSSES.register_decorator(...)``
        is spelled ``LOSSES.register("name", cls)`` or used inline."""
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} name must be a non-empty string")
        if not callable(factory):
            raise RegistryError(f"{self.kind} factory for {name!r} must be callable")
        if not overwrite and name in self:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered "
                "(pass overwrite=True to replace it)")
        self._lazy.pop(name, None)
        self._factories[name] = factory
        return factory

    def register_lazy(self, name: str, path: str, *, overwrite: bool = False) -> None:
        """Register a built-in as an import path ``"pkg.module:attr"``."""
        if not overwrite and name in self:
            raise RegistryError(f"{self.kind} {name!r} is already registered")
        self._factories.pop(name, None)
        self._lazy[name] = path

    def unregister(self, name: str) -> None:
        """Remove an entry (mostly for tests cleaning up after themselves)."""
        if name in self._factories:
            del self._factories[name]
        elif name in self._lazy:
            del self._lazy[name]
        else:
            raise RegistryError(f"{self.kind} {name!r} is not registered")

    # -- resolution -------------------------------------------------------

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name`` (importing it if lazy)."""
        # Rank threads of one worker resolve the same built-in at the same
        # moment (every cell's first loss lookup).  The factory is published
        # before the path is dropped, so a name gone from the lazy map is
        # already in the other one, and every step is safe to repeat.
        path = self._lazy.get(name)
        if path is not None:
            module_name, _, attr = path.partition(":")
            factory = getattr(importlib.import_module(module_name), attr)
            self._factories[name] = factory
            self._lazy.pop(name, None)
            return factory
        factory = self._factories.get(name)
        if factory is not None:
            return factory
        raise RegistryError(
            f"unknown {self.kind} {name!r}; known: {sorted(self.known())}")

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Resolve and call the factory."""
        return self.get(name)(*args, **kwargs)

    def known(self) -> set[str]:
        """Every registered name, lazy or concrete."""
        return set(self._factories) | set(self._lazy)

    def __contains__(self, name: object) -> bool:
        return name in self._factories or name in self._lazy

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.known()))

    def __len__(self) -> int:
        return len(self._factories) + len(self._lazy)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.kind}: {sorted(self.known())}>"


class BackendRegistry(Registry):
    """Execution substrates: factories ``(**options) -> TrainerBackend``.

    Built-ins mirror the paper's Table III substrates: ``sequential`` (the
    single-core baseline), ``process`` (true multi-core master–slave) and
    ``threaded`` (deterministic in-process master–slave).
    """


class DatasetRegistry(Registry):
    """Training datasets: factories ``(config) -> ArrayDataset``."""


@dataclass(frozen=True)
class DtypePolicy:
    """A run-level precision policy: one name, two dtype roles.

    * ``compute`` — the dtype parameters, gradients, optimizer state and
      kernel workspaces live in.  Every GEMM and every optimizer moment
      accumulates here.
    * ``storage`` — the dtype genome vectors take at *storage boundaries*:
      exchange snapshots, wire frames, checkpoints.  ``mixed16`` narrows to
      float16 there (halving exchange bytes again) while computing in
      float32; the other policies store and compute in the same dtype.

    Dtypes are numpy dtype *names* (strings), not numpy objects — this
    module stays a leaf with no numpy import.
    """

    name: str
    compute: str
    storage: str

    def __call__(self) -> "DtypePolicy":
        # Policies are their own zero-arg factories so plain instances can
        # be registered: ``DTYPES.create(name)`` returns the policy itself.
        return self


class DtypeRegistry(Registry):
    """Precision policies: ``float64`` | ``float32`` | ``mixed16``.

    ``NetworkSettings.dtype`` validates against this registry and every
    layer (arena slabs, fused kernels, optimizer state, the socket wire
    handshake) resolves its dtype through the named policy, so a custom
    policy is one ``register()`` call away like any backend or loss.
    """


class LossRegistry(Registry):
    """GAN losses: factories ``() -> GANLoss`` (usually the loss class).

    ``repro.nn.loss_by_name`` and ``TrainingSettings`` validation both
    resolve against this registry, so a registered loss is immediately
    usable as ``loss_function`` in an :class:`~repro.config.ExperimentConfig`.
    """


BACKENDS = BackendRegistry("backend")
BACKENDS.register_lazy("sequential", "repro.api.backends:SequentialBackend")
BACKENDS.register_lazy("process", "repro.api.backends:ProcessBackend")
BACKENDS.register_lazy("threaded", "repro.api.backends:ThreadedBackend")
BACKENDS.register_lazy("socket", "repro.api.backends:SocketBackend")

DATASETS = DatasetRegistry("dataset")
DATASETS.register_lazy("synthetic-mnist", "repro.api.datasets:synthetic_mnist")
DATASETS.register_lazy("synthetic-shapes", "repro.api.datasets:synthetic_shapes")

LOSSES = LossRegistry("loss")
LOSSES.register_lazy("bce", "repro.nn.losses:BCELoss")
LOSSES.register_lazy("mse", "repro.nn.losses:LeastSquaresLoss")
LOSSES.register_lazy("heuristic", "repro.nn.losses:HeuristicLoss")

DTYPES = DtypeRegistry("dtype")
DTYPES.register("float64", DtypePolicy("float64", compute="float64", storage="float64"))
DTYPES.register("float32", DtypePolicy("float32", compute="float32", storage="float32"))
DTYPES.register("mixed16", DtypePolicy("mixed16", compute="float32", storage="float16"))


def dtype_policy(name: str) -> DtypePolicy:
    """Resolve a policy name to its :class:`DtypePolicy` (loud on unknowns)."""
    return DTYPES.create(name)
