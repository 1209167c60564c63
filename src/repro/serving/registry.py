"""Versioned model registry: training checkpoints in, servable ensembles out.

A :class:`ServableEnsemble` is the *deployment* view of one grid cell: the
cell's Moore-5 neighborhood generators rebuilt from center genomes, weighted
by the cell's evolved :class:`~repro.coevolution.mixture.MixtureWeights`.
It is immutable — serving never trains — and safe to share across the
engine's worker threads.

The :class:`ModelRegistry` holds many named versions and performs the
atomic hot-swap a live service needs: ``register`` a candidate, smoke-test
it through the server, then ``promote`` it; in-flight requests keep the
ensemble object they resolved, new requests see the new version.
"""

from __future__ import annotations

import itertools
import os
import threading

import numpy as np

from repro.config import ExperimentConfig
from repro.coevolution.checkpoint import TrainingCheckpoint, load_checkpoint
from repro.coevolution.genome import Genome
from repro.coevolution.grid import ToroidalGrid
from repro.gan.networks import Generator
from repro.serving.api import UnknownVersionError
from repro.serving.compute import assemble, build_plan, forward_rows

__all__ = ["ServableEnsemble", "ModelRegistry"]

#: Process-wide unique ids; cache keys include them so replacing the
#: ensemble behind a version name can never serve another model's samples.
_ENSEMBLE_UIDS = itertools.count()


class ServableEnsemble:
    """An immutable generator mixture ready to serve samples.

    ``generators[i]`` is the ``i``-th mixture component (center first, then
    W/N/E/S neighbors, matching the cell's sub-population order) and
    ``weights`` is the probability each component is sampled from.
    """

    def __init__(self, generators: list[Generator], weights: np.ndarray,
                 config: ExperimentConfig, *, source_cell: int = 0,
                 iteration: int = 0):
        if len(generators) == 0:
            raise ValueError("ensemble needs at least one generator")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size != len(generators):
            raise ValueError("one weight per generator required")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be non-negative and not all zero")
        self.generators = tuple(generators)
        self.weights = weights / weights.sum()
        self.weights.flags.writeable = False
        self.config = config
        self.source_cell = source_cell
        self.iteration = iteration
        self.uid = next(_ENSEMBLE_UIDS)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_checkpoint(cls, checkpoint: TrainingCheckpoint,
                        cell: int = 0) -> "ServableEnsemble":
        """Rebuild the deployable mixture of ``cell`` from a checkpoint.

        The checkpoint stores every cell's center genome, so a cell's
        neighborhood sub-population — the generators its mixture weights
        refer to — is recovered by materializing the centers of the cell's
        Moore-5 neighborhood.
        """
        return cls._from_centers(
            checkpoint.config, checkpoint.center_genomes,
            checkpoint.mixture_weights, cell, checkpoint.iteration,
        )

    @classmethod
    def from_training_result(cls, result, cell: int | None = None
                             ) -> "ServableEnsemble":
        """Build from a finished run; ``cell`` defaults to the fittest cell."""
        if cell is None:
            cell = result.best_cell_index()
        iteration = result.config.coevolution.iterations
        return cls._from_centers(
            result.config, result.center_genomes, result.mixture_weights,
            cell, iteration,
        )

    @classmethod
    def _from_centers(cls, config: ExperimentConfig,
                      center_genomes: list[tuple[Genome, Genome]],
                      mixture_weights: list[np.ndarray],
                      cell: int, iteration: int) -> "ServableEnsemble":
        grid = ToroidalGrid(config.coevolution.grid_rows,
                            config.coevolution.grid_cols)
        if not 0 <= cell < grid.cell_count:
            raise ValueError(f"cell {cell} outside 0..{grid.cell_count - 1}")
        neighborhood = grid.neighborhood_indices(cell)
        # Degenerate grids repeat indices; build each generator once.
        built: dict[int, Generator] = {}
        init_rng = np.random.default_rng(0)
        for index in neighborhood:
            if index not in built:
                generator = Generator(config.network, init_rng)
                center_genomes[index][0].write_into(generator)
                built[index] = generator
        generators = [built[index] for index in neighborhood]
        weights = np.asarray(mixture_weights[cell], dtype=np.float64)
        if weights.size != len(generators):
            raise ValueError(
                f"cell {cell} has {weights.size} mixture weights for a "
                f"{len(generators)}-generator neighborhood"
            )
        return cls(generators, weights, config,
                   source_cell=cell, iteration=iteration)

    # -- properties -----------------------------------------------------------

    @property
    def latent_size(self) -> int:
        return self.config.network.latent_size

    @property
    def output_neurons(self) -> int:
        return self.config.network.output_neurons

    @property
    def image_shape(self) -> tuple[int, int]:
        side = self.config.network.image_side
        return (side, side)

    def __len__(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return (
            f"<ServableEnsemble cell={self.source_cell} "
            f"components={len(self)} iteration={self.iteration}>"
        )

    # -- sampling -------------------------------------------------------------

    def with_weights(self, weights: np.ndarray) -> "ServableEnsemble":
        """The same generators under a different mixture (request override)."""
        return ServableEnsemble(list(self.generators), weights, self.config,
                                source_cell=self.source_cell,
                                iteration=self.iteration)

    def normalize_weights(self, weights: np.ndarray) -> np.ndarray:
        """Validate a per-request mixture override against this ensemble.

        Both serving paths (direct :meth:`sample` and the batching engine)
        funnel overrides through here, so a bad vector fails loudly and
        identically instead of silently truncating on one path.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size != len(self.generators):
            raise ValueError(
                f"weights override needs {len(self.generators)} entries "
                f"(one per mixture component), got shape {w.shape}"
            )
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative and not all zero")
        return w / w.sum()

    def sample(self, n: int, seed: int | np.random.Generator | None = None,
               weights: np.ndarray | None = None) -> np.ndarray:
        """Draw ``n`` images directly (the unbatched reference path).

        Bit-identical to what the batching engine returns for the same
        ``(seed, n, weights)`` — both paths share :mod:`repro.serving.compute`.
        """
        if isinstance(seed, np.random.Generator):
            rng = seed
        else:
            rng = np.random.default_rng(seed)
        mixture = (self.weights if weights is None
                   else self.normalize_weights(weights))
        plan = build_plan(n, mixture, self.latent_size, rng)
        blocks = [forward_rows(generator, latents)
                  for generator, latents in zip(self.generators, plan.latents)]
        return assemble(plan, blocks)


class ModelRegistry:
    """Named, hot-swappable versions of servable ensembles.

    All mutation happens under one lock; readers resolve the active version
    to an immutable ensemble object in a single step, so ``promote`` is an
    atomic pointer swap from the serving threads' point of view.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._versions: dict[str, ServableEnsemble] = {}
        self._active: str | None = None
        self._listeners: list = []

    def subscribe(self, listener) -> None:
        """Call ``listener(version)`` whenever a version's ensemble is
        replaced or evicted — servers use this to drop stale cache entries."""
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a listener (no-op if absent) — called on server close."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def _notify(self, version: str) -> None:
        for listener in list(self._listeners):
            listener(version)

    # -- loading --------------------------------------------------------------

    def register(self, version: str, ensemble: ServableEnsemble,
                 *, promote: bool = False) -> ServableEnsemble:
        """Add (or replace) a version; optionally make it active."""
        if not version:
            raise ValueError("version must be a non-empty string")
        with self._lock:
            replaced = version in self._versions
            self._versions[version] = ensemble
            if promote or self._active is None:
                self._active = version
        if replaced:
            self._notify(version)
        return ensemble

    def load(self, version: str, path: str | os.PathLike, *, cell: int = 0,
             promote: bool = False) -> ServableEnsemble:
        """Load a checkpoint file from disk and register its ensemble."""
        checkpoint = load_checkpoint(path)
        ensemble = ServableEnsemble.from_checkpoint(checkpoint, cell=cell)
        return self.register(version, ensemble, promote=promote)

    # -- resolution -----------------------------------------------------------

    def resolve(self, version: str | None = None
                ) -> tuple[str, ServableEnsemble]:
        """Map a requested version (``None`` = active) to its ensemble."""
        with self._lock:
            name = version if version is not None else self._active
            if name is None:
                raise UnknownVersionError("registry is empty — load a model first")
            try:
                return name, self._versions[name]
            except KeyError:
                raise UnknownVersionError(
                    f"unknown model version {name!r}; "
                    f"loaded: {sorted(self._versions) or '-'}"
                ) from None

    def get(self, version: str | None = None) -> ServableEnsemble:
        return self.resolve(version)[1]

    # -- lifecycle ------------------------------------------------------------

    def promote(self, version: str) -> None:
        """Atomically make ``version`` the one seedless traffic is served from."""
        with self._lock:
            if version not in self._versions:
                raise UnknownVersionError(f"cannot promote unknown version {version!r}")
            self._active = version

    def evict(self, version: str) -> None:
        """Drop a version; the active one is protected (demote first)."""
        with self._lock:
            if version not in self._versions:
                raise UnknownVersionError(f"cannot evict unknown version {version!r}")
            if version == self._active:
                raise ValueError(f"refusing to evict active version {version!r}")
            del self._versions[version]
        self._notify(version)

    @property
    def active_version(self) -> str | None:
        with self._lock:
            return self._active

    def versions(self) -> list[str]:
        with self._lock:
            return sorted(self._versions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)

    def __contains__(self, version: str) -> bool:
        with self._lock:
            return version in self._versions
