"""Generator-mixture weights and their (1+1)-ES evolution.

Each neighborhood's generative model is a *mixture* of its s=5 generators:
sampling picks generator ``i`` with probability ``w_i``.  Lipizzaner evolves
``w`` with a (1+1)-ES — perturb with Gaussian noise of scale 0.01 (Table I:
"mixture mutation scale"), renormalize, and keep the offspring only if the
mixture's quality metric improves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.gan.networks import Generator
from repro.gan.sampling import generate_images

__all__ = ["MixtureWeights", "evolve_mixture", "sample_mixture"]


@dataclass
class MixtureWeights:
    """A probability vector over the neighborhood's generators."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        total = self.weights.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        self.weights = self.weights / total

    @classmethod
    def uniform(cls, size: int) -> "MixtureWeights":
        if size < 1:
            raise ValueError("mixture needs at least one component")
        return cls(np.full(size, 1.0 / size))

    def mutated(self, rng: np.random.Generator, scale: float) -> "MixtureWeights":
        """Gaussian-perturbed copy, clipped to non-negative and renormalized."""
        noise = rng.normal(0.0, scale, size=self.weights.shape)
        perturbed = np.clip(self.weights + noise, 0.0, None)
        if perturbed.sum() <= 0:
            # Degenerate perturbation: fall back to the parent.
            return MixtureWeights(self.weights.copy())
        return MixtureWeights(perturbed)

    def copy(self) -> "MixtureWeights":
        return MixtureWeights(self.weights.copy())


def sample_mixture(generators: Sequence[Generator], mixture: MixtureWeights, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` images from the weighted mixture of generators."""
    if len(generators) != mixture.weights.size:
        raise ValueError("one weight per generator required")
    if n <= 0:  # nothing to draw: leave ``rng`` untouched
        return generate_images(generators[0], n, rng)
    counts = rng.multinomial(n, mixture.weights)
    pieces = []
    for generator, count in zip(generators, counts):
        if count:
            pieces.append(generate_images(generator, int(count), rng))
    samples = np.concatenate(pieces, axis=0)
    rng.shuffle(samples)
    return samples


def evolve_mixture(mixture: MixtureWeights, fitness: Callable[[MixtureWeights], float],
                   rng: np.random.Generator, scale: float) -> tuple[MixtureWeights, float]:
    """One (1+1)-ES step: keep the mutated weights iff fitness improves.

    ``fitness`` is a loss (lower is better), e.g. negated classifier score
    or the Fréchet distance of the mixture's samples.  Returns the surviving
    weights and their fitness.
    """
    parent_fitness = fitness(mixture)
    offspring = mixture.mutated(rng, scale)
    offspring_fitness = fitness(offspring)
    if offspring_fitness <= parent_fitness:
        return offspring, offspring_fitness
    return mixture, parent_fitness
