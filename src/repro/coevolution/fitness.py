"""All-pairs fitness evaluation of a neighborhood's sub-populations.

Competitive coevolution scores every generator against every discriminator
in the sub-population (s x s pairings; the spatial structure keeps s small —
that is the point of the grid, Section II-B).  A generator's fitness is its
average generator-loss across discriminator opponents; a discriminator's is
its average discriminator-loss across generator opponents.  Lower is better
for both.

The table is batched: all ``s`` latent batches drawn in one RNG call, the
``s`` fake batches plus the real batch stacked into one matrix, one
graph-free forward per discriminator (:mod:`repro.nn.kernels`), and each
discriminator's column of losses computed from the stacked logits.  Slots
bound to one parameter vector — W and E, N and S on a 2x2 torus, where a
neighbor's center fills two slots — are computed once: their latent rows
go through the generator as one stacked GEMM, and the discriminator's
column is forwarded once and repeated.  Wide layers are row-block-stable,
so the table stays bitwise equal to the per-slot one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.gan.networks import Discriminator, Generator
from repro.nn import FusedStepKernel, kernel_for
from repro.nn.kernels import loss_kernel_for
from repro.nn.losses import GANLoss

__all__ = ["FitnessTable", "evaluate_subpopulations"]


@dataclass
class FitnessTable:
    """Loss matrices of one all-pairs evaluation.

    ``g_losses[i, j]`` / ``d_losses[i, j]`` are the generator/discriminator
    losses of generator ``i`` against discriminator ``j``.  The derived
    fitness vectors are cached on first access — ``Cell.step`` reads them
    several times per iteration (tournament selection, the report, the
    promotion) and the loss matrices are never mutated after construction.
    """

    g_losses: np.ndarray
    d_losses: np.ndarray

    @cached_property
    def generator_fitness(self) -> np.ndarray:
        """Per-generator fitness: mean generator-loss over opponents."""
        return self.g_losses.mean(axis=1)

    @cached_property
    def discriminator_fitness(self) -> np.ndarray:
        """Per-discriminator fitness: mean discriminator-loss over opponents."""
        return self.d_losses.mean(axis=0)

    @cached_property
    def best_generator(self) -> int:
        return int(self.generator_fitness.argmin())

    @cached_property
    def best_discriminator(self) -> int:
        return int(self.discriminator_fitness.argmin())


def evaluate_subpopulations(generators: Sequence[Generator],
                            discriminators: Sequence[Discriminator],
                            loss: GANLoss, real_batch: np.ndarray,
                            rng: np.random.Generator) -> FitnessTable:
    """Score all generator/discriminator pairings on one real batch.

    The one draw for all ``s`` latent batches is stream-order-identical to
    ``s`` separate draws, and the table is bitwise equal to ``s**2``
    separate loss evaluations (asserted by ``tests/test_nn_kernels.py``).
    """
    if not generators or not discriminators:
        raise ValueError("sub-populations must be non-empty")
    l_kernel = loss_kernel_for(loss)
    g_kernels = [kernel_for(g) for g in generators]
    d_kernels = [kernel_for(d) for d in discriminators]
    latent = g_kernels[0].in_dim
    features = g_kernels[0].dims[-1]
    if any(k.in_dim != latent or k.dims[-1] != features for k in g_kernels) \
            or any(k.in_dim != features or k.dims[-1] != 1 for k in d_kernels):
        raise ValueError("sub-population networks do not share one "
                         "latent -> image -> logit shape")
    dtypes = {str(k.dtype) for k in (*g_kernels, *d_kernels)}
    if len(dtypes) != 1:
        raise ValueError(f"mixed-dtype neighbourhood: {sorted(dtypes)}")

    s = len(g_kernels)
    n = real_batch.shape[0]
    z_all = g_kernels[0].as_compute(rng.standard_normal((s, n, latent)))
    stack = np.empty((s * n + n, features), dtype=d_kernels[0].dtype)
    for slots in _by_vector(g_kernels):
        fakes = g_kernels[slots[0]].forward(z_all[slots].reshape(len(slots) * n, latent))
        for k, i in enumerate(slots):
            stack[i * n:(i + 1) * n] = fakes[k * n:(k + 1) * n]
    stack[s * n:] = real_batch

    blocks = tuple(slice(i * n, (i + 1) * n) for i in range(s + 1))
    g_losses = np.empty((s, len(d_kernels)))
    d_losses = np.empty_like(g_losses)
    for slots in _by_vector(d_kernels):
        # One wide GEMM chain per distinct discriminator; the width-1 logit
        # head runs per row block (see ``FusedStepKernel.forward``).
        logits = d_kernels[slots[0]].forward(stack, branches=blocks)
        g_column, d_column = l_kernel.table_column(
            logits[s * n:], logits[:s * n].reshape(s, n))
        g_losses[:, slots] = g_column[:, None]
        d_losses[:, slots] = d_column[:, None]
    return FitnessTable(g_losses=g_losses, d_losses=d_losses)


def _by_vector(kernels: Sequence[FusedStepKernel]) -> list[list[int]]:
    """Slot indices grouped by the parameter vector their network is bound
    to (one address, one group), in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, kernel in enumerate(kernels):
        address = kernel.arena.data.__array_interface__["data"][0]
        groups.setdefault(address, []).append(i)
    return list(groups.values())
