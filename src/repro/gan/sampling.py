"""Latent-space sampling and batched generation."""

from __future__ import annotations

import numpy as np

from repro.gan.networks import Generator
from repro.nn import kernel_for

__all__ = ["sample_latent", "generate_images"]


def sample_latent(n: int, latent_size: int, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal latent batch of shape ``(n, latent_size)``.

    ``n == 0`` yields an empty batch — the serving layer's batching engine
    legitimately produces zero-count shards when a mixture component draws
    no samples.
    """
    if n < 0 or latent_size < 1:
        raise ValueError("n must be >= 0 and latent_size positive")
    return rng.standard_normal((n, latent_size))


def generate_images(generator: Generator, n: int, rng: np.random.Generator,
                    batch: int = 512) -> np.ndarray:
    """Generate ``n`` images (in the generator's compute dtype).

    Generation happens in chunks of ``batch`` so the activation memory stays
    bounded when the metrics pipeline asks for thousands of samples; each
    chunk's forward writes straight into the output array.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    kernel = kernel_for(generator)
    out = np.empty((n, kernel.dims[-1]), dtype=kernel.dtype)
    for lo in range(0, n, batch):
        count = min(batch, n - lo)
        z = kernel.as_compute(sample_latent(count, kernel.in_dim, rng))
        kernel.forward(z, final_out=out[lo:lo + count])
    return out
