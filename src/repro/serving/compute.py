"""Deterministic sampling primitives shared by every serving path.

The batching engine's whole point is to fuse many small requests into a few
large forward passes — but serving must stay *reproducible*: a request with
seed ``s`` has to receive bit-identical images whether it was served alone,
coalesced with strangers, or replayed tomorrow.  Two properties make that
possible:

1. **RNG isolation** — all randomness a request consumes (its per-generator
   multinomial split, its latent vectors, its output shuffle) is drawn from
   the request's own ``Generator`` in the fixed order implemented by
   :func:`build_plan`.  Batch composition never touches a request's stream.

2. **Row-stable forward passes** — BLAS gemm produces bit-identical rows
   regardless of which other rows share the batch, *except* for the 1-row
   case which takes the gemv path.  :func:`forward_rows` therefore pads
   single-row chunks to :data:`MIN_GEMM_ROWS` so every matmul stays on the
   gemm path, making ``forward(concat(a, b)) == concat(forward(a),
   forward(b))`` hold bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gan.networks import Generator
from repro.nn import kernel_for

__all__ = ["MIN_GEMM_ROWS", "SamplePlan", "build_plan", "forward_rows", "assemble"]

#: Minimum rows per matmul: 1-row inputs hit BLAS's gemv path whose summation
#: order differs bitwise from gemm, breaking batched-vs-unbatched identity.
MIN_GEMM_ROWS = 2


@dataclass
class SamplePlan:
    """A request's full randomness, fixed before any forward pass runs.

    ``latents[i]`` holds the latent rows destined for mixture component
    ``i`` (possibly zero rows); ``permutation`` shuffles the concatenated
    outputs so samples are not grouped by component.
    """

    counts: np.ndarray
    latents: list[np.ndarray]
    permutation: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def build_plan(n: int, weights: np.ndarray, latent_size: int,
               rng: np.random.Generator) -> SamplePlan:
    """Draw a request's randomness in the canonical order.

    Consumption order (multinomial split, then each component's latents in
    component order, then the output permutation) is part of the serving
    contract: both the direct path (:meth:`ServableEnsemble.sample`) and the
    coalesced path (:class:`BatchingEngine`) call this function, so a given
    ``(seed, n, weights)`` always maps to the same plan.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    weights = np.asarray(weights, dtype=np.float64)
    counts = rng.multinomial(n, weights)
    latents = [rng.standard_normal((int(count), latent_size)) for count in counts]
    permutation = rng.permutation(n)
    return SamplePlan(counts=counts, latents=latents, permutation=permutation)


def forward_rows(generator: Generator, latents: np.ndarray,
                 chunk: int = 512) -> np.ndarray:
    """Forward latent rows through ``generator``, row-stable and chunked.

    Results are bitwise independent of how rows are grouped into calls, so
    the engine may stack many requests' latents into one pass and slice the
    output apart afterwards.

    Serving inherits the servable's dtype policy: latents (drawn float64
    for RNG-stream parity) are cast to the generator's compute dtype once
    per chunk, and the output lands in that dtype.
    """
    kernel = kernel_for(generator)
    n = latents.shape[0]
    out = np.empty((n, kernel.dims[-1]), dtype=kernel.dtype)
    for lo in range(0, n, chunk):
        block = np.ascontiguousarray(latents[lo:lo + chunk], dtype=kernel.dtype)
        rows = block.shape[0]
        if rows < MIN_GEMM_ROWS:
            pad = np.zeros((MIN_GEMM_ROWS - rows, block.shape[1]),
                           dtype=kernel.dtype)
            block = np.concatenate([block, pad], axis=0)
        out[lo:lo + rows] = kernel.forward(block)[:rows]
    return out


def assemble(plan: SamplePlan, blocks: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-component outputs (zero-row blocks included, so an
    empty plan keeps the blocks' width and dtype) and apply the shuffle."""
    return np.concatenate(blocks, axis=0)[plan.permutation]
