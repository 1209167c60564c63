"""Procedural synthetic MNIST: batched anti-aliased rendering of digit strokes.

Rendering pipeline (fully vectorized, chunked to bound memory):

1. Take the digit's stroke segments (:func:`repro.data.digits.digit_segments`).
2. Apply a per-image random affine jitter (rotation, scale, shear, shift).
3. Compute, for every pixel center, the distance to the nearest segment —
   a distance field evaluated as one broadcast expression per chunk.
4. Map distance to intensity through a soft threshold at a per-image stroke
   thickness, add speckle noise, clip to ``[0, 1]``.

The result is deterministic per ``(n_samples, seed)`` and cached on disk as
an uncompressed ``.npz`` so the master and every slave process can load the
same dataset without re-rendering (the paper's flow diagram has a "Download
data (optional)" step in each slave; the cache plays that role).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from repro.data.digits import NUM_CLASSES, digit_segments

__all__ = ["SyntheticMNIST", "load_synthetic_mnist", "render_digits", "default_cache_dir"]

IMAGE_SIDE = 28
IMAGE_PIXELS = IMAGE_SIDE * IMAGE_SIDE

# Pixel-center coordinates in the unit box, precomputed once.
_coords = (np.arange(IMAGE_SIDE, dtype=np.float64) + 0.5) / IMAGE_SIDE
_PIXEL_X, _PIXEL_Y = np.meshgrid(_coords, _coords)
_PIXELS = np.stack([_PIXEL_X.ravel(), _PIXEL_Y.ravel()], axis=1)  # (784, 2)
_PIXELS.setflags(write=False)


def default_cache_dir() -> str:
    """Directory for rendered-dataset caches (override with REPRO_CACHE_DIR)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(tempfile.gettempdir(), "repro-synthetic-mnist")


def _affine_matrices(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random 2x2 linear parts and translations for ``n`` images.

    Jitter ranges follow typical MNIST variability: rotation up to ~12
    degrees, scale 0.9-1.1, slight shear, shift up to ~2 pixels.
    """
    angle = rng.uniform(-0.21, 0.21, size=n)  # radians
    scale = rng.uniform(0.9, 1.1, size=n)
    shear = rng.uniform(-0.12, 0.12, size=n)
    cos, sin = np.cos(angle), np.sin(angle)
    # linear = scale * rotation @ shear-x
    lin = np.empty((n, 2, 2), dtype=np.float64)
    lin[:, 0, 0] = scale * (cos + shear * -sin)
    lin[:, 0, 1] = scale * -sin
    lin[:, 1, 0] = scale * (sin + shear * cos)
    lin[:, 1, 1] = scale * cos
    shift = rng.uniform(-0.07, 0.07, size=(n, 2))
    return lin, shift


def render_digits(labels: np.ndarray, rng: np.random.Generator,
                  noise_std: float = 0.06, chunk: int = 256) -> np.ndarray:
    """Render one 28x28 image per label; returns ``(n, 784)`` in ``[0, 1]``.

    Images are processed in chunks of at most ``chunk`` so peak memory stays
    at ``chunk * max_segments * 784`` floats regardless of dataset size.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if labels.size and (labels.min() < 0 or labels.max() >= NUM_CLASSES):
        raise ValueError("labels must be in 0..9")
    n = labels.shape[0]
    out = np.empty((n, IMAGE_PIXELS), dtype=np.float64)
    thickness = rng.uniform(0.035, 0.055, size=n)
    softness = 0.018
    lin, shift = _affine_matrices(n, rng)
    noise = rng.normal(0.0, noise_std, size=(n, IMAGE_PIXELS))

    center = np.array([0.5, 0.5])
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        idx = np.arange(lo, hi)
        # Group the chunk by digit class so each group shares base segments.
        for digit in np.unique(labels[idx]):
            rows = idx[labels[idx] == digit]
            segs = digit_segments(int(digit))  # (S, 2, 2)
            # Affine-transform segment endpoints per image:
            # p' = (p - c) @ L^T + c + t   -> shape (R, S, 2, 2)
            rel = segs[None, :, :, :] - center
            moved = np.einsum("nij,skj->nski", lin[rows], rel[0])
            pts = moved + center + shift[rows][:, None, None, :]
            a = pts[:, :, 0, :]  # (R, S, 2) segment starts
            b = pts[:, :, 1, :]  # (R, S, 2) segment ends
            ab = b - a
            denom = np.einsum("nsi,nsi->ns", ab, ab)
            np.maximum(denom, 1e-12, out=denom)
            # Vector from every segment start to every pixel: (R, S, P, 2)
            ap = _PIXELS[None, None, :, :] - a[:, :, None, :]
            t = np.einsum("nspi,nsi->nsp", ap, ab) / denom[:, :, None]
            np.clip(t, 0.0, 1.0, out=t)
            closest = a[:, :, None, :] + t[:, :, :, None] * ab[:, :, None, :]
            diff = _PIXELS[None, None, :, :] - closest
            dist2 = np.einsum("nspi,nspi->nsp", diff, diff)
            dist = np.sqrt(dist2.min(axis=1))  # (R, P) nearest-stroke distance
            intensity = 1.0 / (1.0 + np.exp((dist - thickness[rows, None]) / softness))
            out[rows] = intensity
    out += noise
    np.clip(out, 0.0, 1.0, out=out)
    return out


@dataclass
class SyntheticMNIST:
    """A rendered dataset: ``images`` in ``[0, 1]`` of shape ``(n, 784)``,
    integer ``labels`` of shape ``(n,)``."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.images.ndim != 2 or self.images.shape[1] != IMAGE_PIXELS:
            raise ValueError(f"images must be (n, {IMAGE_PIXELS})")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels length must match images")

    def __len__(self) -> int:
        return self.images.shape[0]

    def as_grid(self, index: int) -> np.ndarray:
        """Return image ``index`` reshaped to 28x28."""
        return self.images[index].reshape(IMAGE_SIDE, IMAGE_SIDE)


def load_synthetic_mnist(n_samples: int, seed: int = 42, *, cache: bool = True,
                         noise_std: float = 0.06) -> SyntheticMNIST:
    """Render (or load from cache) a balanced synthetic-MNIST dataset.

    Labels cycle ``0..9`` before shuffling so every class has within-one-image
    balanced representation, mirroring MNIST's near-balanced classes.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    # v2: stored, not deflated (v1 files were compressed; not reused).
    key = f"v2-{n_samples}-{seed}-{noise_std}"
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    path = os.path.join(default_cache_dir(), f"synmnist-{digest}.npz")
    if cache and os.path.exists(path):
        try:
            # Our own handle: np.load leaks the one it opens when the
            # archive turns out to be damaged.
            with open(path, "rb") as handle, np.load(handle) as archive:
                return SyntheticMNIST(archive["images"], archive["labels"])
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
            pass  # damaged cache (truncated, empty, ...): fall through and re-render

    rng = np.random.default_rng(np.random.SeedSequence([seed, n_samples]))
    labels = np.arange(n_samples, dtype=np.int64) % NUM_CLASSES
    rng.shuffle(labels)
    images = render_digits(labels, rng, noise_std=noise_std)
    if cache:
        os.makedirs(default_cache_dir(), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as handle:
            # Stored, not deflated: every run and rank-hosting launcher
            # loads this file, and inflating it costs more than reading it.
            np.savez(handle, images=images, labels=labels)
        os.replace(tmp, path)  # atomic: concurrent slaves race benignly
    return SyntheticMNIST(images, labels)
