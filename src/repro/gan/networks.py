"""Generator and discriminator MLPs (paper Table I).

Generator: ``latent(64) -> 256 -> 256 -> 784`` with the configured hidden
activation (``tanh`` in the paper) and a ``tanh`` output so images live in
``[-1, 1]``.

Discriminator: the mirror image ``784 -> 256 -> 256 -> 1``; it outputs a raw
logit (no sigmoid) because all three Mustangs losses consume logits through
numerically stable formulations.
"""

from __future__ import annotations

import numpy as np

from repro.config import NetworkSettings
from repro.nn import Linear, Module, Sequential, Tensor, activation_module, attach_arena
from repro.nn.init import xavier_normal
from repro.registry import dtype_policy

__all__ = ["Generator", "Discriminator", "build_generator", "build_discriminator"]


def _compute_dtype(settings: NetworkSettings) -> np.dtype:
    """The dtype this network's parameters and activations live in.

    The *compute* role of the configured policy: ``mixed16`` networks hold
    float32 parameters (float16 appears only at storage boundaries — see
    :class:`repro.registry.DtypePolicy`).
    """
    return np.dtype(dtype_policy(getattr(settings, "dtype", "float64")).compute)


def _cast_input(x: Tensor, dtype: np.dtype) -> Tensor:
    """Fold a leaf input batch into the network's compute dtype.

    Latents and real batches are drawn float64 (RNG-stream parity across
    policies) and narrowed here.  Grad-carrying tensors never need the cast:
    they were produced by a same-dtype network.
    """
    if x.data.dtype == dtype or x.requires_grad:
        return x
    return Tensor(x.data.astype(dtype))


def _mlp(sizes: list[int], hidden_activation: str,
         final: Module | None, dtype: np.dtype) -> Sequential:
    """The layer stack with its weights still undefined (drawn by
    :func:`_draw_initial_weights` once the arena slab backs them)."""
    layers: list[Module] = []
    for i in range(len(sizes) - 1):
        layers.append(Linear(sizes[i], sizes[i + 1], None, init=xavier_normal,
                             dtype=dtype))
        if i < len(sizes) - 2:
            layers.append(activation_module(hidden_activation))
    if final is not None:
        layers.append(final)
    return Sequential(*layers)


def _draw_initial_weights(net: Sequential, rng: np.random.Generator) -> None:
    """Xavier-initialise ``net``'s layers in construction order."""
    for layer in net:
        if isinstance(layer, Linear):
            layer.reset_parameters(rng)


class Generator(Module):
    """Maps latent vectors ``(n, latent_size)`` to images ``(n, output_neurons)``.

    ``rng=None`` allocates the network without drawing its weights, for
    slots that are overwritten by a genome before anything reads them;
    :meth:`initialize` performs the deferred draw.
    """

    def __init__(self, settings: NetworkSettings, rng: np.random.Generator | None):
        super().__init__()
        self.settings = settings
        sizes = (
            [settings.latent_size]
            + [settings.hidden_neurons] * settings.hidden_layers
            + [settings.output_neurons]
        )
        self.net = _mlp(sizes, settings.activation,
                        final=activation_module("tanh"),
                        dtype=_compute_dtype(settings))
        # One contiguous slab per network: genome flattening becomes a
        # single memcpy and the optimizer update one fused sweep.  The
        # weights are drawn straight into the slab.
        attach_arena(self, adopt_values=False)
        if rng is not None:
            self.initialize(rng)

    def initialize(self, rng: np.random.Generator) -> None:
        """Draw the initial weights — what passing ``rng`` at construction does."""
        _draw_initial_weights(self.net, rng)

    def forward(self, z: Tensor) -> Tensor:
        if z.ndim != 2 or z.shape[1] != self.settings.latent_size:
            raise ValueError(
                f"latent batch must be (n, {self.settings.latent_size}), got {z.shape}"
            )
        return self.net(_cast_input(z, _compute_dtype(self.settings)))


class Discriminator(Module):
    """Maps images ``(n, output_neurons)`` to real-vs-fake logits ``(n, 1)``.

    ``rng=None`` defers the weight draw exactly as on :class:`Generator`.
    """

    def __init__(self, settings: NetworkSettings, rng: np.random.Generator | None):
        super().__init__()
        self.settings = settings
        sizes = (
            [settings.output_neurons]
            + [settings.hidden_neurons] * settings.hidden_layers
            + [1]
        )
        self.net = _mlp(sizes, settings.activation, final=None,
                        dtype=_compute_dtype(settings))
        attach_arena(self, adopt_values=False)
        if rng is not None:
            self.initialize(rng)

    def initialize(self, rng: np.random.Generator) -> None:
        """See :meth:`Generator.initialize`."""
        _draw_initial_weights(self.net, rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.settings.output_neurons:
            raise ValueError(
                f"image batch must be (n, {self.settings.output_neurons}), got {x.shape}"
            )
        return self.net(_cast_input(x, _compute_dtype(self.settings)))


def build_generator(settings: NetworkSettings, rng: np.random.Generator) -> Generator:
    """Construct a generator initialized from ``rng``."""
    return Generator(settings, rng)


def build_discriminator(settings: NetworkSettings, rng: np.random.Generator) -> Discriminator:
    """Construct a discriminator initialized from ``rng``."""
    return Discriminator(settings, rng)
