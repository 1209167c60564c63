"""A generator/discriminator couple with its optimizers and loss.

:class:`GANPair` owns the two networks, their optimizers (reset whenever a
genome is copied in from a neighbor — optimizer moments are *not* migrated,
matching Lipizzaner) and the :class:`~repro.nn.losses.GANLoss` the cell was
assigned.  The optimizers — and with them the gradient slabs and moment
buffers, four network-sized vectors per network under Adam — are built the
first time they are asked for, so a pair that is only read (a cell's
center, a pair materialized for evaluation or sampling) never pays for
them.  It exposes exactly the operations the cellular trainer schedules:

* :meth:`train_discriminator_step` / :meth:`train_generator_step` — one
  gradient step each (the paper's profiled ``train`` routine), run on the
  graph-free kernels of :mod:`repro.nn.kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExperimentConfig
from repro.gan.networks import Discriminator, Generator
from repro.gan.sampling import sample_latent
from repro.nn import kernel_for, loss_by_name, optimizer_by_name
from repro.nn.kernels import loss_kernel_for
from repro.nn.losses import GANLoss
from repro.nn.optim import Optimizer
from repro.telemetry import bus as telemetry

__all__ = ["GANPair", "build_gan_pair"]


class GANPair:
    """One adversarial couple as trained inside a grid cell."""

    def __init__(self, generator: Generator, discriminator: Discriminator,
                 loss: GANLoss, optimizer_name: str, learning_rate: float):
        self.generator = generator
        self.discriminator = discriminator
        self.loss = loss
        self.optimizer_name = optimizer_name
        self._g_optimizer: Optimizer | None = None
        self._d_optimizer: Optimizer | None = None
        self.learning_rate = learning_rate

    @property
    def g_optimizer(self) -> Optimizer:
        if self._g_optimizer is None:
            self._g_optimizer = optimizer_by_name(
                self.optimizer_name, self.generator, self._learning_rate)
        return self._g_optimizer

    @property
    def d_optimizer(self) -> Optimizer:
        if self._d_optimizer is None:
            self._d_optimizer = optimizer_by_name(
                self.optimizer_name, self.discriminator, self._learning_rate)
        return self._d_optimizer

    # -- learning-rate plumbing (hyperparameter mutation target) -------------

    @property
    def learning_rate(self) -> float:
        return self._learning_rate

    @learning_rate.setter
    def learning_rate(self, value: float) -> None:
        if value <= 0:
            raise ValueError("learning rate must stay positive")
        self._learning_rate = float(value)
        for optimizer in (self._g_optimizer, self._d_optimizer):
            if optimizer is not None:
                optimizer.learning_rate = self._learning_rate

    def reset_optimizers(self) -> None:
        """Drop optimizer state, e.g. after parameters were overwritten.

        In place: the moment buffers are zeroed, not reallocated, and both
        optimizers return to the pair's learning rate.
        """
        for optimizer in (self._g_optimizer, self._d_optimizer):
            if optimizer is not None:
                optimizer.reset(self._learning_rate)

    # -- training steps --------------------------------------------------------

    def train_discriminator_step(self, real_batch: np.ndarray, rng: np.random.Generator,
                                 generator: Generator | None = None) -> float:
        """One discriminator update on a real batch vs freshly generated fakes.

        ``generator`` defaults to the pair's own, but the cellular algorithm
        also trains the discriminator against *neighbor* generators, so any
        generator can be passed as the adversary.

        Draw latents, generate fakes, stack ``[real; fake]`` through one
        discriminator forward (row-blocking keeps bits equal to two
        passes), backward into the arena grad slab with per-branch
        reductions, then the cache-blocked optimizer sweep.
        """
        adversary = generator if generator is not None else self.generator
        with telemetry.span("train.d_step"):
            d_kernel = kernel_for(self.discriminator)
            g_kernel = kernel_for(adversary)
            optimizer = self.d_optimizer  # first use allocates the grad slab
            n = real_batch.shape[0]
            ws = d_kernel.workspace(2 * n)
            x = ws.x_stack
            x[:n] = real_batch  # assignment casts into the stack's compute dtype
            z = g_kernel.as_compute(sample_latent(n, g_kernel.in_dim, rng))
            # The generator writes its final activation straight into the stack.
            g_kernel.forward(z, final_out=x[n:])

            halves = (slice(0, n), slice(n, 2 * n))
            logits = d_kernel.forward(x, ws=ws, branches=halves)
            value = loss_kernel_for(self.loss).d_step(logits, n, ws.grads[-1])
            d_kernel.backward(x, ws, ws.grads[-1], branches=halves)
            optimizer.step_blocked()
            return value

    def train_generator_step(self, batch_size: int, rng: np.random.Generator,
                             discriminator: Discriminator | None = None) -> float:
        """One generator update against ``discriminator`` (default: own).

        The backward runs through the adversary for its *input* gradient
        only: its weight gradients are never computed, and its grad slab is
        left as it was — a network's gradients are fully rewritten before
        its own next optimizer step and are never serialized.
        """
        adversary = discriminator if discriminator is not None else self.discriminator
        with telemetry.span("train.g_step"):
            g_kernel = kernel_for(self.generator)
            d_kernel = kernel_for(adversary)
            optimizer = self.g_optimizer  # first use allocates the grad slab
            n = batch_size
            g_ws = g_kernel.workspace(n)
            d_ws = d_kernel.workspace(n)
            if g_ws is d_ws:
                # Workspaces are shared by *signature*: two networks with
                # identical stacks would clobber each other's activations.
                raise ValueError("generator and discriminator have identical "
                                 f"layer stacks ({g_kernel!r}); cannot train one "
                                 "against the other")
            z = g_kernel.as_compute(sample_latent(n, g_kernel.in_dim, rng))
            fake = g_kernel.forward(z, ws=g_ws)
            logits = d_kernel.forward(fake, ws=d_ws)
            value = loss_kernel_for(self.loss).g_step(logits, d_ws.grads[-1])
            d_fake_grad = d_kernel.backward(fake, d_ws, d_ws.grads[-1],
                                            param_grads=False, input_grad=True)
            # dL/d fake continues straight into the generator backward (its
            # first move is the final activation's VJP, on the intact ``fake``).
            g_kernel.backward(z, g_ws, d_fake_grad)
            optimizer.step_blocked()
            return value


def build_gan_pair(config: ExperimentConfig, rng: np.random.Generator,
                   loss_name: str | None = None) -> GANPair:
    """Construct a pair from the experiment configuration.

    ``loss_name`` overrides the configured loss — the Mustangs variant draws
    a different loss per cell from the pool.
    """
    generator = Generator(config.network, rng)
    discriminator = Discriminator(config.network, rng)
    name = loss_name if loss_name is not None else config.training.loss_function
    if name == "mustangs":
        raise ValueError("'mustangs' is a per-cell policy, not a loss; pass a concrete loss name")
    loss = loss_by_name(name)
    return GANPair(
        generator,
        discriminator,
        loss,
        config.mutation.optimizer,
        config.mutation.initial_learning_rate,
    )
