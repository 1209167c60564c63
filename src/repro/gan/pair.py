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
  gradient step each (the paper's profiled ``train`` routine),
* :meth:`evaluate` — both losses on a batch without touching parameters
  (used for fitness evaluation during selection).
"""

from __future__ import annotations

import numpy as np

from repro.config import ExperimentConfig
from repro.gan.networks import Discriminator, Generator
from repro.gan.sampling import sample_latent
from repro.nn import Tensor, arena_of, loss_by_name, optimizer_by_name
from repro.nn import kernels
from repro.nn.autograd import no_grad
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

    def _build_optimizer(self, network) -> Optimizer:
        # The networks' arenas (attached at construction) buy the fused
        # slab update; arena-less networks fall back to per-tensor steps.
        return optimizer_by_name(self.optimizer_name, network.parameters(),
                                 self._learning_rate, arena=arena_of(network))

    @property
    def g_optimizer(self) -> Optimizer:
        if self._g_optimizer is None:
            self._g_optimizer = self._build_optimizer(self.generator)
        return self._g_optimizer

    @property
    def d_optimizer(self) -> Optimizer:
        if self._d_optimizer is None:
            self._d_optimizer = self._build_optimizer(self.discriminator)
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

        The step runs through the graph-free fused kernel
        (:mod:`repro.nn.kernels`, bit-identical to the tape) whenever both
        networks are kernel-eligible; otherwise — unpickled/arena-less
        networks, custom stacks or losses — it falls back to autograd.
        """
        adversary = generator if generator is not None else self.generator
        with telemetry.span("train.d_step"):
            fused = kernels.fused_discriminator_step(
                self.discriminator, adversary, self.loss, self.d_optimizer,
                real_batch, rng)
            if fused is not None:
                return fused
            n = real_batch.shape[0]
            with no_grad():
                z = Tensor(sample_latent(n, adversary.settings.latent_size, rng))
                fake = adversary(z).detach()
            real_logits = self.discriminator(Tensor(real_batch))
            fake_logits = self.discriminator(fake)
            loss = self.loss.discriminator_loss(real_logits, fake_logits)
            self.d_optimizer.zero_grad()
            loss.backward()
            self.d_optimizer.step()
            return loss.item()

    def train_generator_step(self, batch_size: int, rng: np.random.Generator,
                             discriminator: Discriminator | None = None) -> float:
        """One generator update against ``discriminator`` (default: own).

        Fused-kernel fast path with autograd fallback, exactly as in
        :meth:`train_discriminator_step`.
        """
        adversary = discriminator if discriminator is not None else self.discriminator
        with telemetry.span("train.g_step"):
            fused = kernels.fused_generator_step(
                self.generator, adversary, self.loss, self.g_optimizer,
                batch_size, rng)
            if fused is not None:
                return fused
            z = Tensor(sample_latent(batch_size, self.generator.settings.latent_size, rng))
            fake = self.generator(z)
            fake_logits = adversary(fake)
            loss = self.loss.generator_loss(fake_logits)
            self.g_optimizer.zero_grad()
            # The adversary's parameters also collect gradients here; clear them
            # afterwards instead of before so the generator sees a fresh tape.
            loss.backward()
            self.g_optimizer.step()
            adversary.zero_grad()
            return loss.item()

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, real_batch: np.ndarray, rng: np.random.Generator,
                 generator: Generator | None = None,
                 discriminator: Discriminator | None = None) -> tuple[float, float]:
        """Return ``(discriminator_loss, generator_loss)`` on one batch, no updates.

        Used for the all-pairs fitness evaluation of the sub-population; runs
        entirely under :func:`~repro.nn.autograd.no_grad`.
        """
        gen = generator if generator is not None else self.generator
        disc = discriminator if discriminator is not None else self.discriminator
        n = real_batch.shape[0]
        with no_grad():
            z = Tensor(sample_latent(n, gen.settings.latent_size, rng))
            fake = gen(z)
            real_logits = disc(Tensor(real_batch))
            fake_logits = disc(fake)
            d_loss = self.loss.discriminator_loss(real_logits, fake_logits).item()
            g_loss = self.loss.generator_loss(fake_logits).item()
        return d_loss, g_loss


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
