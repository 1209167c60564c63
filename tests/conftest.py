"""Shared fixtures.

BLAS is pinned to one thread before anything imports heavy NumPy paths so
test timings stay stable and distributed tests are not poisoned by thread
oversubscription (see :mod:`repro.runtime`).
"""

import os

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from repro.config import paper_table1_config
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import load_synthetic_mnist
from repro.data.transforms import to_tanh_range
from repro.runtime import pin_blas_threads

pin_blas_threads(1)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _lockcheck_gate():
    """Fail any test that leaves new lockcheck violations behind.

    A no-op unless the suite runs with ``REPRO_LOCKCHECK=1`` (CI's fast
    lane does): with the checker installed, a silent lock-order inversion
    or alias crossing inside a test becomes that test's failure instead of
    a stderr line nobody reads.  Tests that *seed* violations on purpose
    drain them with ``clear_violations()`` before returning.
    """
    from repro.analysis import lockcheck

    if not lockcheck.installed():
        yield
        return
    before = lockcheck.violation_count()
    yield
    new = lockcheck.violations()[before:]
    if new:
        lockcheck.clear_violations()
        pytest.fail("lockcheck violations during test:\n"
                    + "\n".join(str(v) for v in new))


@pytest.fixture()
def telemetry_bus():
    """The telemetry bus with guaranteed clean-up.

    The bus is module-global state (level flag + per-rank buffers + the
    ``REPRO_TELEMETRY`` env mirror), so every test touching it must restore
    the off/empty default or it would leak spans into unrelated tests.
    """
    from repro.telemetry import bus

    prior_env = os.environ.get("REPRO_TELEMETRY")
    bus.reset()
    try:
        yield bus
    finally:
        bus.set_level("off")
        bus.reset()
        bus.unbind_rank()
        if prior_env is None:
            os.environ.pop("REPRO_TELEMETRY", None)
        else:
            os.environ["REPRO_TELEMETRY"] = prior_env


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("repro-cache")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    return path


def make_quick_config(rows=2, cols=2, *, iterations=2, seed=42,
                      dataset_size=400, batch_size=20, batches=2):
    """A seconds-scale configuration preserving Table I structure."""
    import dataclasses

    scaled = paper_table1_config(rows, cols).scaled(
        iterations=iterations,
        dataset_size=dataset_size,
        batch_size=batch_size,
        batches_per_iteration=batches,
    )
    return dataclasses.replace(scaled, seed=seed)


@pytest.fixture()
def quick_config():
    return make_quick_config()


def eagerly_initialize(cell):
    """Reference for lazy sub-population construction.

    Rebuilds a fresh cell's sub-population the way ``Cell.__init__`` did
    before the stream-3 draw was deferred: every network Xavier-initialised
    at build time, generators first, from one stream-3 RNG.  A lazily built
    cell must be indistinguishable from this one in everything it computes.
    """
    from repro.coevolution.cell import _cell_rng
    from repro.gan.networks import Discriminator, Generator

    assert cell.iteration == 0 and not cell._sub_defined
    network = cell.config.network
    build_rng = _cell_rng(cell.config.seed, cell.cell_index, stream=3)
    cell._sub_generators = [Generator(network, build_rng)
                            for _ in range(cell.neighborhood_size)]
    cell._sub_discriminators = [Discriminator(network, build_rng)
                                for _ in range(cell.neighborhood_size)]
    cell._sub_defined = True
    return cell


def copying_cell(config, cell_index, dataset, **kwargs):
    """Reference for the copy-on-select data path: the cell as it was.

    A :class:`~repro.coevolution.cell.Cell` whose sub-population slots are
    2·s *owning* networks: every step memcpys the center and each gathered
    genome into them, trains the selected two in place under a pair built
    for that step alone (fresh optimizer state, nothing shared with other
    cells or threads), and copies the winners into a center that owns its
    weights.  Slower and several times larger, and
    obviously right — the zero-copy cell must match it byte for byte in
    everything it computes, keeps and reports.
    """
    from repro.coevolution.cell import Cell, _cell_rng
    from repro.gan.networks import Discriminator, Generator
    from repro.gan.pair import GANPair
    from repro.nn import arena_of
    from repro.nn.serialize import parameters_to_vector, vector_to_parameters

    class CopyingCell(Cell):
        def __init__(self):
            super().__init__(config, cell_index, dataset, **kwargs)
            network, size = self.config.network, self.neighborhood_size
            # The center owns (and is written through) its first slab.
            arena_of(self.center.generator).rebind(self._g_slabs[0])
            arena_of(self.center.discriminator).rebind(self._d_slabs[0])
            self._sub_generators = [Generator(network, None) for _ in range(size)]
            self._sub_discriminators = [Discriminator(network, None) for _ in range(size)]

        def _define_subpopulations(self):
            if self._sub_defined:
                return
            build_rng = _cell_rng(self.config.seed, self.cell_index, stream=3)
            for network in self._sub_generators + self._sub_discriminators:
                network.initialize(build_rng)
            self._sub_defined = True

        def _update_subpopulations(self, neighbor_genomes):
            entries = [self.center_genomes(alias=True)] + list(neighbor_genomes)
            entries = entries[: self.neighborhood_size]
            if len(entries) == self.neighborhood_size:
                self._sub_defined = True
            self._define_subpopulations()
            for i, (g_genome, d_genome) in enumerate(entries):
                g_genome.write_into(self._sub_generators[i])
                d_genome.write_into(self._sub_discriminators[i])
                self._sub_lr[i] = g_genome.learning_rate

        def _load_trainee(self, g_idx, d_idx):
            # A pair of its own per step, over the selected owning slots.
            return GANPair(
                self._sub_generators[g_idx], self._sub_discriminators[d_idx],
                self.loss, self.config.mutation.optimizer, self._sub_lr[g_idx])

        def _unload_trainee(self, pair):
            pass  # the pair's networks are the owning slots themselves

        def _promote(self, g_idx, d_idx):
            vector_to_parameters(
                parameters_to_vector(self._sub_generators[g_idx], alias=True),
                self.center.generator)
            vector_to_parameters(
                parameters_to_vector(self._sub_discriminators[d_idx], alias=True),
                self.center.discriminator)
            self.center.learning_rate = self._sub_lr[g_idx]

        def restore(self, snapshot):
            super().restore(snapshot)
            # super() bound the center to private copies; own them writably.
            for network in (self.center.generator, self.center.discriminator):
                arena = arena_of(network)
                arena.rebind(arena.data.copy())

    return CopyingCell()


# -- the autograd tape as the oracle of the kernels ---------------------------
#
# ``src`` runs every GAN network on ``repro.nn.kernels``; these are the same
# steps written against ``Module.forward`` and the tape, consuming the RNG
# identically.  The bit-identity tests compare the two.


def tape_discriminator_step(pair, real_batch, rng, generator=None):
    """``GANPair.train_discriminator_step`` on the tape."""
    from repro.gan.sampling import sample_latent
    from repro.nn import Tensor, no_grad

    adversary = generator if generator is not None else pair.generator
    with no_grad():
        z = Tensor(sample_latent(real_batch.shape[0], adversary.settings.latent_size, rng))
        fake = adversary(z).detach()
    loss = pair.loss.discriminator_loss(pair.discriminator(Tensor(real_batch)),
                                        pair.discriminator(fake))
    pair.d_optimizer.zero_grad()
    loss.backward()
    pair.d_optimizer.step()
    return loss.item()


def tape_generator_step(pair, batch_size, rng, discriminator=None):
    """``GANPair.train_generator_step`` on the tape."""
    from repro.gan.sampling import sample_latent
    from repro.nn import Tensor

    adversary = discriminator if discriminator is not None else pair.discriminator
    z = Tensor(sample_latent(batch_size, pair.generator.settings.latent_size, rng))
    loss = pair.loss.generator_loss(adversary(pair.generator(z)))
    pair.g_optimizer.zero_grad()
    # The adversary's parameters collect gradients too; clear them afterwards.
    loss.backward()
    pair.g_optimizer.step()
    adversary.zero_grad()
    return loss.item()


def tape_generate_images(generator, n, rng, batch=512):
    """``generate_images`` (``n`` > 0) through ``Generator.forward``."""
    from repro.gan.sampling import sample_latent
    from repro.nn import Tensor, no_grad

    pieces = []
    with no_grad():
        for lo in range(0, n, batch):
            z = Tensor(sample_latent(min(batch, n - lo), generator.settings.latent_size, rng))
            pieces.append(generator(z).numpy())
    return np.concatenate(pieces, axis=0)


def tape_fitness_table(generators, discriminators, loss, real_batch, rng):
    """``evaluate_subpopulations`` as s separate draws and s**2 loss calls."""
    from repro.coevolution.fitness import FitnessTable
    from repro.gan.sampling import sample_latent
    from repro.nn import Tensor, no_grad

    n = real_batch.shape[0]
    with no_grad():
        fakes = [gen(Tensor(sample_latent(n, gen.settings.latent_size, rng)))
                 for gen in generators]
        real = Tensor(real_batch)
        g_losses = np.empty((len(generators), len(discriminators)))
        d_losses = np.empty_like(g_losses)
        for j, disc in enumerate(discriminators):
            real_logits = disc(real)
            for i, fake in enumerate(fakes):
                fake_logits = disc(fake)
                g_losses[i, j] = loss.generator_loss(fake_logits).item()
                d_losses[i, j] = loss.discriminator_loss(real_logits, fake_logits).item()
    return FitnessTable(g_losses=g_losses, d_losses=d_losses)


@pytest.fixture()
def tape_reference(monkeypatch):
    """From here to the end of the test, everything a ``Cell`` computes
    runs on the tape (request it late with ``request.getfixturevalue``)."""
    from repro.coevolution import cell, mixture
    from repro.gan.pair import GANPair
    from repro.nn import Tensor, no_grad

    def mixture_fitness(self, weights, batch_size):
        samples = mixture.sample_mixture(self._sub_generators, weights, batch_size, self.rng)
        with no_grad():
            logits = self.center.discriminator(Tensor(samples))
            return self.loss.generator_loss(logits).item()

    monkeypatch.setattr(GANPair, "train_discriminator_step", tape_discriminator_step)
    monkeypatch.setattr(GANPair, "train_generator_step", tape_generator_step)
    monkeypatch.setattr(cell, "evaluate_subpopulations", tape_fitness_table)
    monkeypatch.setattr(mixture, "generate_images", tape_generate_images)
    monkeypatch.setattr(cell.Cell, "_mixture_fitness", mixture_fitness)


@pytest.fixture(scope="session")
def small_raw_dataset(cache_dir):
    """400 rendered synthetic digits, session-cached."""
    return load_synthetic_mnist(400, seed=42)


@pytest.fixture(scope="session")
def small_dataset(small_raw_dataset):
    """The same digits in the tanh range, wrapped for training."""
    return ArrayDataset(to_tanh_range(small_raw_dataset.images),
                        small_raw_dataset.labels)


@pytest.fixture(scope="session")
def metric_classifier(small_raw_dataset):
    """A classifier trained once per session for metric tests."""
    from repro.metrics import train_digit_classifier

    rng = np.random.default_rng(7)
    images = to_tanh_range(small_raw_dataset.images)
    return train_digit_classifier(images, small_raw_dataset.labels, rng, epochs=8)


def make_random_checkpoint(config=None, *, seed=0, iteration=0):
    """An untrained checkpoint with random center genomes — servable in
    milliseconds, for serving-layer tests that don't need a real run."""
    import numpy as np

    from repro.coevolution.checkpoint import TrainingCheckpoint
    from repro.coevolution.genome import Genome
    from repro.gan.networks import Discriminator, Generator
    from repro.nn.serialize import parameters_to_vector

    if config is None:
        config = make_quick_config()
    rng = np.random.default_rng(seed)
    g_size = parameters_to_vector(Generator(config.network, rng)).size
    d_size = parameters_to_vector(Discriminator(config.network, rng)).size
    cells = config.coevolution.cells
    genomes = [
        (Genome(rng.standard_normal(g_size) * 0.05, 2e-4, "bce"),
         Genome(rng.standard_normal(d_size) * 0.05, 2e-4, "bce"))
        for _ in range(cells)
    ]
    mixtures = [rng.dirichlet(np.ones(5)) for _ in range(cells)]
    return TrainingCheckpoint(config=config, iteration=iteration,
                              center_genomes=genomes, mixture_weights=mixtures)
