"""Tests for the GAN networks, pair training steps, and sampling."""

import numpy as np
import pytest

from repro.config import NetworkSettings, paper_table1_config
from repro.gan import (
    Discriminator,
    Generator,
    build_gan_pair,
    generate_images,
    sample_latent,
)
from repro.nn import Tensor
from repro.nn.serialize import count_parameters


@pytest.fixture()
def settings():
    return NetworkSettings()  # the Table I topology


class TestNetworks:
    def test_generator_shapes(self, settings, rng):
        gen = Generator(settings, rng)
        out = gen(Tensor(rng.normal(size=(3, 64))))
        assert out.shape == (3, 784)

    def test_generator_output_in_tanh_range(self, settings, rng):
        gen = Generator(settings, rng)
        out = gen(Tensor(rng.normal(size=(16, 64)))).numpy()
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_generator_rejects_wrong_latent(self, settings, rng):
        gen = Generator(settings, rng)
        with pytest.raises(ValueError):
            gen(Tensor(rng.normal(size=(3, 32))))

    def test_discriminator_shapes(self, settings, rng):
        disc = Discriminator(settings, rng)
        out = disc(Tensor(rng.normal(size=(5, 784))))
        assert out.shape == (5, 1)

    def test_discriminator_rejects_wrong_width(self, settings, rng):
        disc = Discriminator(settings, rng)
        with pytest.raises(ValueError):
            disc(Tensor(rng.normal(size=(5, 100))))

    def test_table1_parameter_counts(self, settings, rng):
        gen = Generator(settings, rng)
        # 64*256+256 + 256*256+256 + 256*784+784
        assert count_parameters(gen) == 64 * 256 + 256 + 256 * 256 + 256 + 256 * 784 + 784
        disc = Discriminator(settings, rng)
        assert count_parameters(disc) == 784 * 256 + 256 + 256 * 256 + 256 + 256 + 1

    def test_different_rng_different_weights(self, settings):
        a = Generator(settings, np.random.default_rng(1))
        b = Generator(settings, np.random.default_rng(2))
        pa = a.parameters()[0].numpy()
        pb = b.parameters()[0].numpy()
        assert np.abs(pa - pb).max() > 0


class TestSampling:
    def test_sample_latent_shape(self, rng):
        z = sample_latent(7, 64, rng)
        assert z.shape == (7, 64)

    def test_sample_latent_validation(self, rng):
        with pytest.raises(ValueError):
            sample_latent(-1, 64, rng)
        with pytest.raises(ValueError):
            sample_latent(1, 0, rng)

    def test_sample_latent_zero_is_empty(self, rng):
        # Zero-count shards are legitimate in the serving batching engine.
        assert sample_latent(0, 64, rng).shape == (0, 64)

    def test_generate_images(self, settings, rng):
        gen = Generator(settings, rng)
        imgs = generate_images(gen, 10, rng)
        assert imgs.shape == (10, 784)

    def test_generate_images_zero_is_empty(self, settings, rng):
        gen = Generator(settings, rng)
        assert generate_images(gen, 0, rng).shape == (0, 784)
        with pytest.raises(ValueError):
            generate_images(gen, -1, rng)

    def test_generate_images_chunking(self, settings, rng):
        gen = Generator(settings, rng)
        imgs = generate_images(gen, 10, np.random.default_rng(0), batch=3)
        ref = generate_images(gen, 10, np.random.default_rng(0), batch=100)
        # Same rng stream, same chunk boundaries or not -> same draws overall.
        assert imgs.shape == ref.shape
        np.testing.assert_allclose(imgs, ref)


class TestGanPair:
    @pytest.fixture()
    def pair(self, rng):
        config = paper_table1_config(2, 2)
        return build_gan_pair(config, rng)

    def test_build_from_config(self, pair):
        assert pair.loss.name == "bce"
        assert pair.learning_rate == pytest.approx(0.0002)

    def test_mustangs_name_rejected(self, rng):
        config = paper_table1_config(2, 2)
        with pytest.raises(ValueError):
            build_gan_pair(config, rng, loss_name="mustangs")

    def test_learning_rate_setter_updates_both(self, pair):
        pair.learning_rate = 0.005
        assert pair.g_optimizer.learning_rate == 0.005
        assert pair.d_optimizer.learning_rate == 0.005

    def test_learning_rate_must_stay_positive(self, pair):
        with pytest.raises(ValueError):
            pair.learning_rate = 0.0

    def test_discriminator_step_updates_discriminator_only(self, pair, rng):
        real = rng.uniform(-1, 1, size=(20, 784))
        g_before = pair.generator.parameters()[0].numpy().copy()
        d_before = pair.discriminator.parameters()[0].numpy().copy()
        loss = pair.train_discriminator_step(real, rng)
        assert np.isfinite(loss)
        assert np.array_equal(g_before, pair.generator.parameters()[0].numpy())
        assert not np.array_equal(d_before, pair.discriminator.parameters()[0].numpy())

    def test_generator_step_updates_generator_only(self, pair, rng):
        g_before = pair.generator.parameters()[0].numpy().copy()
        d_before = pair.discriminator.parameters()[0].numpy().copy()
        loss = pair.train_generator_step(20, rng)
        assert np.isfinite(loss)
        assert not np.array_equal(g_before, pair.generator.parameters()[0].numpy())
        assert np.array_equal(d_before, pair.discriminator.parameters()[0].numpy())

    def test_train_against_foreign_adversaries(self, pair, rng):
        config = paper_table1_config(2, 2)
        other = build_gan_pair(config, np.random.default_rng(99))
        real = rng.uniform(-1, 1, size=(10, 784))
        d_loss = pair.train_discriminator_step(real, rng, generator=other.generator)
        g_loss = pair.train_generator_step(10, rng, discriminator=other.discriminator)
        assert np.isfinite(d_loss) and np.isfinite(g_loss)
        # Foreign discriminator must not have been updated.
        assert other.discriminator.parameters()[0].grad is None or np.all(
            other.discriminator.parameters()[0].grad == 0
        )

    def test_reset_optimizers_keeps_lr(self, pair):
        pair.learning_rate = 0.001
        pair.g_optimizer.t = 5 if hasattr(pair.g_optimizer, "t") else 0
        pair.reset_optimizers()
        assert pair.learning_rate == 0.001
        assert getattr(pair.g_optimizer, "t", 0) == 0

    def test_reset_optimizers_is_in_place(self, pair, rng):
        pair.train_generator_step(8, rng)
        moments = pair.g_optimizer._m_flat
        assert moments.any()
        pair.reset_optimizers()
        assert pair.g_optimizer._m_flat is moments and not moments.any()

    def test_optimizers_are_built_on_first_use(self, pair, rng):
        """A pair that is only read — a cell's center, a pair rebuilt from
        genomes for evaluation — allocates no gradients or moments."""
        from repro.coevolution.fitness import evaluate_subpopulations
        from repro.nn import arena_of

        real = np.zeros((8, pair.discriminator.settings.output_neurons))
        evaluate_subpopulations([pair.generator], [pair.discriminator],
                                pair.loss, real, rng)
        pair.learning_rate = 0.002
        assert pair._g_optimizer is None and pair._d_optimizer is None
        assert arena_of(pair.generator).grad is None
        pair.train_generator_step(8, rng)
        assert pair.g_optimizer.learning_rate == 0.002
        assert pair._d_optimizer is None
        assert arena_of(pair.discriminator).grad is None

    def test_discriminator_learns_to_separate(self, rng):
        """A few steps on fixed data should reduce discriminator loss."""
        config = paper_table1_config(2, 2)
        pair = build_gan_pair(config, rng)
        pair.learning_rate = 0.002
        real = rng.uniform(0.5, 1.0, size=(50, 784)) * 2 - 1
        first = pair.train_discriminator_step(real, rng)
        for _ in range(30):
            last = pair.train_discriminator_step(real, rng)
        assert last < first
