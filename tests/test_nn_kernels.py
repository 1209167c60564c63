"""Train-step kernels: bit-identity with the tape, and machinery tests.

The contract under test (see :mod:`repro.nn.kernels`): with the same seed,
the graph-free kernels every GAN network runs on produce **bitwise
identical** results to the autograd tape — forward outputs, per-layer
gradients, loss values, the s x s fitness table, and whole training
trajectories.  The tape side comes from ``tests/conftest.py``.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkSettings
from repro.coevolution.cell import Cell
from repro.coevolution.fitness import evaluate_subpopulations
from repro.data.dataset import ArrayDataset
from repro.gan.networks import Discriminator, Generator
from repro.gan.pair import GANPair
from repro.gan.sampling import generate_images
from repro.nn import (
    FusedStepKernel,
    Linear,
    Module,
    Sequential,
    Tanh,
    Tensor,
    arena_of,
    kernel_for,
    loss_by_name,
    optimizer_by_name,
    parameters_to_vector,
)
from repro.nn.kernels import _TapeLossKernel, layer_recipe, loss_kernel_for
from tests.conftest import (
    tape_discriminator_step,
    tape_fitness_table,
    tape_generate_images,
    tape_generator_step,
)

#: Small but representative topology: every hidden/output width is >= 4
#: (the row-block-stable GEMM regime); only the discriminator head is the
#: width-1 GEMV case the kernel handles per branch.
SETTINGS = NetworkSettings(latent_size=16, hidden_layers=2, hidden_neurons=32,
                           output_neurons=36)
BATCH = 20
LOSSES = ["bce", "heuristic", "mse"]


def build_pair(loss_name: str, seed: int = 0) -> GANPair:
    rng = np.random.default_rng(seed)
    return GANPair(Generator(SETTINGS, rng), Discriminator(SETTINGS, rng),
                   loss_by_name(loss_name), "adam", 2e-4)


def genome_bytes(pair: GANPair) -> bytes:
    return (parameters_to_vector(pair.generator).tobytes()
            + parameters_to_vector(pair.discriminator).tobytes())


# ---------------------------------------------------------------------------
# What runs on the kernels, and what is refused by name
# ---------------------------------------------------------------------------


class TestKernelFor:
    def test_networks_run_on_kernels(self):
        rng = np.random.default_rng(0)
        for net in (Generator(SETTINGS, rng), Discriminator(SETTINGS, rng)):
            kernel = kernel_for(net)
            assert isinstance(kernel, FusedStepKernel)
            assert kernel_for(net) is kernel  # built once, kept on the module

    def test_any_linear_activation_tree_gets_an_arena_and_a_kernel(self):
        rng = np.random.default_rng(0)
        nested = Sequential(Sequential(Linear(4, 8, rng), Tanh()), Linear(8, 3, rng))
        x = rng.standard_normal((5, 4))
        expected = nested(Tensor(x)).numpy()
        np.testing.assert_array_equal(kernel_for(nested).forward(x), expected)

    @pytest.mark.parametrize("build, named", [
        (lambda rng: Sequential(Linear(4, 3, rng, bias=False)), "Linear"),
        (lambda rng: Sequential(Linear(4, 3, rng), _Doubling()), "_Doubling"),
        (lambda rng: Sequential(Tanh(), Linear(4, 3, rng)), "Tanh"),       # leading act
        (lambda rng: Sequential(Linear(4, 3, rng), Tanh(), Tanh()), "Tanh"),  # two in a row
        (lambda rng: Sequential(), "Sequential"),                           # empty
    ])
    def test_unsupported_stack_is_an_error_naming_the_layer(self, build, named):
        net = build(np.random.default_rng(0))
        with pytest.raises(ValueError, match=named):
            layer_recipe(net)
        with pytest.raises(ValueError, match=named):
            kernel_for(net)

    def test_parameters_outside_the_linear_layers_are_refused(self):
        class Scaled(Module):
            def __init__(self, rng):
                super().__init__()
                self.scale = Tensor(np.ones(1), requires_grad=True)
                self.body = Linear(4, 3, rng)

        with pytest.raises(ValueError, match="outside its Linear layers"):
            kernel_for(Scaled(np.random.default_rng(0)))

    def test_identical_stacks_cannot_train_against_each_other(self):
        rng = np.random.default_rng(0)
        square = NetworkSettings(latent_size=12, hidden_layers=1,
                                 hidden_neurons=12, output_neurons=12)
        twin = Generator(square, rng)
        pair = GANPair(Generator(square, rng), twin, loss_by_name("bce"), "adam", 1e-3)
        with pytest.raises(ValueError, match="identical layer stacks"):
            pair.train_generator_step(BATCH, rng)

    def test_loss_kernel_lookup_is_by_exact_type(self):
        from repro.nn.losses import BCELoss

        class TweakedBCE(BCELoss):
            name = "tweaked"

        assert isinstance(loss_kernel_for(TweakedBCE()), _TapeLossKernel)
        assert not isinstance(loss_kernel_for(BCELoss()), _TapeLossKernel)


class _Doubling(Module):
    def forward(self, x):
        return x * 2.0


class TestClonesStayOnTheKernel:
    """A network that crosses pickle/deepcopy comes back arena-backed and
    kernel-run, with the optimizers that travelled still driving its slab."""

    @pytest.mark.parametrize("clone_of", [
        lambda pair: pickle.loads(pickle.dumps(pair)), copy.deepcopy])
    def test_clone_trains_the_original_trajectory(self, clone_of):
        real = np.random.default_rng(5).standard_normal((BATCH, SETTINGS.output_neurons))
        pair = build_pair("bce", seed=3)
        warm = np.random.default_rng(7)
        pair.train_discriminator_step(real, warm)   # moments and grads exist
        pair.train_generator_step(BATCH, warm)
        clone = clone_of(pair)
        for net, opt in ((clone.generator, clone.g_optimizer),
                         (clone.discriminator, clone.d_optimizer)):
            arena = arena_of(net)
            assert isinstance(kernel_for(net), FusedStepKernel)
            assert kernel_for(net).arena is arena and opt.arena is arena
            assert arena is not arena_of(pair.generator)
            assert all(p.data.base is arena.data and p.grad.base is arena.grad
                       for p in net.parameters())
        rng_a, rng_b = np.random.default_rng(53), np.random.default_rng(53)
        for _ in range(10):
            assert (pair.train_discriminator_step(real, rng_a)
                    == clone.train_discriminator_step(real, rng_b))
            assert (pair.train_generator_step(BATCH, rng_a)
                    == clone.train_generator_step(BATCH, rng_b))
        assert genome_bytes(pair) == genome_bytes(clone)

    def test_unpickled_network_joins_the_fitness_table(self):
        rng = np.random.default_rng(47)
        gens = [Generator(SETTINGS, rng) for _ in range(3)]
        discs = [Discriminator(SETTINGS, rng) for _ in range(3)]
        real = rng.standard_normal((BATCH, SETTINGS.output_neurons))
        loss = loss_by_name("bce")
        table = evaluate_subpopulations(gens, discs, loss, real, np.random.default_rng(3))
        mixed = [pickle.loads(pickle.dumps(gens[0]))] + gens[1:]
        again = evaluate_subpopulations(mixed, discs, loss, real, np.random.default_rng(3))
        np.testing.assert_array_equal(table.g_losses, again.g_losses)
        np.testing.assert_array_equal(table.d_losses, again.d_losses)


# ---------------------------------------------------------------------------
# The two definitions of each loss, pinned together
# ---------------------------------------------------------------------------


class TestTapeOnLogitsEqualsHandDerived:
    """Each Mustangs loss is written twice — the tape ``GANLoss`` and the
    hand-derived kernel.  Under the float64 reference policy the two agree
    to the byte; the hand kernels fold their ``1/count`` factors in float64
    whatever the logits' dtype, so under float32 they agree to float32
    rounding (and pin their own per-dtype golden hashes instead)."""

    @settings(max_examples=60, deadline=None)
    @given(loss_name=st.sampled_from(LOSSES),
           dtype=st.sampled_from([np.float64, np.float32]),
           n_real=st.integers(1, 64), n_fake=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1))
    def test_value_and_gradient_agree(self, loss_name, dtype, n_real, n_fake, seed):
        loss = loss_by_name(loss_name)
        hand, tape = loss_kernel_for(loss), _TapeLossKernel(loss)
        assert not isinstance(hand, _TapeLossKernel)
        logits = (np.random.default_rng(seed).standard_normal((n_real + n_fake, 1))
                  * 4.0).astype(dtype)
        if dtype is np.float64:
            same = np.testing.assert_array_equal
        else:
            def same(a, b):
                np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-7)
        fake = logits[n_real:]
        for step in (lambda k, out: k.d_step(logits, n_real, out),
                     lambda k, out: k.g_step(fake, out[n_real:])):
            out_hand, out_tape = np.zeros_like(logits), np.zeros_like(logits)
            same(step(hand, out_hand), step(tape, out_tape))
            same(out_hand, out_tape)
        same(hand.g_value(fake), tape.g_value(fake))
        for col_hand, col_tape in zip(
                hand.table_column(logits[:n_real], fake.reshape(1, n_fake)),
                tape.table_column(logits[:n_real], fake.reshape(1, n_fake))):
            same(col_hand, col_tape)

    def test_ignored_input_leaves_a_zero_gradient_block(self):
        class FakeOnly(type(loss_by_name("bce"))):
            def discriminator_loss(self, real_logits, fake_logits):
                return (fake_logits * fake_logits).mean()

        logits = np.random.default_rng(0).standard_normal((6, 1))
        out = np.full_like(logits, np.nan)
        loss_kernel_for(FakeOnly()).d_step(logits, 2, out)
        assert not out[:2].any() and out[2:].all()


# ---------------------------------------------------------------------------
# Forward bit-identity
# ---------------------------------------------------------------------------


class TestForwardIdentity:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu", "sigmoid"])
    def test_kernel_forward_matches_module(self, activation):
        settings = NetworkSettings(latent_size=16, hidden_layers=2,
                                   hidden_neurons=32, output_neurons=36,
                                   activation=activation)
        rng = np.random.default_rng(1)
        for net in (Generator(settings, rng), Discriminator(settings, rng)):
            kernel = kernel_for(net)
            x = rng.standard_normal((BATCH, kernel.in_dim))
            np.testing.assert_array_equal(kernel.forward(x), net(Tensor(x)).numpy())

    def test_stacked_forward_matches_separate_calls(self):
        """Row blocks of one stacked forward == per-block autograd calls."""
        rng = np.random.default_rng(2)
        disc = Discriminator(SETTINGS, rng)
        kernel = kernel_for(disc)
        a = rng.standard_normal((BATCH, SETTINGS.output_neurons))
        b = rng.standard_normal((2 * BATCH, SETTINGS.output_neurons))
        stack = np.concatenate([a, b], axis=0)
        blocks = (slice(0, BATCH), slice(BATCH, 3 * BATCH))
        out = kernel.forward(stack, branches=blocks)
        np.testing.assert_array_equal(out[:BATCH], disc(Tensor(a)).numpy())
        np.testing.assert_array_equal(out[BATCH:], disc(Tensor(b)).numpy())

    def test_generate_images_matches_autograd(self):
        rng = np.random.default_rng(3)
        generator = Generator(SETTINGS, rng)
        fused = generate_images(generator, 700, np.random.default_rng(7), batch=256)
        tape = tape_generate_images(generator, 700, np.random.default_rng(7), batch=256)
        np.testing.assert_array_equal(fused, tape)


# ---------------------------------------------------------------------------
# Gradient and training-step bit-identity
# ---------------------------------------------------------------------------


def _layer_grads(network) -> list[np.ndarray]:
    return [p.grad.copy() for p in network.parameters()]


class TestStepIdentity:
    @pytest.mark.parametrize("loss_name", LOSSES)
    def test_discriminator_step_grads_and_params(self, loss_name):
        real = np.random.default_rng(5).standard_normal((BATCH, SETTINGS.output_neurons))
        results = {}
        for mode in ("tape", "fused"):
            pair = build_pair(loss_name)
            rng = np.random.default_rng(9)
            step = (tape_discriminator_step if mode == "tape"
                    else GANPair.train_discriminator_step)
            loss = step(pair, real, rng)
            results[mode] = (loss, _layer_grads(pair.discriminator),
                             parameters_to_vector(pair.discriminator))
        assert results["tape"][0] == results["fused"][0]
        for tape_g, fused_g in zip(results["tape"][1], results["fused"][1]):
            np.testing.assert_array_equal(tape_g, fused_g)
        np.testing.assert_array_equal(results["tape"][2], results["fused"][2])

    @pytest.mark.parametrize("loss_name", LOSSES)
    def test_generator_step_grads_and_params(self, loss_name):
        results = {}
        for mode in ("tape", "fused"):
            pair = build_pair(loss_name)
            rng = np.random.default_rng(11)
            step = (tape_generator_step if mode == "tape"
                    else GANPair.train_generator_step)
            loss = step(pair, BATCH, rng)
            results[mode] = (loss, _layer_grads(pair.generator),
                             parameters_to_vector(pair.generator))
        assert results["tape"][0] == results["fused"][0]
        for tape_g, fused_g in zip(results["tape"][1], results["fused"][1]):
            np.testing.assert_array_equal(tape_g, fused_g)
        np.testing.assert_array_equal(results["tape"][2], results["fused"][2])

    @pytest.mark.parametrize("loss_name", LOSSES)
    def test_50_iteration_trajectory_hash(self, loss_name):
        """The satellite contract: 50 training iterations, identical genome."""
        real_rng = np.random.default_rng(17)
        batches = [real_rng.standard_normal((BATCH, SETTINGS.output_neurons))
                   for _ in range(5)]
        genomes = {}
        losses = {}
        for mode, d_step, g_step in (
                ("tape", tape_discriminator_step, tape_generator_step),
                ("fused", GANPair.train_discriminator_step, GANPair.train_generator_step)):
            pair = build_pair(loss_name)
            rng = np.random.default_rng(23)
            seen = []
            for it in range(50):
                seen.append(d_step(pair, batches[it % 5], rng))
                seen.append(g_step(pair, BATCH, rng))
            genomes[mode] = genome_bytes(pair)
            losses[mode] = seen
        assert losses["tape"] == losses["fused"]
        assert genomes["tape"] == genomes["fused"]

    def test_cross_adversary_steps_identical(self):
        """Neighbor opponents (the cellular algorithm's case) stay bit-equal."""
        real = np.random.default_rng(5).standard_normal((BATCH, SETTINGS.output_neurons))
        results = {}
        for mode, d_step, g_step in (
                ("tape", tape_discriminator_step, tape_generator_step),
                ("fused", GANPair.train_discriminator_step, GANPair.train_generator_step)):
            pair = build_pair("bce")
            rng_nets = np.random.default_rng(31)
            opponent_g = Generator(SETTINGS, rng_nets)
            opponent_d = Discriminator(SETTINGS, rng_nets)
            rng = np.random.default_rng(37)
            d = d_step(pair, real, rng, generator=opponent_g)
            g = g_step(pair, BATCH, rng, discriminator=opponent_d)
            results[mode] = (d, g, genome_bytes(pair))
        assert results["tape"] == results["fused"]


# ---------------------------------------------------------------------------
# Batched fitness table
# ---------------------------------------------------------------------------


class TestBatchedFitness:
    @pytest.mark.parametrize("loss_name", LOSSES)
    def test_batched_equals_loop_exactly(self, loss_name):
        rng = np.random.default_rng(41)
        gens = [Generator(SETTINGS, rng) for _ in range(5)]
        discs = [Discriminator(SETTINGS, rng) for _ in range(4)]
        loss = loss_by_name(loss_name)
        real = rng.standard_normal((BATCH, SETTINGS.output_neurons))

        rng_a, rng_b = np.random.default_rng(43), np.random.default_rng(43)
        batched = evaluate_subpopulations(gens, discs, loss, real, rng_a)
        loop = tape_fitness_table(gens, discs, loss, real, rng_b)
        np.testing.assert_array_equal(batched.g_losses, loop.g_losses)
        np.testing.assert_array_equal(batched.d_losses, loop.d_losses)
        # identical RNG consumption: the paths stay interchangeable mid-run
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_plug_in_loss_equals_loop_exactly(self):
        """A loss outside the trio gets its column from the tape on logits."""
        from repro.nn.losses import LeastSquaresLoss

        class Plugged(LeastSquaresLoss):
            name = "plugged"

        rng = np.random.default_rng(41)
        gens = [Generator(SETTINGS, rng) for _ in range(3)]
        discs = [Discriminator(SETTINGS, rng) for _ in range(2)]
        real = rng.standard_normal((BATCH, SETTINGS.output_neurons))
        rng_a, rng_b = np.random.default_rng(43), np.random.default_rng(43)
        batched = evaluate_subpopulations(gens, discs, Plugged(), real, rng_a)
        loop = tape_fitness_table(gens, discs, Plugged(), real, rng_b)
        np.testing.assert_array_equal(batched.g_losses, loop.g_losses)
        np.testing.assert_array_equal(batched.d_losses, loop.d_losses)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_mixed_dtype_neighbourhood_is_an_error(self):
        import dataclasses

        rng = np.random.default_rng(0)
        narrow = dataclasses.replace(SETTINGS, dtype="float32")
        with pytest.raises(ValueError, match="mixed-dtype"):
            evaluate_subpopulations(
                [Generator(SETTINGS, rng), Generator(narrow, rng)],
                [Discriminator(SETTINGS, rng)], loss_by_name("bce"),
                rng.standard_normal((BATCH, SETTINGS.output_neurons)), rng)

    def test_fitness_caching(self):
        table = evaluate_subpopulations(
            [Generator(SETTINGS, np.random.default_rng(0)) for _ in range(2)],
            [Discriminator(SETTINGS, np.random.default_rng(1)) for _ in range(2)],
            loss_by_name("bce"),
            np.random.default_rng(2).standard_normal((BATCH, SETTINGS.output_neurons)),
            np.random.default_rng(3))
        first = table.generator_fitness
        assert table.generator_fitness is first          # cached, not recomputed
        assert table.discriminator_fitness is table.discriminator_fitness
        np.testing.assert_array_equal(first, table.g_losses.mean(axis=1))


# ---------------------------------------------------------------------------
# Blocked optimizer sweep
# ---------------------------------------------------------------------------


class TestStepBlocked:
    @pytest.mark.parametrize("name", ["adam", "sgd", "rmsprop"])
    def test_blocked_equals_plain(self, name):
        rng = np.random.default_rng(59)
        plain_net = Generator(SETTINGS, rng)
        blocked_net = Generator(SETTINGS, np.random.default_rng(59))
        np.testing.assert_array_equal(parameters_to_vector(plain_net),
                                      parameters_to_vector(blocked_net))
        grads = np.random.default_rng(61).standard_normal(arena_of(plain_net).size)
        opts = []
        for net in (plain_net, blocked_net):
            opt = optimizer_by_name(name, net, 1e-3)
            opt.arena.grad[...] = grads
            opts.append(opt)
        for _ in range(3):
            opts[0].step()
            opts[1].step_blocked(block=1000)   # odd block, exercises the tail
        np.testing.assert_array_equal(parameters_to_vector(plain_net),
                                      parameters_to_vector(blocked_net))


# ---------------------------------------------------------------------------
# Cell-level trajectory (the integration the PR rides on)
# ---------------------------------------------------------------------------


class TestCellTrajectory:
    def test_cell_iterations_bit_identical(self, request):
        from repro.config import ExperimentConfig
        import dataclasses

        config = ExperimentConfig()
        config = dataclasses.replace(
            config,
            network=SETTINGS,
            coevolution=dataclasses.replace(config.coevolution, iterations=8,
                                            grid_rows=1, grid_cols=1),
            execution=dataclasses.replace(config.execution, number_of_tasks=2),
            training=dataclasses.replace(config.training, batch_size=BATCH,
                                         batches_per_iteration=2),
            dataset_size=BATCH * 4,
        )
        images = np.random.default_rng(71).standard_normal(
            (config.dataset_size, SETTINGS.output_neurons))
        dataset = ArrayDataset(images)
        genomes = {}
        for mode in ("fused", "tape"):
            if mode == "tape":
                request.getfixturevalue("tape_reference")
            cell = Cell(config, 0, dataset)
            for _ in range(8):
                cell.step([])
            g, d = cell.center_genomes()
            genomes[mode] = g.parameters.tobytes() + d.parameters.tobytes()
        assert genomes["tape"] == genomes["fused"]


# ---------------------------------------------------------------------------
# Resource discipline: no immortal networks, bounded workspace cache
# ---------------------------------------------------------------------------


class TestResourceDiscipline:
    def test_kernelized_networks_are_collectable(self):
        """Arena and kernel live on the module and die with it: nothing
        global may pin a kernelized network (and its multi-MB slabs)."""
        import gc
        import weakref

        refs = []
        for i in range(8):
            net = Generator(SETTINGS, np.random.default_rng(i))
            kernel_for(net)
            refs.append(weakref.ref(net))
            del net
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_workspace_cache_is_bounded(self):
        """Data-dependent batch sizes (mixture multinomial counts, serving
        requests) must not grow the workspace cache without bound."""
        from repro.nn.kernels import _WORKSPACE_CACHE_LIMIT, _WORKSPACES

        net = Generator(SETTINGS, np.random.default_rng(0))
        kernel = kernel_for(net)
        for n in range(1, 3 * _WORKSPACE_CACHE_LIMIT):
            kernel.forward(np.zeros((n, SETTINGS.latent_size)))
        assert len(_WORKSPACES.pools) <= _WORKSPACE_CACHE_LIMIT


# ---------------------------------------------------------------------------
# Satellite: Tensor.__matmul__ diagnostics
# ---------------------------------------------------------------------------


def test_matmul_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3, 4)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"\(2, 3, 4\) @ \(4, 5\)"):
        a @ b
