"""Arena invariants: slab-backed views, slab optimizers, aliasing rules.

The whole genome hot path rests on a handful of structural guarantees
(see :mod:`repro.nn.arena`): parameters stay bound to slab views through
every mutation, borrowed vectors alias the live slab, copies never do, and
checkpoints round-trip bit-exactly through the arena.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.config import NetworkSettings, default_config
from repro.coevolution.checkpoint import (
    TrainingCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.coevolution.genome import Genome, genome_from_network
from repro.gan.networks import Discriminator, Generator
from repro.nn import (
    Linear,
    Sequential,
    Tanh,
    arena_of,
    attach_arena,
    optimizer_by_name,
    parameters_to_vector,
    vector_to_parameters,
)
from repro.nn.serialize import load_state_dict, state_dict

SMALL = NetworkSettings(latent_size=4, hidden_layers=2, hidden_neurons=8,
                        output_neurons=9)


def small_generator(seed: int = 0) -> Generator:
    return Generator(SMALL, np.random.default_rng(seed))


class TestAttachment:
    def test_networks_attach_at_construction(self):
        rng = np.random.default_rng(0)
        assert arena_of(Generator(SMALL, rng)) is not None
        assert arena_of(Discriminator(SMALL, rng)) is not None

    def test_params_become_slab_views_with_identical_values(self):
        rng = np.random.default_rng(1)
        bare = Sequential(Linear(3, 4, rng), Tanh(), Linear(4, 2, rng))
        before = {name: p.data.copy() for name, p in bare.named_parameters()}
        arena = attach_arena(bare)
        assert arena_of(bare) is arena
        offset = 0
        for name, p in bare.named_parameters():
            assert p.data.base is arena.data
            np.testing.assert_array_equal(p.data, before[name])
            np.testing.assert_array_equal(
                arena.data[offset:offset + p.size], before[name].ravel())
            offset += p.size
        assert offset == arena.size

    def test_attach_is_idempotent(self):
        net = small_generator()
        assert attach_arena(net) is arena_of(net)

    def test_attach_without_parameters_rejected(self):
        with pytest.raises(ValueError, match="without parameters"):
            attach_arena(Tanh())

    def test_arena_of_attaches_on_first_request(self):
        rng = np.random.default_rng(1)
        bare = Sequential(Linear(3, 4, rng), Tanh(), Linear(4, 2, rng))
        before = np.concatenate([p.data.ravel() for p in bare.parameters()])
        arena = arena_of(bare)
        assert arena_of(bare) is arena and attach_arena(bare) is arena
        np.testing.assert_array_equal(arena.data, before)

    def test_sub_module_of_an_arena_backed_network_is_refused(self):
        """Its parameters are views of the owner's slab: re-homing them
        into a second slab would silently detach the owner."""
        net = small_generator()
        with pytest.raises(ValueError, match="already views"):
            parameters_to_vector(net.net)
        assert all(p.data.base is arena_of(net).data for p in net.parameters())


class TestSerializeFastPaths:
    def test_out_buffer_is_reused(self):
        net = small_generator()
        buf = np.empty(arena_of(net).size, dtype=np.float64)
        result = parameters_to_vector(net, out=buf)
        assert result is buf
        np.testing.assert_array_equal(buf, arena_of(net).data)

    def test_alias_returns_live_slab(self):
        net = small_generator()
        vec = parameters_to_vector(net, alias=True)
        assert vec is arena_of(net).data
        # Mutating a parameter is visible through the borrowed vector.
        net.parameters()[0].data[...] = 42.0
        assert (vec[: net.parameters()[0].size] == 42.0).all()

    def test_default_is_a_copy(self):
        net = small_generator()
        vec = parameters_to_vector(net)
        assert not np.shares_memory(vec, arena_of(net).data)

    def test_vector_to_parameters_is_one_slab_write(self):
        net = small_generator()
        vec = np.arange(arena_of(net).size, dtype=np.float64)
        vector_to_parameters(vec, net)
        np.testing.assert_array_equal(arena_of(net).data, vec)
        # Self-assignment of the borrowed slab is a no-op, not an error.
        vector_to_parameters(parameters_to_vector(net, alias=True), net)
        np.testing.assert_array_equal(arena_of(net).data, vec)

    def test_state_dict_never_aliases_the_slab(self):
        net = small_generator()
        for name, value in state_dict(net).items():
            assert not np.shares_memory(value, arena_of(net).data), name

    def test_load_state_dict_preserves_arena_backing(self):
        net, donor = small_generator(0), small_generator(5)
        arena = arena_of(net)
        ids = [id(p.data) for p in net.parameters()]
        load_state_dict(net, state_dict(donor))
        assert [id(p.data) for p in net.parameters()] == ids
        np.testing.assert_array_equal(arena.data, arena_of(donor).data)


class TestSlabOptimizers:
    def test_step_mutates_views_in_place_without_rebinding(self):
        net = small_generator(4)
        arena = arena_of(net)
        opt = optimizer_by_name("adam", net, 1e-3)
        ids = [(id(p.data), id(p.grad)) for p in net.parameters()]
        arena.grad[...] = 1.0
        opt.step()
        assert [(id(p.data), id(p.grad)) for p in net.parameters()] == ids
        for p in net.parameters():
            assert p.data.base is arena.data
            assert p.grad.base is arena.grad

    def test_zero_grad_fused_fill(self):
        net = small_generator(6)
        arena = arena_of(net)
        opt = optimizer_by_name("adam", net, 1e-3)
        arena.grad[...] = 3.0
        opt.zero_grad()
        assert (arena.grad == 0.0).all()
        arena.grad[...] = 2.0
        net.zero_grad()  # the module-level fast path hits the same slab
        assert (arena.grad == 0.0).all()

    def test_ensure_grads_adopts_accumulated_gradients(self):
        net = small_generator(7)
        p = net.parameters()[0]
        p.grad = np.full(p.data.shape, 5.0)
        arena = arena_of(net)
        arena.ensure_grads()
        assert p.grad.base is arena.grad
        assert (p.grad == 5.0).all()

    def test_state_snapshot_roundtrip(self):
        net = small_generator(8)
        arena = arena_of(net)
        opt = optimizer_by_name("adam", net, 1e-3)
        arena.grad[...] = 1.5
        opt.step()
        snapshot = opt.state_arrays()
        twin = optimizer_by_name("adam", net, 1e-3)
        twin.load_state_arrays(snapshot)
        assert twin.t == opt.t
        np.testing.assert_array_equal(twin._m_flat, opt._m_flat)
        np.testing.assert_array_equal(twin._v_flat, opt._v_flat)
        assert [m.shape for m in snapshot["m"]] == [p.shape for p in net.parameters()]


class TestOptimizerReset:
    """``reset`` is a fresh optimizer without the reallocation."""

    @staticmethod
    def build(name, net):
        from repro.nn.optim import SGD

        if name == "sgd-momentum":
            return SGD(net, 1e-3, momentum=0.9)
        return optimizer_by_name(name, net, 1e-3)

    @staticmethod
    def run(net, optimizer, seed, steps=3):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            for p in net.parameters():
                grad = rng.standard_normal(p.data.shape)
                if p.grad is None:
                    p.grad = grad
                else:
                    p.grad[...] = grad
            optimizer.step()

    @pytest.mark.parametrize("name", ["adam", "sgd", "sgd-momentum", "rmsprop"])
    def test_reset_equals_a_fresh_optimizer(self, name):
        reused_net, fresh_net = small_generator(5), small_generator(5)
        reused = self.build(name, reused_net)
        self.run(reused_net, reused, seed=1)
        state_ids = [id(state) for state in reused._state_arrays()]
        reused.reset(5e-3)
        assert [id(state) for state in reused._state_arrays()] == state_ids  # in place
        # Same starting weights for the twin, then the same gradients.
        vector_to_parameters(parameters_to_vector(reused_net), fresh_net)
        fresh = self.build(name, fresh_net)
        fresh.learning_rate = 5e-3
        self.run(reused_net, reused, seed=2)
        self.run(fresh_net, fresh, seed=2)
        np.testing.assert_array_equal(parameters_to_vector(reused_net),
                                      parameters_to_vector(fresh_net))

    def test_reset_rejects_nonpositive_learning_rate(self):
        net = small_generator(0)
        with pytest.raises(ValueError):
            self.build("adam", net).reset(0.0)

    def test_scratch_is_one_span_not_one_network(self):
        from repro.nn.optim import Optimizer

        net = Generator(NetworkSettings(), np.random.default_rng(0))
        arena = arena_of(net)
        assert arena.size > 4 * Optimizer.BLOCK_ELEMS
        for name in ("adam", "sgd", "rmsprop"):
            optimizer = optimizer_by_name(name, net, 1e-3)
            assert optimizer._scratch.shape[1] == Optimizer.BLOCK_ELEMS


class TestRebind:
    """``ParameterArena.rebind``: a network becomes a window onto a vector."""

    def test_moves_every_parameter_without_copying(self):
        net = small_generator(0)
        arena = arena_of(net)
        vector = parameters_to_vector(small_generator(1))
        arena.rebind(vector)
        assert arena.data is vector
        for p in net.parameters():
            assert p.data.base is vector
        np.testing.assert_array_equal(parameters_to_vector(net), vector)

    def test_forward_reads_the_bound_vector(self):
        from repro.nn import Tensor
        from repro.nn import kernels

        net, donor = small_generator(0), small_generator(1)
        z = np.random.default_rng(2).standard_normal((6, SMALL.latent_size))
        kernels.kernel_for(net)  # built before the rebind: must follow it
        arena_of(net).rebind(parameters_to_vector(donor))
        expected = donor(Tensor(z)).data
        np.testing.assert_array_equal(net(Tensor(z)).data, expected)
        np.testing.assert_array_equal(kernels.kernel_for(net).forward(z), expected)
        arena_of(net).data[...] = 0.0   # and whatever the vector holds later
        assert not net(Tensor(z)).data.any()

    def test_optimizer_follows_the_binding(self):
        net = small_generator(3)
        arena = arena_of(net)
        optimizer = optimizer_by_name("adam", net, 1e-2)
        first = arena.data
        kept = first.copy()
        second = first.copy()
        arena.rebind(second)
        arena.grad[...] = 1.0
        optimizer.step()
        np.testing.assert_array_equal(first, kept)
        assert (second != kept).all()

    def test_read_only_binding_refuses_every_write(self):
        net = small_generator(4)
        arena = arena_of(net)
        borrowed = parameters_to_vector(small_generator(5))
        kept = borrowed.copy()
        window = borrowed.view()
        window.flags.writeable = False
        arena.rebind(window)
        optimizer = optimizer_by_name("sgd", net, 1e-2)
        arena.grad[...] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            optimizer.step()
        with pytest.raises(ValueError, match="read-only"):
            vector_to_parameters(np.zeros(arena.size), net)
        with pytest.raises(ValueError, match="read-only"):
            load_state_dict(net, state_dict(small_generator(6)))
        np.testing.assert_array_equal(borrowed, kept)
        assert borrowed.flags.writeable  # only the window is frozen

    def test_rejects_a_vector_it_cannot_window(self):
        arena = arena_of(small_generator(0))
        good = arena.data.copy()
        with pytest.raises(ValueError, match="shape"):
            arena.rebind(good[:-1])
        with pytest.raises(ValueError, match="float32"):
            arena.rebind(good.astype(np.float32))
        with pytest.raises(ValueError, match="non-contiguous"):
            arena.rebind(np.repeat(good, 2)[::2])


class TestGenomeContract:
    def test_contiguous_float64_is_adopted_without_copy(self):
        vec = np.arange(10.0)
        genome = Genome(vec, 1e-3, "bce")
        assert genome.parameters is vec

    def test_non_contiguous_input_normalized_with_one_copy(self):
        strided = np.arange(20.0)[::2]
        assert not strided.flags.c_contiguous
        genome = Genome(strided, 1e-3, "bce")
        assert genome.parameters.flags.c_contiguous
        np.testing.assert_array_equal(genome.parameters, strided)

    def test_alias_snapshot_borrows_the_arena(self):
        net = small_generator()
        genome = genome_from_network(net, 1e-3, "bce", alias=True)
        assert genome.parameters is arena_of(net).data
        copied = genome_from_network(net, 1e-3, "bce")
        assert not np.shares_memory(copied.parameters, arena_of(net).data)


class TestCheckpointRoundTrip:
    def test_bit_exact_through_the_arena(self, tmp_path):
        config = default_config().scaled(iterations=2, dataset_size=100)
        rng = np.random.default_rng(13)
        cells = config.coevolution.cells
        nets = [(Generator(config.network, rng), Discriminator(config.network, rng))
                for _ in range(cells)]
        genomes = [
            (genome_from_network(g, 1e-3, "bce"), genome_from_network(d, 1e-3, "bce"))
            for g, d in nets
        ]
        checkpoint = TrainingCheckpoint(
            config=config, iteration=1, center_genomes=genomes,
            mixture_weights=[np.full(5, 0.2)] * cells,
        )
        path = tmp_path / "arena.npz"
        save_checkpoint(path, checkpoint)
        restored = load_checkpoint(path)
        for (g0, d0), (g1, d1) in zip(genomes, restored.center_genomes):
            np.testing.assert_array_equal(g0.parameters, g1.parameters)
            np.testing.assert_array_equal(d0.parameters, d1.parameters)
        # Writing a restored genome back lands in the target's slab.
        target = Generator(config.network, np.random.default_rng(99))
        restored.center_genomes[0][0].write_into(target)
        np.testing.assert_array_equal(
            arena_of(target).data, genomes[0][0].parameters)


class TestPicklingSafety:
    @pytest.mark.parametrize("clone_of", [
        lambda net: pickle.loads(pickle.dumps(net)), copy.deepcopy])
    def test_clone_arrives_arena_backed(self, clone_of):
        net = small_generator(2)
        arena_of(net).ensure_grads()[...] = 3.0
        clone = clone_of(net)
        arena = arena_of(clone)
        assert arena is not arena_of(net)
        assert not np.shares_memory(arena.data, arena_of(net).data)
        for p in clone.parameters():
            assert p.data.base is arena.data and p.grad.base is arena.grad
        np.testing.assert_array_equal(arena.data, arena_of(net).data)
        assert (arena.grad == 3.0).all()
        # One slab write reaches every parameter of the clone, and only it.
        vec = np.arange(arena.size, dtype=np.float64)
        vector_to_parameters(vec, clone)
        np.testing.assert_array_equal(
            np.concatenate([p.data.ravel() for p in clone.parameters()]), vec)
        assert not np.array_equal(parameters_to_vector(net), vec)
