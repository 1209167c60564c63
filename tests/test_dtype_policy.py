"""Dtype as a run-level policy: registry, trajectories, wire, checkpoints.

float64 stays the bit-identical reference (its trajectories are pinned by
every pre-existing equivalence test); float32 and mixed16 get their own
determinism contract here: same seed + same dtype + same backend chain =>
same genome bytes, and the policy's storage dtype is what genomes, wire
payloads and checkpoints actually carry.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import ConfigError, NetworkSettings, paper_table1_config
from repro.coevolution.genome import Genome
from repro.registry import DTYPES, dtype_policy
from tests.conftest import make_quick_config


def _dtype_config(dtype, loss="bce", **scale):
    base = dict(iterations=50, dataset_size=100, batch_size=10, batches=1)
    base.update(scale)
    cfg = make_quick_config(1, 1, **base)
    return dataclasses.replace(
        cfg,
        network=dataclasses.replace(cfg.network, dtype=dtype),
        training=dataclasses.replace(cfg.training, loss_function=loss),
    )


def _trajectory_hash(result) -> str:
    h = hashlib.sha256()
    for g, d in result.center_genomes:
        h.update(str(g.parameters.dtype).encode())
        h.update(g.parameters.tobytes())
        h.update(d.parameters.tobytes())
    return h.hexdigest()


def _run(config, dataset, backend="sequential", **backend_options):
    from repro.api import Experiment

    return (Experiment(config).dataset(dataset)
            .backend(backend, **backend_options).run())


class TestDtypeRegistry:
    def test_known_policies(self):
        assert {"float64", "float32", "mixed16"} <= DTYPES.known()

    @pytest.mark.parametrize("name,compute,storage", [
        ("float64", "float64", "float64"),
        ("float32", "float32", "float32"),
        ("mixed16", "float32", "float16"),
    ])
    def test_policy_fields(self, name, compute, storage):
        policy = dtype_policy(name)
        assert policy.compute == compute
        assert policy.storage == storage

    def test_unknown_policy_rejected(self):
        with pytest.raises(Exception, match="float128"):
            dtype_policy("float128")

    def test_network_settings_validates_dtype(self):
        with pytest.raises(ConfigError, match="dtype"):
            NetworkSettings(dtype="double")

    def test_config_round_trip_preserves_dtype(self):
        config = paper_table1_config().with_dtype("mixed16")
        assert config.network.dtype == "mixed16"
        restored = type(config).from_dict(config.to_dict())
        assert restored.network.dtype == "mixed16"

    def test_experiment_dtype_method(self):
        from repro.api import Experiment

        experiment = Experiment().dtype("float32")
        assert experiment.config.network.dtype == "float32"


class TestNetworkDtype:
    """The policy's compute dtype reaches parameters, grads and outputs."""

    @pytest.mark.parametrize("name", ["float64", "float32", "mixed16"])
    def test_parameters_and_outputs(self, name):
        from repro.gan.networks import Discriminator, Generator
        from repro.nn import Tensor

        compute = np.dtype(dtype_policy(name).compute)
        settings = NetworkSettings(dtype=name)
        rng = np.random.default_rng(0)
        gen = Generator(settings, rng)
        disc = Discriminator(settings, rng)
        for net in (gen, disc):
            assert all(p.data.dtype == compute for p in net.parameters())
        z = Tensor(rng.standard_normal((4, settings.latent_size)))  # float64 in
        fake = gen(z)
        assert fake.data.dtype == compute
        logits = disc(fake)
        assert logits.data.dtype == compute

    @pytest.mark.parametrize("name", ["float64", "float32", "mixed16"])
    @pytest.mark.parametrize("n", [0, 3])
    def test_samples_carry_the_compute_dtype_even_when_empty(self, name, n):
        from repro.coevolution.mixture import MixtureWeights, sample_mixture
        from repro.gan.networks import Generator
        from repro.gan.sampling import generate_images
        from repro.serving.compute import assemble, build_plan, forward_rows

        compute = np.dtype(dtype_policy(name).compute)
        settings = NetworkSettings(dtype=name)
        rng = np.random.default_rng(0)
        gens = [Generator(settings, rng) for _ in range(2)]
        mixture = MixtureWeights.uniform(2)
        plan = build_plan(n, mixture.weights, settings.latent_size, rng)
        served = assemble(plan, [forward_rows(g, z) for g, z in zip(gens, plan.latents)])
        for images in (generate_images(gens[0], n, rng),
                       sample_mixture(gens, mixture, n, rng), served):
            assert images.shape == (n, settings.output_neurons)
            assert images.dtype == compute

    @pytest.mark.parametrize("name", ["float32", "mixed16"])
    def test_gradients_and_optimizer_state_match_compute(self, name):
        from repro.gan.networks import Generator
        from repro.nn.arena import arena_of
        from repro.nn.optim import Adam

        compute = np.dtype(dtype_policy(name).compute)
        settings = NetworkSettings(dtype=name)
        gen = Generator(settings, np.random.default_rng(0))
        arena = arena_of(gen)
        assert arena.data.dtype == compute
        arena.ensure_grads()
        assert arena.grad.dtype == compute
        optimizer = Adam(gen, learning_rate=1e-3)
        arena.grad[:] = 1.0
        optimizer.step()
        for state in (optimizer._m_flat, optimizer._v_flat, optimizer._scratch):
            assert state.dtype == compute
        assert arena.data.dtype == compute  # step never rebinds/promotes

    def test_rng_stream_parity_across_dtypes(self):
        """Same seed => same underlying float64 draws, only cast differs."""
        from repro.gan.networks import Generator

        g64 = Generator(NetworkSettings(dtype="float64"), np.random.default_rng(3))
        g32 = Generator(NetworkSettings(dtype="float32"), np.random.default_rng(3))
        p64 = np.concatenate([p.data.ravel() for p in g64.parameters()])
        p32 = np.concatenate([p.data.ravel() for p in g32.parameters()])
        np.testing.assert_array_equal(p64.astype(np.float32), p32)


class TestGenomeDtype:
    def test_contiguous_float_vectors_adopted_as_is(self):
        for dtype in (np.float64, np.float32, np.float16):
            vec = np.ones(8, dtype=dtype)
            genome = Genome(vec, 1e-3, "bce")
            assert genome.parameters is vec  # zero-copy, dtype intact

    def test_non_float_input_normalized_to_float64(self):
        genome = Genome(np.arange(8), 1e-3, "bce")
        assert genome.parameters.dtype == np.float64
        listed = Genome([1.0, 2.0], 1e-3, "bce")
        assert listed.parameters.dtype == np.float64

    def test_non_contiguous_copied_once_dtype_kept(self):
        strided = np.ones(16, dtype=np.float32)[::2]
        genome = Genome(strided, 1e-3, "bce")
        assert genome.parameters.flags.c_contiguous
        assert genome.parameters.dtype == np.float32


class TestGoldenTrajectories:
    """Per-dtype determinism pins: 50 sequential iterations, each loss.

    The hashes are not portable across BLAS builds, so the pin is
    self-relative: every (dtype, loss) trajectory must differ from the
    float64 reference (dtype really flows through training), and a repeated
    float32 run must reproduce its hash bit for bit.
    """

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.data.dataset import ArrayDataset
        from repro.data.synthetic import load_synthetic_mnist
        from repro.data.transforms import to_tanh_range

        raw = load_synthetic_mnist(100, seed=42)
        return ArrayDataset(to_tanh_range(raw.images), raw.labels)

    @pytest.mark.parametrize("loss", ["bce", "mse", "heuristic"])
    def test_per_dtype_hashes_distinct_and_typed(self, dataset, loss):
        hashes = {}
        for name in ("float64", "float32", "mixed16"):
            result = _run(_dtype_config(name, loss), dataset)
            storage = np.dtype(dtype_policy(name).storage)
            g, d = result.center_genomes[0]
            assert g.parameters.dtype == storage
            assert d.parameters.dtype == storage
            hashes[name] = _trajectory_hash(result)
        assert len(set(hashes.values())) == 3, hashes

    def test_float32_trajectory_is_deterministic(self, dataset):
        first = _trajectory_hash(_run(_dtype_config("float32"), dataset))
        second = _trajectory_hash(_run(_dtype_config("float32"), dataset))
        assert first == second

    def test_mixed16_trajectory_is_deterministic(self, dataset):
        first = _trajectory_hash(_run(_dtype_config("mixed16"), dataset))
        second = _trajectory_hash(_run(_dtype_config("mixed16"), dataset))
        assert first == second


class TestCrossBackendEquivalence:
    """float32 (and mixed16) train the same trajectory on every backend."""

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.data.dataset import ArrayDataset
        from repro.data.synthetic import load_synthetic_mnist
        from repro.data.transforms import to_tanh_range

        raw = load_synthetic_mnist(400, seed=42)
        return ArrayDataset(to_tanh_range(raw.images), raw.labels)

    def test_float32_sequential_process_socket_equal(self, dataset):
        config = dataclasses.replace(
            make_quick_config(2, 2, iterations=2),
            network=dataclasses.replace(
                make_quick_config().network, dtype="float32"))
        sequential = _run(config, dataset)
        process = _run(config, dataset, backend="process")
        socketed = _run(config, dataset, backend="socket",
                        hosts="127.0.0.1:3,127.0.0.1:2")
        assert socketed.complete
        seq_hash = _trajectory_hash(sequential)
        assert _trajectory_hash(process) == seq_hash
        assert _trajectory_hash(socketed) == seq_hash
        for g, _d in sequential.center_genomes:
            assert g.parameters.dtype == np.float32

    def test_mixed16_sequential_process_equal(self, dataset):
        config = dataclasses.replace(
            make_quick_config(2, 2, iterations=2),
            network=dataclasses.replace(
                make_quick_config().network, dtype="mixed16"))
        sequential = _run(config, dataset)
        process = _run(config, dataset, backend="process")
        assert _trajectory_hash(process) == _trajectory_hash(sequential)
        for g, _d in sequential.center_genomes:
            assert g.parameters.dtype == np.float16


class TestCheckpointDtype:
    @pytest.mark.parametrize("name", ["float32", "mixed16"])
    def test_round_trip_preserves_dtype_bit_exactly(self, name, tmp_path):
        from repro.coevolution.checkpoint import (
            TrainingCheckpoint, load_checkpoint, save_checkpoint)

        storage = np.dtype(dtype_policy(name).storage)
        config = _dtype_config(name, iterations=2)
        rng = np.random.default_rng(0)
        vectors = [rng.standard_normal(32).astype(storage) for _ in range(2)]
        checkpoint = TrainingCheckpoint(
            config=config,
            iteration=1,
            center_genomes=[(Genome(vectors[0], 1e-3, "bce"),
                             Genome(vectors[1], 1e-3, "bce"))],
            mixture_weights=[np.full(5, 0.2)],
        )
        path = tmp_path / "run.npz"
        save_checkpoint(path, checkpoint)
        restored = load_checkpoint(path)
        assert restored.config.network.dtype == name
        g, d = restored.center_genomes[0]
        assert g.parameters.dtype == storage
        assert d.parameters.dtype == storage
        np.testing.assert_array_equal(g.parameters, vectors[0])
        np.testing.assert_array_equal(d.parameters, vectors[1])

    def test_trained_float32_checkpoint_round_trip(self, tmp_path):
        from repro.coevolution.checkpoint import (
            TrainingCheckpoint, load_checkpoint, save_checkpoint)
        from repro.coevolution.sequential import SequentialTrainer
        from repro.data.dataset import ArrayDataset
        from repro.data.synthetic import load_synthetic_mnist
        from repro.data.transforms import to_tanh_range

        raw = load_synthetic_mnist(100, seed=42)
        dataset = ArrayDataset(to_tanh_range(raw.images), raw.labels)
        config = _dtype_config("float32", iterations=2)
        trainer = SequentialTrainer(config, dataset)
        trainer.run()
        checkpoint = TrainingCheckpoint.from_trainer(trainer)
        path = tmp_path / "f32.npz"
        save_checkpoint(path, checkpoint)
        restored = load_checkpoint(path)
        for (g0, d0), (g1, d1) in zip(checkpoint.center_genomes,
                                      restored.center_genomes):
            assert g1.parameters.dtype == np.float32
            np.testing.assert_array_equal(g0.parameters, g1.parameters)
            np.testing.assert_array_equal(d0.parameters, d1.parameters)


class TestWireDtype:
    def test_worker_command_carries_dtype(self):
        import socket as socket_module

        from repro.mpi.socket_transport import SocketTransport

        transport = SocketTransport(2, hosts="remotebox:2", dtype="float32")
        listener = socket_module.socket()
        try:
            listener.bind(("127.0.0.1", 0))
            transport._listener = listener
            assert "--dtype float32" in transport.worker_command(0)
        finally:
            listener.close()
            transport._listener = None
            transport.shutdown()

    def test_mixed_dtype_hello_rejected_loudly(self, capsys):
        """A peer advertising a different dtype policy is rejected at
        rendezvous with a clear error, and the run completes with the
        matching workers — corruption is impossible, not just unlikely."""
        import json
        import socket as socket_module
        import threading
        import time

        from repro.mpi import wire
        from repro.mpi.socket_transport import (
            _WIRE_VERSION, SocketTransport, worker_main)
        from tests.test_mpi_socket import ring_program

        # The matching worker is attached by hand, after the mismatched
        # hello was turned away: a forked local worker would complete the
        # rendezvous before the intruder even connects.
        transport = SocketTransport(2, hosts="elsewhere:2", token="tok",
                                    start_timeout=30, dtype="float32")
        launched = threading.Thread(
            target=transport.launch, args=(ring_program, (4,)), daemon=True)
        launched.start()
        worker = None
        try:
            deadline = time.monotonic() + 20
            while transport._listener is None:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            port = transport._listener.getsockname()[1]
            hello = json.dumps({
                "version": _WIRE_VERSION, "token": "tok", "slots": 2,
                "index": 0, "host": "intruder", "pid": 1,
                "dtype": "float64",
            }).encode("utf-8")
            with socket_module.create_connection(("127.0.0.1", port),
                                                 timeout=10) as intruder:
                intruder.sendall(wire.pack_frame(wire.HELLO, 2, body=hello))
                assert intruder.recv(1) == b"", "mismatched hello not rejected"
            worker = threading.Thread(
                target=worker_main, args=(f"127.0.0.1:{port}",),
                kwargs={"slots": 2, "token": "tok", "index": 0,
                        "quiet": True, "dtype": "float32"}, daemon=True)
            worker.start()
            launched.join(timeout=60)
            assert not launched.is_alive(), "rendezvous crashed or hung"
            outcomes = transport.collect(timeout=60)
            assert [o.value for o in outcomes] == [1.0, 0.0]
        finally:
            transport.shutdown()
            if worker is not None:
                worker.join(timeout=30)
        err = capsys.readouterr().err
        assert "dtype policy mismatch" in err
        assert "float32" in err and "float64" in err


def _float32_send_program(comm):
    """A float32 array arrives as float32: never silently widened (or,
    worse, reinterpreted byte for byte)."""
    if comm.Get_rank() == 0:
        comm.send(np.arange(4, dtype=np.float32), dest=1, tag=1)
        return None
    received = comm.recv(source=0, tag=1)
    return (received.dtype.name, received.tolist())


class TestCommAccounting:
    """Satellite: sends keep the storage dtype; stats count real bytes."""

    def test_sent_array_keeps_its_dtype(self):
        from repro.mpi import run_mpi

        results = run_mpi(2, _float32_send_program, backend="process", timeout=60)
        assert results[1] == ("float32", [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dtype,expected", [
        (np.float64, 8), (np.float32, 4), (np.float16, 2)])
    def test_payload_nbytes_counts_storage_dtype(self, dtype, expected):
        from repro.mpi.stats import payload_nbytes

        genome = Genome(np.ones(10, dtype=dtype), 1e-3, "bce")
        # learning_rate/loss_name contribute a few bytes; the vector term
        # must scale with the storage dtype's true width.
        assert payload_nbytes(genome.parameters) == 10 * expected
        pair_payload = [(genome, genome)]
        assert payload_nbytes(pair_payload) >= 2 * 10 * expected
