"""One trainee per block: the pair a cell trains belongs to its execution
thread, and every trainer releases last round's neighbor vectors before it
gathers.

The trainee's optimizer state is reset at every step, so sharing it must
carry nothing from one cell (or one trainer, loss or thread) to the next:
trajectories are pinned against digests recorded before the trainee moved
out of the cell (commit c167eb6), and the resident bytes of a grid are held
to two slabs per cell, one trainee and one generation of snapshot copies.
"""

import dataclasses
import gc
import hashlib
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.api import Experiment
from repro.coevolution import cell as cell_module
from repro.coevolution.sequential import SequentialTrainer
from repro.nn import arena_of
from tests.conftest import make_quick_config
from tests.test_cell_data_path import neighbor_genomes


def _config(dtype="float64", loss="bce", seed=42, grid=2):
    config = make_quick_config(grid, grid, iterations=4, batch_size=10, seed=seed)
    return dataclasses.replace(
        config,
        network=dataclasses.replace(config.network, dtype=dtype),
        training=dataclasses.replace(config.training, loss_function=loss))


def _digest(center_genomes, mixture_weights) -> str:
    digest = hashlib.sha256()
    for g, d in center_genomes:
        digest.update(g.parameters.tobytes())
        digest.update(d.parameters.tobytes())
    for weights in mixture_weights:
        digest.update(weights.tobytes())
    return digest.hexdigest()


def _trainer_digest(trainer) -> str:
    return _digest([cell.center_genomes() for cell in trainer.cells],
                   [cell.mixture.weights for cell in trainer.cells])


def _on_fresh_thread(work):
    """Run ``work()`` on a thread of its own (so with a trainee of its own)."""
    out = {}

    def target():
        try:
            out["value"] = work()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestGoldenTrajectories:
    #: 2x2, 4 iterations, batch 10 x 2, seed 42, 400 synthetic digits.
    GOLDEN = {
        "mustangs": "59004b84793740910051b5611bf97abaef25b4ce134fc51ed7381946d506822b",
        "float32": "6afa8628560af7751bedb3bd32fb3af07b173b08088411577441f37f2f62c283",
        "mixed16": "491723051474bafffa5624b5bf009d7a55824cfd307ffb2e8709b4a5afdb012c",
        "float64": "ac00b006fd894494fc5824ffd0508012103af5aa176765e83d65a5c5d69db924",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_policy_keeps_its_golden_hash(self, small_dataset, name):
        config = (_config(loss="mustangs") if name == "mustangs"
                  else _config(dtype=name))
        result = Experiment(config).dataset(small_dataset).run()
        assert _digest(result.center_genomes, result.mixture_weights) == self.GOLDEN[name]

    def test_mustangs_cells_share_one_trainee_across_losses(self, small_dataset,
                                                            monkeypatch):
        """The mustangs grid above trains several losses on one pair."""
        trainer = SequentialTrainer(_config(loss="mustangs"), small_dataset)
        assert len({cell.loss_name for cell in trainer.cells}) >= 2
        seen = []
        load = cell_module.Cell._load_trainee

        def spy(cell, g_idx, d_idx):
            pair = load(cell, g_idx, d_idx)
            assert pair.loss is cell.loss
            seen.append(pair)
            return pair

        monkeypatch.setattr(cell_module.Cell, "_load_trainee", spy)
        trainer.step_iteration()
        assert len(seen) == 4 and all(pair is seen[0] for pair in seen)


class TestIsolation:
    def test_interleaved_trainers_reproduce_their_solo_digests(self, small_dataset):
        configs = [_config(seed=42), _config(seed=7, loss="mustangs")]

        def solo(config):
            trainer = SequentialTrainer(config, small_dataset)
            for _ in range(4):
                trainer.step_iteration()
            return _trainer_digest(trainer)

        alone = [_on_fresh_thread(lambda config=config: solo(config)) for config in configs]
        trainers = [SequentialTrainer(config, small_dataset) for config in configs]
        for _ in range(4):
            for trainer in trainers:
                trainer.step_iteration()
        assert [_trainer_digest(trainer) for trainer in trainers] == alone
        assert alone[0] != alone[1]

    def test_threaded_backend_one_trainee_per_execution_thread(self, small_dataset,
                                                               monkeypatch):
        config = _config()
        trainees = {}
        take = cell_module.thread_trainee

        def spy(*args):
            pair = take(*args)
            trainees.setdefault(threading.get_ident(), set()).add(id(pair))
            return pair

        monkeypatch.setattr(cell_module, "thread_trainee", spy)
        threaded = Experiment(config).dataset(small_dataset).backend("threaded").run()
        monkeypatch.undo()
        sequential = SequentialTrainer(config, small_dataset).run()
        assert (_digest(threaded.center_genomes, threaded.mixture_weights)
                == _digest(sequential.center_genomes, sequential.mixture_weights))
        assert len(trainees) == 4                       # one thread per rank
        assert all(len(ids) == 1 for ids in trainees.values())
        assert len(set().union(*trainees.values())) == 4

    def test_trainee_is_keyed_by_shape_and_optimizer(self):
        from repro.gan.pair import thread_trainee

        config = _config()
        wide = dataclasses.replace(
            config, network=dataclasses.replace(config.network, dtype="float32"))
        sgd = dataclasses.replace(
            config, mutation=dataclasses.replace(config.mutation, optimizer="sgd"))

        def pairs():
            first = thread_trainee(config)
            return [first, thread_trainee(config), thread_trainee(wide), thread_trainee(sgd)]

        first, same, wide_pair, sgd_pair = _on_fresh_thread(pairs)
        assert first is same
        assert len({id(first), id(wide_pair), id(sgd_pair)}) == 3
        assert arena_of(wide_pair.generator).data.dtype == np.float32
        assert _on_fresh_thread(pairs)[0] is not first      # per thread

    def test_a_dropped_cell_frees_its_slabs(self, small_dataset):
        """The thread's trainee outlives the cell it last trained, but keeps
        none of that cell's memory alive."""
        config = make_quick_config()
        neighbors = neighbor_genomes(config, small_dataset, 4)
        cell = cell_module.Cell(config, 0, small_dataset)
        cell.step(neighbors)
        slabs = [weakref.ref(slab) for slab in cell._g_slabs + cell._d_slabs]
        del cell
        gc.collect()
        assert sum(ref() is not None for ref in slabs) == 0


class TestGridResidentBytes:
    def test_one_trainee_and_no_center_copies(self, small_dataset):
        """Peak traced bytes over iterations 3 and 12 of a 3x3 grid: two
        slabs per cell and one trainee (gradient slab, Adam ``m``/``v``,
        optimizer scratch), plus two pairs of slack for batches, reports
        and kernel workspaces.  The gather hands out the centers
        themselves and an adopted center is re-homed into its cell's own
        slab, so no copy of a center is alive at any time.  A trainee per
        cell, a copying gather or adopted copies kept alive break it."""
        config = make_quick_config(3, 3, iterations=12)
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            trainer = SequentialTrainer(config, small_dataset)
            cells = len(trainer.cells)
            pair = sum(genome.parameters.nbytes
                       for genome in trainer.cells[0].center_genomes())
            peaks = {}
            for iteration in range(1, 13):
                tracemalloc.reset_peak()
                trainer.step_iteration()
                peaks[iteration] = tracemalloc.get_traced_memory()[1] - baseline
            tracemalloc.reset_peak()
            trainer.result(0.0)
            peaks["result"] = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        budget = (2 * cells + 3.25 + 2) * pair
        for when in (3, 12, "result"):
            assert peaks[when] <= budget, (when, peaks[when] / pair, budget / pair)


def _buffers(network) -> int:
    """Identity of the buffer a network's parameters lie in."""
    data = arena_of(network).data
    return id(data if data.base is None else data.base)


class TestTwoSlabsPerKind:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_cells_reach_exactly_two_buffers_per_kind(self, small_dataset, dtype):
        """Every buffer a 3x3 grid's cells reach — centers, slots (on the
        gathered neighbor centers after a step) and slabs — is one of the
        cells' own two slabs per kind."""
        trainer = SequentialTrainer(_config(dtype, grid=3), small_dataset)
        for iteration in range(1, 6):
            trainer.step_iteration()
            for kind in ("generator", "discriminator"):
                reached = set()
                for cell in trainer.cells:
                    slots = (cell._sub_generators if kind == "generator"
                             else cell._sub_discriminators)
                    slabs = cell._g_slabs if kind == "generator" else cell._d_slabs
                    reached.add(_buffers(getattr(cell.center, kind)))
                    reached.update(_buffers(slot) for slot in slots)
                    reached.update(id(slab) for slab in slabs)
                assert len(reached) == 2 * len(trainer.cells), (iteration, kind)

    def test_result_hands_out_centers_that_training_on_leaves_alone(self, small_dataset):
        """``result()`` copies no center: its vectors are the cells' (or
        the neighbors' they adopted), read-only, and a trainer that keeps
        training after it leaves them as they were and ends where an
        uninterrupted run ends."""
        config = _config()
        trainer = SequentialTrainer(config, small_dataset)
        for _ in range(2):
            trainer.step_iteration()
        result = trainer.result(0.0)
        kept = _digest(result.center_genomes, result.mixture_weights)
        slabs = [slab for cell in trainer.cells for slab in cell._g_slabs + cell._d_slabs]
        for g, d in result.center_genomes:
            for genome in (g, d):
                assert not genome.parameters.flags.writeable
                assert any(np.shares_memory(genome.parameters, slab) for slab in slabs)
        for _ in range(2):
            trainer.step_iteration()
        assert _digest(result.center_genomes, result.mixture_weights) == kept
        straight = SequentialTrainer(config, small_dataset)
        for _ in range(4):
            straight.step_iteration()
        assert _trainer_digest(trainer) == _trainer_digest(straight)
