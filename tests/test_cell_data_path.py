"""The cell's genome data path: zero-copy slots, copy-on-select, pointer-move
promotion — checked against the copying oracle (``conftest.copying_cell``),
against the aliasing contract, and against a memory budget."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coevolution import cell as cell_module
from repro.coevolution.cell import Cell
from repro.coevolution.checkpoint import CellSnapshot
from repro.nn import arena_of
from tests.conftest import copying_cell, make_quick_config
from tests.test_coevolution_cell import cell_state


def neighbor_genomes(config, dataset, count=7):
    """Center snapshots of ``count`` other cells — what an exchange delivers."""
    return [Cell(config, index, dataset).center_genomes()
            for index in range(1, count + 1)]


def script_selection(monkeypatch, picks):
    """Make every tournament return the next scripted slot (no RNG drawn,
    so oracle and cell stay comparable)."""
    queue = list(picks)
    monkeypatch.setattr(cell_module, "tournament_select",
                        lambda fitness, rng, size: queue.pop(0))


def assert_same(cell, oracle, report, oracle_report):
    assert repr(report) == repr(oracle_report)
    assert cell_state(cell) == cell_state(oracle)


class TestAgainstCopyingCell:
    """Byte equality with the copying oracle: center genomes, every slot,
    learning rates, mixture, reports and RNG state after each step."""

    @pytest.fixture()
    def pair(self, small_dataset):
        config = make_quick_config()
        return Cell(config, 0, small_dataset), copying_cell(config, 0, small_dataset)

    @pytest.fixture()
    def neighbors(self, small_dataset):
        return neighbor_genomes(make_quick_config(), small_dataset)

    @pytest.mark.parametrize("count", [4, 2, 0, 7])
    def test_free_running(self, pair, neighbors, count):
        cell, oracle = pair
        for _ in range(4):
            assert_same(cell, oracle,
                        cell.step(neighbors[:count]), oracle.step(neighbors[:count]))

    #: (generator slot, discriminator slot) per step: the center, fresh
    #: neighbor slots, then slots 3 and 4 — stale when fewer than four
    #: neighbors answer — trained, re-trained after the work slab moved on,
    #: and left behind while another slot trains.
    SCRIPT = [(0, 0), (1, 2), (4, 3), (3, 4), (4, 4), (0, 1), (3, 3)]

    @pytest.mark.parametrize("count", [4, 7])
    def test_release_between_steps(self, pair, neighbors, count):
        """What every trainer does between steps: release the slots onto
        the center, then step against a full neighborhood — nothing the
        cell computes changes, and the released slots keep no neighbor
        vector alive."""
        cell, oracle = pair
        for _ in range(4):
            cell.release_neighbors()
            centers = [arena_of(cell.center.generator).data,
                       arena_of(cell.center.discriminator).data]
            for slots, center in zip((cell._sub_generators, cell._sub_discriminators),
                                     centers):
                assert all(np.shares_memory(arena_of(slot).data, center) for slot in slots)
            assert_same(cell, oracle,
                        cell.step(neighbors[:count]), oracle.step(neighbors[:count]))

    @pytest.mark.parametrize("count", [4, 2, 0, 7])
    def test_scripted_selection(self, pair, neighbors, count, monkeypatch):
        cell, oracle = pair
        for picks in self.SCRIPT:
            script_selection(monkeypatch, picks * 2)   # cell, then oracle
            report = cell.step(neighbors[:count])
            assert (report.selected_generator, report.selected_discriminator) == picks
            assert_same(cell, oracle, report, oracle.step(neighbors[:count]))

    @pytest.mark.parametrize("count", [4, 2])
    def test_final_artifacts(self, pair, neighbors, count, monkeypatch):
        """What a finished run reports: slot 0 is the center *before* the
        last promotion, the other slots what the last step read."""
        cell, oracle = pair
        for picks in [(1, 0), (2, 4), (4, 1)]:
            script_selection(monkeypatch, picks * 2)
            cell.step(neighbors[:count])
            oracle.step(neighbors[:count])
        for ours, theirs in zip(cell.subpopulation_generators(),
                                oracle.subpopulation_generators()):
            np.testing.assert_array_equal(arena_of(ours).data, arena_of(theirs).data)
        np.testing.assert_array_equal(
            cell.sample_from_mixture(8, np.random.default_rng(5)),
            oracle.sample_from_mixture(8, np.random.default_rng(5)))
        for ours, theirs in zip(cell.center_genomes(), oracle.center_genomes()):
            np.testing.assert_array_equal(ours.parameters, theirs.parameters)

    def test_restore_between_steps(self, pair, neighbors):
        cell, oracle = pair
        for each in pair:
            each.step(neighbors[:2])
            each.restore(CellSnapshot(0, 3, *neighbors[6], np.full(5, 0.2)))
        for _ in range(2):
            assert_same(cell, oracle, cell.step(neighbors[:2]), oracle.step(neighbors[:2]))

    def test_center_alias_as_missing_neighbor(self, pair, neighbors):
        """The slave's stand-in for a neighbor that did not answer is the
        cell's own center, borrowed (``alias=True``)."""
        cell, oracle = pair
        for _ in range(3):
            reports = []
            for each in pair:
                stand_in = each.center_genomes(alias=True)
                reports.append(each.step(neighbors[:2] + [stand_in, stand_in]))
            assert_same(cell, oracle, *reports)

    @pytest.mark.parametrize("count", [4, 1])
    def test_mixed16_widens_instead_of_aliasing(self, small_dataset, count):
        config = make_quick_config()
        config = dataclasses.replace(
            config, network=dataclasses.replace(config.network, dtype="mixed16"))
        neighbors = neighbor_genomes(config, small_dataset, count)
        assert neighbors[0][0].parameters.dtype == np.float16
        cell, oracle = Cell(config, 0, small_dataset), copying_cell(config, 0, small_dataset)
        for _ in range(3):
            assert_same(cell, oracle, cell.step(neighbors), oracle.step(neighbors))

    def test_mixed16_slots_reuse_their_widened_buffers(self, small_dataset):
        """The slots widen into the same buffers step after step, one per
        distinct neighbour vector and kind — except that a buffer the
        center was promoted onto stays the center's, and the slot that
        showed it widens into a new one."""
        config = make_quick_config()
        config = dataclasses.replace(
            config, network=dataclasses.replace(config.network, dtype="mixed16"))
        rounds = [neighbor_genomes(config, small_dataset, 8)[start:start + 4]
                  for start in (0, 4)]
        cell, oracle = Cell(config, 0, small_dataset), copying_cell(config, 0, small_dataset)
        for step in range(4):
            neighbors = rounds[step % 2]
            cell.release_neighbors()        # as every trainer does
            assert_same(cell, oracle, cell.step(neighbors), oracle.step(neighbors))
            if step == 0:
                buffers = list(cell._widened)
        assert len(buffers) == 8
        assert all(now is then for now, then in zip(cell._widened, buffers, strict=True))

        for each in (cell, oracle):
            each._promote(2, 3)     # the center now *is* what slots 2 / 3 show
        adopted = cell.center_genomes()
        cell._update_subpopulations(rounds[0])
        g, d = cell.center_genomes()
        assert g.parameters.tobytes() == adopted[0].parameters.tobytes()
        assert d.parameters.tobytes() == adopted[1].parameters.tobytes()
        assert len(cell._widened) == 10
        assert all(now is then for now, then in zip(cell._widened[:8], buffers))
        for slots, center in ((cell._sub_generators, cell.center.generator),
                              (cell._sub_discriminators, cell.center.discriminator)):
            assert not any(np.may_share_memory(arena_of(slot).data, arena_of(center).data)
                           for slot in slots[1:])
        oracle._update_subpopulations(rounds[0])
        assert cell_state(cell) == cell_state(oracle)


class TestExportedCentersHoldStill:
    def test_adopted_center_survives_the_release_loop(self, small_dataset, monkeypatch):
        """Cell 0 hands its center out by reference (the sequential
        gather), cell 1 adopts it, and cell 0 trains slot 0 and adopts a
        neighbor in turn.  Re-homing cell 0's adopted center must not land
        in the slab cell 1 now holds: the release loop leaves cell 1's
        center bytes as they were gathered, then copies them home."""
        config = make_quick_config()
        others = neighbor_genomes(config, small_dataset, 4)
        first, second = Cell(config, 0, small_dataset), Cell(config, 1, small_dataset)
        gathered = first.center_genomes(alias=True)
        sent = [genome.parameters.copy() for genome in gathered]

        script_selection(monkeypatch, [2, 2])
        second.step([gathered] + others[:3])
        second._promote(1, 1)                   # cell 1 adopts cell 0's center
        script_selection(monkeypatch, [0, 0])   # cell 0 trains slot 0 ...
        first.step(others)
        first._promote(1, 1)                    # ... and adopts a neighbor
        assert all(np.shares_memory(arena_of(network).data, genome.parameters)
                   for network, genome in zip((second.center.generator,
                                               second.center.discriminator), gathered))

        for cell in (first, second):
            cell.release_neighbors()
        for network, sent_bytes in zip((second.center.generator,
                                        second.center.discriminator), sent):
            np.testing.assert_array_equal(arena_of(network).data, sent_bytes)
        for cell in (first, second):
            for network, slabs in ((cell.center.generator, cell._g_slabs),
                                   (cell.center.discriminator, cell._d_slabs)):
                assert any(np.shares_memory(arena_of(network).data, slab)
                           for slab in slabs)   # every center is home again
        for network, genome in zip((first.center.generator,
                                    first.center.discriminator), others[0]):
            np.testing.assert_array_equal(arena_of(network).data, genome.parameters)


class TestHandedVectorsAreNeverWritten:
    @given(count=st.integers(0, 6), steps=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16), alias_center=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_step_leaves_every_handed_byte_alone(self, small_dataset, count, steps,
                                                 seed, alias_center):
        """Sequential snapshots and by-reference thread/co-hosted socket
        payloads are shared between cells: two cells stepping on the same
        genome objects must leave them bit for bit as they were."""
        config = make_quick_config(seed=seed, batch_size=10, batches=1)
        shared = neighbor_genomes(config, small_dataset, count)
        before = [(g.parameters.tobytes(), d.parameters.tobytes()) for g, d in shared]
        cells = [Cell(config, index, small_dataset) for index in (0, 7)]
        for _ in range(steps):
            for cell in cells:
                extra = [cell.center_genomes(alias=True)] if alias_center else []
                cell.step(shared + extra)
        after = [(g.parameters.tobytes(), d.parameters.tobytes()) for g, d in shared]
        assert after == before
        assert all(g.parameters.flags.writeable and d.parameters.flags.writeable
                   for g, d in shared)  # the caller's arrays, not ours to freeze

    def test_writing_through_a_slot_is_refused(self, small_dataset):
        config = make_quick_config()
        cell = Cell(config, 0, small_dataset)
        shared = neighbor_genomes(config, small_dataset, 4)
        cell.step(shared)
        untouched = next(i for i in range(1, 5)
                         if i != cell.reports[-1].selected_generator)
        slot = cell._sub_generators[untouched]
        assert np.shares_memory(arena_of(slot).data, shared[untouched - 1][0].parameters)
        with pytest.raises(ValueError, match="read-only"):
            slot.parameters()[0].data[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            shared[untouched % 4][0].write_into(slot)   # another neighbor's genome


class TestMemoryBudget:
    def test_owned_bytes_per_cell(self, small_dataset):
        """A cell owns two slabs per kind — two genome pairs — and does not
        grow with the iterations.  The gradient slab, the Adam moments and
        the optimizer scratch are the thread's trainee, allocated by the
        warm-up step.  (A cell that owned its trainee held ~5.3, the
        copying cell ~12.)"""
        config = make_quick_config()
        neighbors = neighbor_genomes(config, small_dataset, 4)
        pair_bytes = sum(genome.parameters.nbytes for genome in neighbors[0])
        # Warm the kernel workspaces and the thread's trainee.
        Cell(config, 5, small_dataset).step(neighbors)
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            cell = Cell(config, 0, small_dataset)
            owned = {}
            for iteration in range(1, 11):
                cell.step(neighbors)
                gc.collect()
                owned[iteration] = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert owned[2] >= 1.5 * pair_bytes    # the measurement sees the slabs
        assert owned[2] <= 2.5 * pair_bytes
        assert owned[10] <= owned[2] + 64 * 1024   # reports, not genomes

    def test_read_only_pairs_build_no_optimizer(self, small_dataset):
        cell = Cell(make_quick_config(), 0, small_dataset)
        cell.step([])
        for network in (cell.center.generator, cell.center.discriminator):
            assert arena_of(network).grad is None
        assert cell.center._g_optimizer is None and cell.center._d_optimizer is None

    def test_cell_owns_no_trainee(self, small_dataset):
        """After a step no attribute of the cell reaches a gradient slab or
        optimizer state: the pair that trained is the thread's."""
        from repro.gan.pair import GANPair

        config = make_quick_config()
        cell = Cell(config, 0, small_dataset)
        cell.step(neighbor_genomes(config, small_dataset, 4))
        pairs = [value for value in vars(cell).values() if isinstance(value, GANPair)]
        assert pairs == [cell.center]
        for network in cell._sub_generators + cell._sub_discriminators:
            assert arena_of(network).grad is None
