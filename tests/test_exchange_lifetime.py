"""What leaves a slave by reference holds still for as long as anyone can
reach it.

A round's payload carries its cell's center itself
(:meth:`~repro.coevolution.cell.Cell.lend_center`), a slave's result the
retired center (:meth:`~repro.coevolution.cell.Cell.export_center`), and
frame bodies land in the process's recycled receive buffers
(:data:`repro.mpi.wire.RECEIVE_POOL`).  The lifetime rule — a slab that
left by reference is never written while a frame holding it is unsent, or
while a consumer outside the round can reach it — is checked here on a
fixed schedule: a send lane held blocked across block steps, the master's
checkpoint store kept in the same process (scripted and on the threaded
backend), and the resident bytes of a five-cell block.  No sleeps: every
wait is on an event the test sets.
"""

import gc
import hashlib
import queue
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.api import Experiment
from repro.coevolution import cell as cell_module
from repro.coevolution.cell import Cell
from repro.coevolution.checkpoint import CellCheckpointStore
from repro.coevolution.sequential import SequentialTrainer
from repro.mpi import wire
from repro.mpi.endpoint import Endpoint, Group, Link
from repro.nn import arena_of
from repro.parallel.grid import Grid
from repro.parallel.messages import ExchangePayload
from repro.parallel.slave import SlaveProcess
from tests.conftest import make_quick_config
from tests.test_parallel_slave_unit import ScriptedComm, make_task

CTX = (0, 0, 1)


class Replay:
    """A socket stand-in that :func:`wire.read_frame` reads gather-write
    parts back from, part by part — no joined copy of the frame."""

    def __init__(self, parts):
        self._parts = [memoryview(part).cast("B") for part in parts]

    def recv_into(self, view) -> int:
        while self._parts and not len(self._parts[0]):
            self._parts.pop(0)
        if not self._parts:
            return 0
        part = self._parts[0]
        count = min(len(view), len(part))
        view[:count] = part[:count]
        self._parts[0] = part[count:]
        return count


def _vectors(payload):
    return payload.generator_genome.parameters, payload.discriminator_genome.parameters


class HeldLaneComm(ScriptedComm):
    """:class:`ScriptedComm` whose payloads also leave through a real send
    lane (an :class:`Endpoint` link) held blocked until :attr:`release`:
    every frame stays unsent while the block steps on."""

    def __init__(self, task):
        super().__init__(task)
        self.release = threading.Event()
        self.written: list[bytes] = []
        #: (cell, iteration) -> the center's bytes when it was handed over.
        self.exported: dict[tuple[int, int], list[bytes]] = {}
        #: Weak references to the payload vectors in the lane.
        self.in_lane: list[weakref.ref] = []

        def held_put(group):
            assert self.release.wait(60), "the test never released the lane"
            self.written.append(b"".join(bytes(part)
                                         for part in wire.pack_group_parts(group)))

        self.endpoint = Endpoint(9, queue.SimpleQueue(),
                                 lambda routes: [Link(held_put, "held")])

    def exchange_round(self, grid, payloads, mode, abort_event=None, **kwargs):
        for index, payload in payloads.items():
            self.exported[(index, payload.iteration)] = [
                vector.tobytes() for vector in _vectors(payload)]
            self.in_lane += [weakref.ref(vector) for vector in _vectors(payload)]
            self.endpoint.send_group(Group(CTX, self.rank, payload, ((2, index),)))
        return super().exchange_round(grid, payloads, mode, abort_event, **kwargs)


class TestHeldSendLane:
    def test_an_unsent_frame_keeps_the_center_it_was_sent_with(self, small_dataset,
                                                              monkeypatch):
        """Three block steps run while every frame of the block waits in a
        blocked lane: the cell never trains in a slab one of them lies in,
        and what the lane finally writes is the center as it was lent."""
        config = make_quick_config(2, 2, iterations=3)
        comm = HeldLaneComm(make_task(config))
        load = cell_module.Cell._load_trainee
        trained_in = []

        def spy(cell, g_idx, d_idx):
            pair = load(cell, g_idx, d_idx)
            held = [ref() for ref in comm.in_lane if ref() is not None]
            for network in (pair.generator, pair.discriminator):
                work = arena_of(network).data
                trained_in.append(work)
                assert not any(np.may_share_memory(work, vector) for vector in held)
            return pair

        monkeypatch.setattr(cell_module.Cell, "_load_trainee", spy)
        try:
            SlaveProcess(comm, small_dataset).run()
            # Still unsent, so still reachable: held by the lane alone.
            assert len(comm.in_lane) == 6
            assert all(ref() is not None for ref in comm.in_lane)
            for ref in comm.in_lane:
                assert not ref().flags.writeable
        finally:
            comm.release.set()
            comm.endpoint.close()
        assert len(trained_in) == 6
        assert len(comm.written) == 3
        for blob in comm.written:
            group = wire.read_frame(Replay([blob])).group()
            payload = group.payload
            assert group.routes == ((2, 0),)
            assert [v.tobytes() for v in _vectors(payload)] == \
                comm.exported[(0, payload.iteration)]
        # Written and dropped: nothing reaches the lent vectors any more.
        gc.collect()
        assert all(ref() is None for ref in comm.in_lane)


class KeeperComm(ScriptedComm):
    """The master's checkpoint store co-hosted with the slave: it keeps the
    very snapshot objects it is sent, and records their bytes on arrival."""

    def __init__(self, task):
        super().__init__(task)
        self.store = CellCheckpointStore()
        self.kept: list[tuple[object, list[bytes]]] = []

    def send(self, dest, message):
        super().send(dest, message)
        snapshot = getattr(message, "snapshot", message)
        if dest == 0 and hasattr(snapshot, "generator_genome"):
            self.store.update(snapshot)
            self.kept.append((snapshot, _snapshot_bytes(snapshot)))


def _snapshot_bytes(snapshot) -> list[bytes]:
    return [snapshot.generator_genome.parameters.tobytes(),
            snapshot.discriminator_genome.parameters.tobytes(),
            snapshot.mixture_weights.tobytes()]


class TestCoHostedKeeper:
    def test_checkpoints_and_results_the_master_keeps_never_change(self, small_dataset):
        """Under ``snapshot_every=1`` the store keeps one checkpoint per
        iteration by reference while the block trains on; none of them,
        nor the result, changes afterwards."""
        config = make_quick_config(2, 2, iterations=4)
        comm = KeeperComm(make_task(config, snapshot_every=1))
        SlaveProcess(comm, small_dataset).run()
        assert [s.iteration for s, _ in comm.kept] == [1, 2, 3, 4]
        for snapshot, arrived in comm.kept:
            assert _snapshot_bytes(snapshot) == arrived

    def test_threaded_recover_run_keeps_its_checkpoints(self, small_dataset,
                                                         monkeypatch):
        """The threaded backend hands every checkpoint and payload across
        threads by reference: the master's store keeps what it was sent
        while the ranks train on, and the run ends on the sequential
        digest."""
        config = make_quick_config(2, 2, iterations=4)
        kept = []
        update = CellCheckpointStore.update

        def keeping(store, snapshot):
            kept.append((snapshot, _snapshot_bytes(snapshot)))
            return update(store, snapshot)

        monkeypatch.setattr(CellCheckpointStore, "update", keeping)
        threaded = (Experiment(config).dataset(small_dataset).backend("threaded")
                    .fault_policy("recover", snapshot_every=1).run())
        monkeypatch.undo()
        assert len(kept) == 4 * 3
        for snapshot, arrived in kept:
            assert _snapshot_bytes(snapshot) == arrived
        sequential = SequentialTrainer(config, small_dataset).run()
        assert _digest(threaded) == _digest(sequential)


def _digest(result) -> str:
    digest = hashlib.sha256()
    for g, d in result.center_genomes:
        digest.update(g.parameters.tobytes())
        digest.update(d.parameters.tobytes())
    for weights in result.mixture_weights:
        digest.update(weights.tobytes())
    return digest.hexdigest()


class RemoteNeighboursComm(ScriptedComm):
    """Plays the other worker of a 3x3 grid for a block: a neighbour in the
    block takes the payload itself, as the real exchange does, and each
    neighbour hosted elsewhere arrives as a real wire frame received into
    this process's pool — decoded once for all its consumers.  ``on_round``
    runs after every exchange."""

    def __init__(self, task, remote, on_round):
        super().__init__(task)
        self.remote = remote
        self.on_round = on_round

    def exchange_round(self, grid, payloads, mode, abort_event=None, **kwargs):
        iteration = next(iter(payloads.values())).iteration
        arrived = {}
        for cell, (g, d) in self.remote.items():
            group = Group(CTX, 1, ExchangePayload(cell, iteration, g, d), ((2, cell),))
            arrived[cell] = wire.read_frame(Replay(wire.pack_group_parts(group))).group().payload
        received = {index: {n: payloads.get(n) or arrived[n]
                            for n in grid.neighbor_cells(index)}
                    for index in payloads}
        self.on_round(iteration)
        return received


class TestSlaveBlockBytes:
    def test_five_cell_block_holds_two_pairs_per_cell_a_trainee_and_a_round(
            self, small_dataset, monkeypatch):
        """Peak traced bytes of each block step of cells 4-8 of a 3x3 grid
        (the block of the second worker of ``5,5``): two slabs per cell, one
        trainee (gradient slab, Adam ``m``/``v``, optimizer scratch) and one
        round of received frames (four neighbours hosted elsewhere), plus
        two pairs of slack for batches, reports and kernel workspaces.  The
        figure is flat from iteration 2 through the shipping of the
        results, and the receive pool stops growing after the second round.
        A copied payload, a copied result or a fresh receive buffer per
        frame breaks it."""
        iterations = 8
        config = make_quick_config(3, 3, iterations=iterations, batch_size=10, batches=1)
        grid = Grid(3, 3)
        block = (4, 5, 6, 7, 8)
        remote_cells = sorted({n for c in block for n in grid.neighbor_cells(c)}
                              - set(block))
        assert remote_cells == [0, 1, 2, 3]
        remote = {c: Cell(config, c, None).center_genomes() for c in remote_cells}
        pair = sum(genome.parameters.nbytes for genome in remote[0])
        pool = []
        comm = RemoteNeighboursComm(
            make_task(config, cells=block, grid_payload=grid.to_payload()), remote,
            on_round=lambda iteration: pool.append(wire.RECEIVE_POOL.nbytes))
        peaks = {}
        slave = SlaveProcess(comm, small_dataset)
        run_round, ship = slave._round, slave._ship

        def measured_round(cells, iteration):
            tracemalloc.reset_peak()
            run_round(cells, iteration)
            peaks[iteration] = tracemalloc.get_traced_memory()[1] - baseline

        def measured_ship():
            tracemalloc.reset_peak()
            ship()
            peaks["ship"] = tracemalloc.get_traced_memory()[1] - baseline

        monkeypatch.setattr(slave, "_round", measured_round)
        monkeypatch.setattr(slave, "_ship", measured_ship)
        wire.RECEIVE_POOL.forget()
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            results = slave.run()
        finally:
            tracemalloc.stop()
        assert [r.snapshot.cell_index for r in results] == list(block)
        budget = (2 * len(block) + 3.25 + len(remote_cells) + 2) * pair
        steady = [peaks[i] for i in range(2, iterations)] + [peaks["ship"]]
        for when, peak in zip([*range(2, iterations), "ship"], steady):
            assert peak <= budget, (when, peak / pair, budget / pair)
        assert (max(steady) - min(steady)) / pair < 0.5, [p / pair for p in steady]
        assert len(pool) == iterations and pool[0] > 0
        assert pool[1:] == [pool[1]] * (iterations - 1), pool


def test_receive_pool_hands_a_buffer_back_when_its_last_array_dies():
    """A frame's buffer is busy while any array decoded from it lives and
    takes the next frame once the last one is gone."""
    wire.RECEIVE_POOL.forget()
    frame = wire.pack_group_parts(Group(CTX, 1, np.arange(4096.0), ((1, 1),)))
    first = wire.read_frame(Replay(frame)).group().payload
    second = wire.read_frame(Replay(frame)).group().payload
    assert not np.shares_memory(first, second)
    size = wire.RECEIVE_POOL.nbytes
    del first
    third = wire.read_frame(Replay(frame)).group().payload
    assert wire.RECEIVE_POOL.nbytes == size
    np.testing.assert_array_equal(third, np.arange(4096.0))
    assert third.flags.aligned and third.flags.writeable
    view = third[10:20]
    del third
    fourth = wire.read_frame(Replay(frame)).group().payload
    assert not np.shares_memory(fourth, view)      # a view keeps it busy too
    assert wire.RECEIVE_POOL.nbytes > size


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_lent_center_is_the_center_itself(small_dataset, dtype):
    """No copy: the lent vectors lie in the cell's own slabs, read-only."""
    config = make_quick_config().with_dtype(dtype)
    cell = Cell(config, 0, small_dataset)
    g, d = cell.lend_center()
    assert np.shares_memory(g.parameters, cell._g_slabs[0])
    assert np.shares_memory(d.parameters, cell._d_slabs[0])
    assert not g.parameters.flags.writeable and not d.parameters.flags.writeable
    assert cell._lent(cell._g_slabs[0]) and not cell._lent(cell._g_slabs[1])
    del g, d
    assert not cell._lent(cell._g_slabs[0])


def test_mixed16_lends_a_quantized_copy(small_dataset):
    cell = Cell(make_quick_config().with_dtype("mixed16"), 0, small_dataset)
    g, _d = cell.lend_center()
    assert g.parameters.dtype == np.float16
    assert not np.shares_memory(g.parameters, cell._g_slabs[0])
