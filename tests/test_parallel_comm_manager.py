"""Unit tests for MpiCommManager over small real worlds (threaded)."""

import threading

import numpy as np
import pytest

from repro.coevolution.checkpoint import CellSnapshot
from repro.coevolution.genome import Genome
from repro.mpi import run_mpi
from repro.parallel.comm_manager import EXCHANGE_MODES, ExchangeAborted, MpiCommManager
from repro.parallel.grid import Grid
from repro.parallel.messages import (
    Abort,
    ExchangePayload,
    NodeInfo,
    RunTask,
    SlaveResult,
    StatusReply,
    StatusRequest,
    Tags,
)


def make_payload(cell, iteration=0, size=8):
    genome = Genome(np.full(size, float(cell)), 1e-3, "bce")
    return ExchangePayload(cell, iteration, genome, genome.copy())


class TestSetupPhase:
    def test_node_info_collection(self):
        def program(world):
            comm = MpiCommManager(world)
            if comm.is_master:
                infos = sorted((comm.receive() for _ in range(comm.size - 1)),
                               key=lambda i: i.rank)
                return [(i.rank, i.node_name) for i in infos]
            comm.send(0, NodeInfo(comm.rank, f"host{comm.rank}"))
            return None

        results = run_mpi(4, program, backend="threaded", timeout=30)
        assert results[0] == [(1, "host1"), (2, "host2"), (3, "host3")]

    def test_run_task_roundtrip(self):
        task = RunTask("{}", (0,), Grid(1, 2).to_payload(), "node00")

        def program(world):
            comm = MpiCommManager(world)
            if comm.is_master:
                comm.send(1, task)
                comm.send(2, task)
                return "sent"
            return comm.receive().cells

        results = run_mpi(3, program, backend="threaded", timeout=30)
        assert results[1] == (0,) and results[2] == (0,)

    def test_build_contexts_local_excludes_master(self):
        """The master gets no LOCAL; every slave attaches to the same one
        on its own, so a rank that attaches after a peer already sent on
        it (a reborn rank, as far as LOCAL can tell) receives the message."""
        def program(world):
            comm = MpiCommManager(world)
            if comm.rank == 2:
                # Attach only once rank 1 has sent on LOCAL: its WORLD
                # "sent" follows the LOCAL message from the same sender.
                world.recv(source=1, tag=9, timeout=30)
            comm.build_contexts(is_active_slave=not comm.is_master)
            if comm.is_master:
                return comm.local is None
            local = comm.local
            if comm.rank == 1:
                local.send("before you attached", dest=1, tag=3)
                world.send("sent", dest=2, tag=9)
                return (local.context, local.Get_size(), local.Get_rank(), None)
            return (local.context, local.Get_size(), local.Get_rank(),
                    local.recv(source=0, tag=3, timeout=30))

        results = run_mpi(3, program, backend="threaded", timeout=30)
        assert results[0] is True
        assert results[1] == ((0, 0, 1), 2, 0, None)
        assert results[2] == ((0, 0, 1), 2, 1, "before you attached")


class TestHeartbeatPlumbing:
    def test_status_request_reply_cycle(self):
        def program(world):
            comm = MpiCommManager(world)
            if comm.is_master:
                comm.send(1, StatusRequest())
                reply = comm.receive(timeout=5)
                return (reply.rank, reply.state)
            assert isinstance(comm.receive(timeout=5), StatusRequest)
            comm.send(0, StatusReply(comm.rank, "processing", 3))
            return "replied"

        results = run_mpi(2, program, backend="threaded", timeout=30)
        assert results[0] == (1, "processing")
        assert results[1] == "replied"

    def test_abort_flag(self):
        def program(world):
            comm = MpiCommManager(world)
            if comm.is_master:
                comm.send(1, Abort())
                return None
            return isinstance(comm.receive(timeout=5), Abort)

        results = run_mpi(2, program, backend="threaded", timeout=30)
        assert results[1] is True

    def test_poll_with_nothing_pending(self):
        """A zero-timeout receive is a poll: ``None`` on either side."""
        def program(world):
            return MpiCommManager(world).receive(timeout=0) is None

        assert all(run_mpi(2, program, backend="threaded", timeout=30))

    def test_each_direction_is_one_stream_and_a_slave_can_wake_itself(self):
        """Master -> slave orders and a slave's message to itself share the
        slave's inbox, in arrival order; the master's inbox is separate."""
        def program(world):
            comm = MpiCommManager(world)
            if comm.is_master:
                comm.send(1, StatusRequest())
                comm.send(1, Abort())
                return type(comm.receive(timeout=5)).__name__
            first, second = comm.receive(timeout=5), comm.receive(timeout=5)
            comm.send(comm.rank, StatusReply(comm.rank, "mine", 0))
            own = comm.receive(timeout=5)
            comm.send(0, StatusReply(comm.rank, "processing", 0))
            return [type(first).__name__, type(second).__name__, own.state]

        results = run_mpi(2, program, backend="threaded", timeout=30)
        assert results[0] == "StatusReply"
        assert results[1] == ["StatusRequest", "Abort", "mine"]

    def test_tags_are_one_per_direction_plus_the_exchange(self):
        assert [tag.name for tag in Tags] == ["TO_SLAVE", "TO_MASTER", "EXCHANGE"]


def _exchange_world(mode, grid_rows=2, grid_cols=2):
    """All slaves exchange; returns per-slave dict of neighbor -> payload."""
    grid_payload = Grid(grid_rows, grid_cols).to_payload()

    def program(world):
        comm = MpiCommManager(world)
        comm.build_contexts(is_active_slave=not comm.is_master)
        if comm.is_master:
            return None
        grid = Grid.from_payload(grid_payload)
        cell = comm.rank - 1
        received = comm.exchange_genomes(grid, cell, make_payload(cell), mode)
        return {c: p.generator_genome.parameters[0] for c, p in received.items()}

    size = grid_rows * grid_cols + 1
    return run_mpi(size, program, backend="threaded", timeout=60)


class TestExchangeModes:
    def test_neighbors_mode_delivers_all_neighbors(self):
        results = _exchange_world("neighbors")
        grid = Grid(2, 2)
        for rank in range(1, 5):
            cell = rank - 1
            expected = {c: float(c) for c in grid.neighbor_cells(cell)}
            assert results[rank] == expected

    def test_allgather_mode_equivalent(self):
        assert _exchange_world("allgather") == _exchange_world("neighbors")

    def test_neighbors_mode_3x3(self):
        results = _exchange_world("neighbors", 3, 3)
        grid = Grid(3, 3)
        for rank in range(1, 10):
            cell = rank - 1
            assert set(results[rank]) == set(grid.neighbor_cells(cell))

    def test_unknown_mode_raises(self):
        def program(world):
            comm = MpiCommManager(world)
            comm.build_contexts(is_active_slave=not comm.is_master)
            if comm.is_master:
                return True
            with pytest.raises(ValueError, match="unknown exchange mode"):
                comm.exchange_genomes(Grid(1, 2), comm.rank - 1,
                                      make_payload(comm.rank - 1), "bogus")
            return True

        assert all(run_mpi(3, program, backend="threaded", timeout=30))

    def test_exchange_abort_raises(self):
        """A set abort event interrupts a blocking neighbor exchange."""
        def program(world):
            comm = MpiCommManager(world)
            comm.build_contexts(is_active_slave=not comm.is_master)
            if comm.is_master:
                return True
            if comm.rank == 1:
                # Cell 0 will wait forever: its neighbor (cell 1) never sends.
                event = threading.Event()
                event.set()
                with pytest.raises(ExchangeAborted):
                    comm.exchange_genomes(Grid(1, 2), 0, make_payload(0),
                                          "neighbors", abort_event=event)
            return True

        assert all(run_mpi(3, program, backend="threaded", timeout=30))

    def test_modes_registry(self):
        assert EXCHANGE_MODES == ("neighbors", "allgather")


class TestBlockRound:
    def test_block_of_two_neighbours_exchanges_without_deadlock(self):
        """1x3 torus, rank 1 hosts cells 0 and 2 (cell 2 adopted from the
        silent rank 3).  The two co-hosted cells neighbour each other: the
        round sends every payload (the one for the co-hosted neighbour
        through the self-send path) before any cell receives, so neither
        waits on the other — receiving cell by cell would deadlock here."""
        from repro.parallel.recovery import FaultNotice, FaultState, FrozenCell

        def program(world):
            comm = MpiCommManager(world)
            comm.build_contexts(is_active_slave=not comm.is_master)
            if comm.rank in (0, 3):
                return None
            state = FaultState()
            state.apply(FaultNotice(policy="recover", cells=(
                FrozenCell(CellSnapshot(2, 0, None, None, None),
                           adopter_rank=1, rejoin_iteration=0),)))
            hosted = (0, 2) if comm.rank == 1 else (1,)
            received = comm.exchange_round(
                Grid(1, 3), {cell: make_payload(cell) for cell in hosted},
                "neighbors", fault_state=state)
            return {cell: {c: p.generator_genome.parameters[0] for c, p in seen.items()}
                    for cell, seen in received.items()}

        results = run_mpi(4, program, backend="threaded", timeout=60)
        assert results[1] == {0: {0: 0.0, 1: 1.0, 2: 2.0}, 2: {0: 0.0, 1: 1.0, 2: 2.0}}
        assert results[2] == {1: {0: 0.0, 1: 1.0, 2: 2.0}}


    def test_allgather_hands_a_two_cell_block_its_neighbours(self):
        """1x3 torus laid out as blocks (0, 1) and (2,): rank 1 gathers its
        block's two payloads as one list and hands each cell its
        neighbours — the same ones point-to-point delivers, where cells 0
        and 1 take each other's payload in the round itself."""
        grid_payload = Grid(1, 3, blocks=((0, 1), (2,))).to_payload()

        def program(world):
            comm = MpiCommManager(world)
            comm.build_contexts(is_active_slave=not comm.is_master)
            if comm.is_master:
                return None
            grid = Grid.from_payload(grid_payload)
            seen = {}
            for iteration, mode in enumerate(("allgather", "neighbors")):
                payloads = {cell: make_payload(cell, iteration)
                            for cell in grid.cells_of_rank(comm.rank)}
                received = comm.exchange_round(grid, payloads, mode)
                seen[mode] = {cell: {c: p.generator_genome.parameters[0]
                                     for c, p in neighbours.items()}
                              for cell, neighbours in received.items()}
                if mode == "neighbors" and comm.rank == 1:
                    assert received[1][0] is payloads[0]
                    assert received[0][1] is payloads[1]
            return seen

        results = run_mpi(3, program, backend="threaded", timeout=60)
        everyone = {0: 0.0, 1: 1.0, 2: 2.0}
        assert results[1]["allgather"] == {0: everyone, 1: everyone}
        assert results[2]["allgather"] == {2: everyone}
        for rank in (1, 2):
            assert results[rank]["allgather"] == results[rank]["neighbors"]


class TestExchangeTags:
    def test_tags_are_injective_on_a_33x33_grid(self):
        """Past 1,024 cells a fixed-width destination field aliased
        (iteration 3, cell 1024) onto (iteration 4, cell 0)."""
        from repro.mpi import MAX_USER_TAG
        from repro.parallel.comm_manager import exchange_tag

        grid = Grid(33, 33)
        iterations = 6
        tags = {exchange_tag(grid, iteration, cell)
                for iteration in range(iterations)
                for cell in range(grid.cell_count)}
        assert len(tags) == iterations * grid.cell_count
        assert 0 <= min(tags) and max(tags) <= MAX_USER_TAG

    def test_a_run_past_max_user_tag_is_refused_at_launch(self):
        from repro.config import paper_table1_config
        from repro.parallel import DistributedRunner

        config = paper_table1_config(33, 33)
        DistributedRunner(config, backend="threaded")  # validates, as before
        too_long = config.scaled(iterations=1_000_000, dataset_size=1000)
        with pytest.raises(ValueError, match="MAX_USER_TAG"):
            DistributedRunner(too_long, backend="threaded")


class TestResults:
    def test_result_transfer(self, rng):
        genome = Genome(rng.normal(size=8), 1e-3, "bce")
        result = SlaveResult(1, CellSnapshot(0, 0, genome, genome.copy(),
                                             np.full(5, 0.2)))

        def program(world):
            comm = MpiCommManager(world)
            if comm.is_master:
                collected = comm.receive(timeout=5.0)
                return collected.snapshot.cell_index
            comm.send(0, result)
            return None

        results = run_mpi(2, program, backend="threaded", timeout=30)
        assert results[0] == 0

    def test_collect_timeout_returns_none(self):
        def program(world):
            comm = MpiCommManager(world)
            if comm.is_master:
                return comm.receive(timeout=0.05)
            return None

        results = run_mpi(2, program, backend="threaded", timeout=30)
        assert results[0] is None
