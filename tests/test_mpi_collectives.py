"""The collectives that stay (``barrier``, ``allgather``), ``sendrecv`` and
the isolation of a derived context, on every transport.

Per-rank programs live at module level — the socket transport pickles them
to its workers.
"""

import pytest

from repro.mpi import run_mpi

BACKENDS = ("threaded", "process", "socket")


def _run(size, program, backend):
    """``run_mpi`` over ``backend``; socket ranks are split across two
    workers so collectives cross the coordinator."""
    options = None
    if backend == "socket":
        options = {"hosts": f"127.0.0.1:{size // 2},127.0.0.1:{size - size // 2}"}
    return run_mpi(size, program, backend=backend, timeout=120,
                   transport_options=options)


def _allgather(comm):
    return comm.allgather(chr(ord("a") + comm.Get_rank()))


def _barrier_ordering(comm):
    """After a barrier, every rank has seen every pre-barrier send."""
    rank = comm.Get_rank()
    comm.send(rank, dest=(rank + 1) % comm.Get_size(), tag=1)
    comm.barrier()
    left = (rank - 1) % comm.Get_size()
    assert comm.iprobe(source=left, tag=1)
    return comm.recv(source=left, tag=1)


def _back_to_back_collectives(comm):
    """Consecutive collectives must not cross-match."""
    first = comm.allgather(("first", comm.Get_rank()))
    second = comm.allgather(("second", comm.Get_rank()))
    assert all(tag == "first" for tag, _ in first)
    assert all(tag == "second" for tag, _ in second)
    return True


def _ring_sendrecv(comm):
    rank, size = comm.Get_rank(), comm.Get_size()
    right = (rank + 1) % size
    left = (rank - 1) % size
    # Everyone sends right and receives from left simultaneously — the
    # combined call cannot deadlock.
    return comm.sendrecv(f"token-{rank}", dest=right, source=left,
                         sendtag=2, recvtag=2)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCollectives:
    def test_allgather(self, backend):
        results = _run(4, _allgather, backend)
        assert all(r == ["a", "b", "c", "d"] for r in results)

    def test_barrier_orders_sends(self, backend):
        results = _run(4, _barrier_ordering, backend)
        assert sorted(results) == [0, 1, 2, 3]

    def test_sequenced_collectives(self, backend):
        assert all(_run(3, _back_to_back_collectives, backend))

    def test_ring_shift(self, backend):
        results = _run(4, _ring_sendrecv, backend)
        assert results == [f"token-{(r - 1) % 4}" for r in range(4)]


def _local_traffic_isolated(comm):
    """A LOCAL message never matches a WORLD receive with the same tag."""
    rank = comm.Get_rank()
    local = comm.Attach_derived((0, 1), range(comm.Get_size()))
    if rank == 0:
        local.send("local-message", dest=1, tag=7)
        comm.send("world-message", dest=1, tag=7)
        return True
    # The LOCAL message arrived first; WORLD's receive skips it.
    world_msg = comm.recv(source=0, tag=7)
    assert not comm.iprobe(source=0, tag=7)
    local_msg = local.recv(source=0, tag=7)
    return (world_msg, local_msg)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDerivedContext:
    def test_local_message_never_matches_a_world_receive(self, backend):
        results = _run(2, _local_traffic_isolated, backend)
        assert results[1] == ("world-message", "local-message")
