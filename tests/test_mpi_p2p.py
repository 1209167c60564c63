"""Point-to-point semantics of the message-passing runtime."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, MpiWorkerError, Status, run_mpi
from repro.mpi.errors import MpiTimeoutError

BACKEND = "threaded"  # p2p semantics are identical across transports


def _pingpong(comm):
    rank = comm.Get_rank()
    if rank == 0:
        comm.send({"x": 1}, dest=1, tag=5)
        return comm.recv(source=1, tag=6)
    payload = comm.recv(source=0, tag=5)
    comm.send(payload["x"] + 1, dest=0, tag=6)
    return None


def _tag_filtering(comm):
    rank = comm.Get_rank()
    if rank == 0:
        comm.send("b", dest=1, tag=2)
        comm.send("a", dest=1, tag=1)
        return None
    # Receive out of send order using tags.
    first = comm.recv(source=0, tag=1)
    second = comm.recv(source=0, tag=2)
    return (first, second)


def _wildcard_status(comm):
    rank = comm.Get_rank()
    if rank == 0:
        received = []
        for _ in range(2):
            status = Status()
            value = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
            received.append((value, status.Get_source(), status.Get_tag()))
        return sorted(received, key=lambda t: t[1])
    comm.send(f"from-{rank}", dest=0, tag=10 + rank)
    return None


def _fifo_per_pair(comm):
    rank = comm.Get_rank()
    if rank == 0:
        for i in range(50):
            comm.send(i, dest=1, tag=3)
        return None
    return [comm.recv(source=0, tag=3) for _ in range(50)]


def _iprobe(comm):
    rank = comm.Get_rank()
    if rank == 0:
        assert not comm.iprobe(source=1, tag=4)
        comm.send("go", dest=1, tag=4)
        comm.recv(source=1, tag=4)
        return True
    comm.recv(source=0, tag=4)
    comm.send("back", dest=0, tag=4)
    return True


class TestPointToPoint:
    def test_pingpong(self):
        results = run_mpi(2, _pingpong, backend=BACKEND, timeout=30)
        assert results[0] == 2

    def test_tag_filtering_out_of_order(self):
        results = run_mpi(2, _tag_filtering, backend=BACKEND, timeout=30)
        assert results[1] == ("a", "b")

    def test_wildcards_and_status(self):
        results = run_mpi(3, _wildcard_status, backend=BACKEND, timeout=30)
        assert results[0] == [("from-1", 1, 11), ("from-2", 2, 12)]

    def test_fifo_per_sender(self):
        results = run_mpi(2, _fifo_per_pair, backend=BACKEND, timeout=30)
        assert results[1] == list(range(50))

    def test_iprobe(self):
        results = run_mpi(2, _iprobe, backend=BACKEND, timeout=30)
        assert all(results)


def _recv_timeout(comm):
    if comm.Get_rank() == 0:
        with pytest.raises(MpiTimeoutError):
            comm.recv(source=1, tag=1, timeout=0.05)
    return True


def _bad_dest(comm):
    if comm.Get_rank() == 0:
        with pytest.raises(ValueError):
            comm.send("x", dest=5)
    return True


def _bad_tag(comm):
    if comm.Get_rank() == 0:
        with pytest.raises(ValueError):
            comm.send("x", dest=1, tag=-3)
    return True


class TestErrors:
    def test_recv_timeout(self):
        run_mpi(2, _recv_timeout, backend=BACKEND, timeout=30)

    def test_bad_destination(self):
        run_mpi(2, _bad_dest, backend=BACKEND, timeout=30)

    def test_negative_user_tag_rejected(self):
        run_mpi(2, _bad_tag, backend=BACKEND, timeout=30)

    def test_worker_exception_propagates(self):
        def boom(comm):
            if comm.Get_rank() == 1:
                raise RuntimeError("deliberate")
            return "ok"

        with pytest.raises(MpiWorkerError, match="deliberate"):
            run_mpi(2, boom, backend=BACKEND, timeout=30)

    def test_allow_failures_returns_partial(self):
        def boom(comm):
            if comm.Get_rank() == 1:
                raise RuntimeError("deliberate")
            return "ok"

        results = run_mpi(2, boom, backend=BACKEND, timeout=30, allow_failures=True)
        assert results[0] == "ok"
        assert results[1] is None
        assert 1 in results.failures

    def test_job_timeout(self):
        def hang(comm):
            if comm.Get_rank() == 0:
                comm.recv(source=1, tag=1)  # never sent
            return None

        with pytest.raises(MpiTimeoutError):
            run_mpi(2, hang, backend=BACKEND, timeout=0.5)


def _numpy_payload(comm):
    rank = comm.Get_rank()
    if rank == 0:
        comm.send(np.full((100, 100), 7.0), dest=1)
        return None
    array = comm.recv(source=0)
    return float(array.mean())


class TestProcessBackend:
    """Spot checks that the process transport behaves identically."""

    def test_pingpong_process(self):
        results = run_mpi(2, _pingpong, backend="process", timeout=60)
        assert results[0] == 2

    def test_numpy_payload_crosses_processes(self):
        results = run_mpi(2, _numpy_payload, backend="process", timeout=60)
        assert results[1] == pytest.approx(7.0)

    def test_dead_process_detected(self):
        def die(comm):
            if comm.Get_rank() == 1:
                import os

                os._exit(13)  # no outcome posted
            return "alive"

        results = run_mpi(2, die, backend="process", timeout=60, allow_failures=True)
        assert results[0] == "alive"
        assert "exit" in results.failures[1] or "13" in results.failures[1]
