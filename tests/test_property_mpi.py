"""Property-based tests for the message-passing runtime: collectives must
behave like their sequential specifications for arbitrary payloads."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import run_mpi

SETTINGS = dict(max_examples=15, deadline=None)

payloads = st.recursive(
    st.one_of(
        st.integers(-1000, 1000),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=8,
)


class TestCollectiveSpecs:
    @given(st.lists(payloads, min_size=2, max_size=5))
    @settings(**SETTINGS)
    def test_allgather_returns_rank_ordered_inputs(self, values):
        size = len(values)

        def program(comm):
            return comm.allgather(values[comm.Get_rank()])

        results = run_mpi(size, program, backend="threaded", timeout=60)
        for result in results:
            assert result == values

    @given(payloads, st.integers(2, 5))
    @settings(**SETTINGS)
    def test_bcast_replicates_root_value(self, value, size):
        def program(comm):
            data = value if comm.Get_rank() == 0 else None
            return comm.bcast(data, root=0)

        results = run_mpi(size, program, backend="threaded", timeout=60)
        assert all(r == value for r in results)

    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=6))
    @settings(**SETTINGS)
    def test_reduce_matches_python_fold(self, values):
        size = len(values)

        def program(comm):
            return comm.reduce(values[comm.Get_rank()], op=lambda a, b: a + b, root=0)

        results = run_mpi(size, program, backend="threaded", timeout=60)
        assert results[0] == sum(values)

    @given(st.lists(payloads, min_size=2, max_size=5))
    @settings(**SETTINGS)
    def test_scatter_distributes_in_rank_order(self, values):
        size = len(values)

        def program(comm):
            items = values if comm.Get_rank() == 0 else None
            return comm.scatter(items, root=0)

        results = run_mpi(size, program, backend="threaded", timeout=60)
        assert list(results) == values

    @given(st.integers(2, 5), st.integers(0, 2 ** 16))
    @settings(**SETTINGS)
    def test_gather_numpy_arrays(self, size, seed):
        def program(comm):
            rng = np.random.default_rng(seed + comm.Get_rank())
            return comm.gather(rng.normal(size=4), root=0)

        results = run_mpi(size, program, backend="threaded", timeout=60)
        gathered = results[0]
        assert len(gathered) == size
        for rank, array in enumerate(gathered):
            expected = np.random.default_rng(seed + rank).normal(size=4)
            np.testing.assert_array_equal(array, expected)


# -- non-overtaking across plain and group sends ------------------------------

#: One send of rank 0: its ``(dest, tag)`` list — a single entry is a plain
#: ``send``, several a ``send_group``; the same pair may repeat.
sends = st.lists(
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)),
             min_size=1, max_size=5),
    min_size=1, max_size=12,
)


def ordering_program(comm, ops):
    """Rank 0 performs ``ops`` in order, payload = the op's position; every
    other rank reports what it received from rank 0, in arrival order."""
    from repro.mpi import ANY_TAG, Status

    rank = comm.Get_rank()
    if rank == 0:
        for seq, dests in enumerate(ops):
            if len(dests) == 1:
                comm.send(seq, dest=dests[0][0], tag=dests[0][1])
            else:
                comm.send_group(seq, dests)
        return None
    expected = sum(dest == rank for dests in ops for dest, _ in dests)
    arrived = []
    for _ in range(expected):
        status = Status()
        seq = comm.recv(source=0, tag=ANY_TAG, status=status, timeout=60)
        arrived.append((seq, status.tag))
    return arrived


class TestSendOrder:
    """MPI non-overtaking, per (source, destination): whatever mix of
    ``send`` and ``send_group`` one rank issues, each destination receives
    its messages in send order — within a group in listed order,
    duplicates included — on every transport."""

    @staticmethod
    def check(ops, backend, **options):
        results = run_mpi(4, ordering_program, args=(ops,), backend=backend,
                          timeout=120, transport_options=options or None)
        for rank in (1, 2, 3):
            assert results[rank] == [(seq, tag) for seq, dests in enumerate(ops)
                                     for dest, tag in dests if dest == rank]

    @given(sends)
    @settings(max_examples=25, deadline=None)
    def test_threaded(self, ops):
        self.check(ops, "threaded")

    @given(sends)
    @settings(max_examples=15, deadline=None)
    def test_process(self, ops):
        self.check(ops, "process")

    @given(sends)
    @settings(max_examples=15, deadline=None)
    def test_socket(self, ops):
        # Ranks 0-1 on one worker, 2-3 on the other: every group mixes a
        # by-reference hand-over with the shared wire lane.
        self.check(ops, "socket", hosts="127.0.0.1:2,127.0.0.1:2")
