"""Communicators: point-to-point, collectives, ``Split`` and Cartesian grids.

A :class:`Comm` is a *view* of the rank's :class:`~repro.mpi.endpoint.Endpoint`
scoped by a context id — the standard MPI trick that keeps traffic of
different communicators from interfering.  ``Split`` derives the paper's
LOCAL (active slaves) and GLOBAL (master + slaves) communicators from WORLD.

Collectives are implemented over point-to-point messages in the reserved
negative tag space, with a per-communicator operation counter so that
back-to-back collectives never cross-match.  Algorithms are linear (root
relays); world sizes here are ≤ 26 (1 master + 25 slaves for the 5x5
ablation), where linear beats tree algorithms' extra latency hops.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

import numpy as np

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, MAX_USER_TAG
from repro.mpi.endpoint import Endpoint, Group
from repro.mpi.errors import MpiError

__all__ = ["Comm", "CartComm", "Status", "Request"]

# Collective kinds get distinct sub-tags so one operation's messages can
# never match another's, even at the same sequence number.
_KIND_BARRIER = 1
_KIND_BCAST = 2
_KIND_GATHER = 3
_KIND_SCATTER = 4
_KIND_ALLGATHER = 5
_KIND_REDUCE = 6
_KIND_SPLIT = 7
_KIND_ALLTOALL = 8
_N_KINDS = 9


class Status:
    """Source/tag of a received message (mpi4py-style out-parameter)."""

    __slots__ = ("source", "tag")

    def __init__(self) -> None:
        self.source = ANY_SOURCE
        self.tag = ANY_TAG

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag


class Request:
    """Handle for a non-blocking operation.

    Sends complete eagerly (mailboxes are buffered), so ``isend`` returns an
    already-completed request; ``irecv`` requests complete on ``wait``/
    ``test``.
    """

    def __init__(self, complete_fn: Callable[[float | None], Any], done: bool = False,
                 value: Any = None):
        self._complete = complete_fn
        self._done = done
        self._value = value

    def wait(self, timeout: float | None = None) -> Any:
        if not self._done:
            self._value = self._complete(timeout)
            self._done = True
        return self._value

    def test(self) -> tuple[bool, Any]:
        if self._done:
            return True, self._value
        try:
            self._value = self._complete(0.0)
        except Exception:
            return False, None
        self._done = True
        return True, self._value


class Comm:
    """One communicator as seen from one rank.

    Context ids are *tuples* forming a tree: WORLD is ``(0,)`` and the k-th
    ``Split`` of a communicator with context ``ctx`` yields
    ``ctx + (k, color)``.  Every member derives the same id with no shared
    state — crucial for the process transport, where ranks share nothing.
    """

    def __init__(self, endpoint: Endpoint, context: tuple[int, ...], group: Sequence[int]):
        """``group`` lists the *global* rank of every member, indexed by the
        communicator rank."""
        self._endpoint = endpoint
        self._context = tuple(context)
        self._group = list(group)
        if endpoint.rank not in self._group:
            raise MpiError(f"rank {endpoint.rank} not in communicator group {group}")
        self._rank = self._group.index(endpoint.rank)
        self._coll_seq = 0
        self._derive_seq = 0
        self._coll_lock = threading.Lock()

    # -- introspection -----------------------------------------------------------

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return len(self._group)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._group)

    @property
    def context(self) -> tuple[int, ...]:
        return self._context

    def global_rank_of(self, comm_rank: int) -> int:
        """Translate a communicator rank to the job-wide rank."""
        return self._group[comm_rank]

    # -- point-to-point -------------------------------------------------------------

    def _check_user_tag(self, tag: int) -> None:
        if not 0 <= tag <= MAX_USER_TAG:
            raise ValueError(f"user tags must be in 0..{MAX_USER_TAG}, got {tag}")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a pickled Python object (buffered, returns immediately)."""
        self.send_group(obj, [(dest, tag)])

    def send_group(self, obj: Any, dests: Sequence[tuple[int, int]]) -> int:
        """Send one object to every ``(dest, tag)`` in ``dests`` (buffered,
        returns immediately) — each destination receives it as if sent by
        :meth:`send`, in order with this rank's other sends to it.

        The transport moves the object once per destination *host*, not
        once per destination: ranks that share a host receive the same
        object, which they must treat as read-only.  Returns the number of
        hosts written (see :mod:`repro.mpi.stats`).
        """
        for _, tag in dests:
            self._check_user_tag(tag)
        return self._send_group_raw(obj, dests)

    def _send_group_raw(self, obj: Any, dests: Sequence[tuple[int, int]]) -> int:
        for dest, _ in dests:
            if not 0 <= dest < self.size:
                raise ValueError(f"dest {dest} outside communicator of size {self.size}")
        if not dests:
            return 0
        routes = tuple((self._group[dest], tag) for dest, tag in dests)
        return self._endpoint.send_group(
            Group(self._context, self._rank, obj, routes))

    def _send_raw(self, obj: Any, dest: int, tag: int) -> None:
        self._send_group_raw(obj, [(dest, tag)])

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None, timeout: float | None = None) -> Any:
        """Blocking receive; wildcards allowed; optional timeout (extension)."""
        if tag != ANY_TAG:
            self._check_user_tag(tag)
        return self._recv_raw(source, tag, status, timeout)

    def _recv_raw(self, source: int, tag: int, status: Status | None = None,
                  timeout: float | None = None) -> Any:
        envelope = self._endpoint.recv(self._context, source, tag, timeout)
        if status is not None:
            status.source = envelope.source
            status.tag = envelope.tag
        return envelope.payload

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request(lambda _t: None, done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return Request(lambda t: self.recv(source, tag, timeout=t))

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               status: Status | None = None) -> bool:
        """Non-blocking probe for a matching message."""
        envelope = self._endpoint.iprobe(self._context, source, tag)
        if envelope is None:
            return False
        if status is not None:
            status.source = envelope.source
            status.tag = envelope.tag
        return True

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              status: Status | None = None, timeout: float | None = None) -> None:
        """Blocking probe (implemented as recv + requeue-free peek loop)."""
        envelope = self._endpoint.recv(self._context, source, tag, timeout)
        # Requeue at the front by re-inserting; Endpoint guarantees order by
        # arrival, and a probed message must stay receivable.
        with self._endpoint._cond:
            self._endpoint._buffer.insert(0, envelope)
        if status is not None:
            status.source = envelope.source
            status.tag = envelope.tag

    # -- buffer-style API (mpi4py's uppercase methods) ---------------------------------
    # The lowercase methods pickle arbitrary objects; these operate on
    # NumPy arrays with receiver-provided, preallocated buffers — the
    # allocation-free hot path for large genome vectors.

    def Send(self, array, dest: int, tag: int = 0) -> None:
        """Send a contiguous NumPy array (buffer semantics)."""
        arr = np.ascontiguousarray(array)
        self._check_user_tag(tag)
        self._send_raw(arr, dest, tag)

    def Recv(self, buffer, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None, timeout: float | None = None) -> None:
        """Receive **into** a preallocated array (in place, no allocation).

        Shape and dtype of ``buffer`` must match the incoming array.
        """
        if tag != ANY_TAG:
            self._check_user_tag(tag)
        incoming = self._recv_raw(source, tag, status, timeout)
        incoming = np.asarray(incoming)
        if incoming.shape != buffer.shape or incoming.dtype != buffer.dtype:
            raise ValueError(
                f"buffer mismatch: got {incoming.dtype}{incoming.shape}, "
                f"buffer is {buffer.dtype}{buffer.shape}"
            )
        buffer[...] = incoming

    def Bcast(self, buffer, root: int = 0, timeout: float | None = None) -> None:
        """In-place broadcast of a NumPy array from ``root``."""
        tag = self._coll_tag(_KIND_BCAST)
        if self._rank == root:
            payload = np.ascontiguousarray(buffer)
            for dest in range(self.size):
                if dest != root:
                    self._send_raw(payload, dest, tag)
        else:
            incoming = np.asarray(self._recv_raw(root, tag, timeout=timeout))
            if incoming.shape != buffer.shape or incoming.dtype != buffer.dtype:
                raise ValueError(
                    f"buffer mismatch: got {incoming.dtype}{incoming.shape}, "
                    f"buffer is {buffer.dtype}{buffer.shape}"
                )
            buffer[...] = incoming

    def Allgather(self, sendbuf, recvbuf, timeout: float | None = None) -> None:
        """Gather one array per rank into ``recvbuf[rank] = contribution``.

        ``recvbuf`` must be preallocated with shape ``(size, *sendbuf.shape)``
        — the neighbor-exchange pattern with reused per-iteration buffers.
        """
        send = np.ascontiguousarray(sendbuf)
        expected = (self.size,) + send.shape
        if recvbuf.shape != expected:
            raise ValueError(f"recvbuf must have shape {expected}, got {recvbuf.shape}")
        gathered = self.allgather(send, timeout=timeout)
        for rank, part in enumerate(gathered):
            recvbuf[rank] = part

    # -- combined and all-to-all operations ----------------------------------------------

    def sendrecv(self, obj: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 status: Status | None = None, timeout: float | None = None) -> Any:
        """Combined send+receive (deadlock-free ring shifts)."""
        self.send(obj, dest, sendtag)
        if recvtag != ANY_TAG:
            self._check_user_tag(recvtag)
        return self._recv_raw(source, recvtag, status, timeout)

    def alltoall(self, objs: Sequence[Any], timeout: float | None = None) -> list[Any]:
        """Personalized all-to-all: send ``objs[i]`` to rank ``i``; return
        the list of items addressed to this rank, in source-rank order."""
        tag = self._coll_tag(_KIND_ALLTOALL)
        if objs is None or len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} items")
        for dest in range(self.size):
            if dest != self._rank:
                self._send_raw(objs[dest], dest, tag)
        received: list[Any] = [None] * self.size
        received[self._rank] = objs[self._rank]
        for _ in range(self.size - 1):
            status = Status()
            payload = self._recv_raw(ANY_SOURCE, tag, status, timeout)
            received[status.source] = payload
        return received

    # -- collectives ------------------------------------------------------------------

    def _coll_tag(self, kind: int) -> int:
        """Reserve a fresh negative tag for one collective operation.

        Every member calls collectives in the same order (an MPI
        requirement), so the per-communicator sequence numbers agree.
        """
        with self._coll_lock:
            seq = self._coll_seq
            self._coll_seq += 1
        return -(seq * _N_KINDS + kind) - 2  # -1 is ANY_TAG; start at -2

    def barrier(self, timeout: float | None = None) -> None:
        """All members wait until everyone arrived (gather + release)."""
        tag = self._coll_tag(_KIND_BARRIER)
        if self._rank == 0:
            for _ in range(self.size - 1):
                self._recv_raw(ANY_SOURCE, tag, timeout=timeout)
            for dest in range(1, self.size):
                self._send_raw(None, dest, tag)
        else:
            self._send_raw(None, 0, tag)
            self._recv_raw(0, tag, timeout=timeout)

    def bcast(self, obj: Any, root: int = 0, timeout: float | None = None) -> Any:
        """Broadcast from ``root``; every member returns the object."""
        tag = self._coll_tag(_KIND_BCAST)
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._send_raw(obj, dest, tag)
            return obj
        return self._recv_raw(root, tag, timeout=timeout)

    def gather(self, obj: Any, root: int = 0, timeout: float | None = None) -> list[Any] | None:
        """Gather one object per member at ``root`` (rank order); others get None."""
        tag = self._coll_tag(_KIND_GATHER)
        if self._rank == root:
            results: list[Any] = [None] * self.size
            results[root] = obj
            for _ in range(self.size - 1):
                status = Status()
                payload = self._recv_raw(ANY_SOURCE, tag, status, timeout)
                results[status.source] = payload
            return results
        self._send_raw(obj, root, tag)
        return None

    def allgather(self, obj: Any, timeout: float | None = None) -> list[Any]:
        """Gather at rank 0 then broadcast the full list to every member."""
        tag = self._coll_tag(_KIND_ALLGATHER)
        if self._rank == 0:
            results: list[Any] = [None] * self.size
            results[0] = obj
            for _ in range(self.size - 1):
                status = Status()
                payload = self._recv_raw(ANY_SOURCE, tag, status, timeout)
                results[status.source] = payload
            for dest in range(1, self.size):
                self._send_raw(results, dest, tag)
            return results
        self._send_raw(obj, 0, tag)
        return self._recv_raw(0, tag, timeout=timeout)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0,
                timeout: float | None = None) -> Any:
        """Distribute ``objs[i]`` to member ``i`` from ``root``."""
        tag = self._coll_tag(_KIND_SCATTER)
        if self._rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError(f"scatter needs exactly {self.size} items at the root")
            for dest in range(self.size):
                if dest != root:
                    self._send_raw(objs[dest], dest, tag)
            return objs[root]
        return self._recv_raw(root, tag, timeout=timeout)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any], root: int = 0,
               timeout: float | None = None) -> Any | None:
        """Left-fold ``op`` over contributions in rank order at ``root``."""
        tag = self._coll_tag(_KIND_REDUCE)
        if self._rank == root:
            parts: list[Any] = [None] * self.size
            parts[root] = obj
            for _ in range(self.size - 1):
                status = Status()
                payload = self._recv_raw(ANY_SOURCE, tag, status, timeout)
                parts[status.source] = payload
            accumulator = parts[0]
            for value in parts[1:]:
                accumulator = op(accumulator, value)
            return accumulator
        self._send_raw(obj, root, tag)
        return None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any],
                  timeout: float | None = None) -> Any:
        """Reduce at rank 0, then broadcast the result."""
        reduced = self.reduce(obj, op, root=0, timeout=timeout)
        return self.bcast(reduced, root=0, timeout=timeout)

    # -- communicator management ----------------------------------------------------------

    def Split(self, color: int | None, key: int = 0,
              timeout: float | None = None) -> "Comm | None":
        """Partition members by ``color`` into disjoint sub-communicators.

        ``color=None`` (MPI_UNDEFINED) opts out and returns ``None``.  Member
        order inside each part follows ``(key, parent rank)``.  All members
        must call this collectively.
        """
        tag = self._coll_tag(_KIND_SPLIT)
        entry = (color, key, self._rank)
        # allgather of (color, key, rank) triples over a dedicated tag.
        if self._rank == 0:
            entries: list[Any] = [None] * self.size
            entries[0] = entry
            for _ in range(self.size - 1):
                status = Status()
                payload = self._recv_raw(ANY_SOURCE, tag, status, timeout)
                entries[status.source] = payload
            for dest in range(1, self.size):
                self._send_raw(entries, dest, tag)
        else:
            self._send_raw(entry, 0, tag)
            entries = self._recv_raw(0, tag, timeout=timeout)

        # Every member advances the derivation counter identically (Split is
        # collective), so the derived context tuple agrees without any
        # shared state.
        with self._coll_lock:
            seq = self._derive_seq
            self._derive_seq += 1
        if color is None:
            return None
        members = sorted(
            ((k, r) for c, k, r in entries if c == color),
            key=lambda pair: pair,
        )
        group = [self._group[r] for _, r in members]
        return Comm(self._endpoint, self._context + (seq, color), group)

    def Dup(self, timeout: float | None = None) -> "Comm":
        """Duplicate this communicator with a fresh context."""
        duplicate = self.Split(color=0, key=self._rank, timeout=timeout)
        assert duplicate is not None
        return duplicate

    def Attach_derived(self, suffix: Sequence[int], group: Sequence[int]) -> "Comm":
        """Re-attach to an already-derived sub-communicator, non-collectively.

        Context tuples are pure functions of the derivation order (see
        :meth:`Split`), so a rank that knows which collectives its peers ran
        — e.g. a respawned worker rejoining a job whose ``Split``/``Dup``
        happened before it was born — can reconstruct the derived
        communicator from ``(derivation seq, color)`` and the member list
        without making anyone re-enter a collective.  The caller is
        responsible for passing the same suffix and group order the original
        derivation produced.
        """
        return Comm(self._endpoint, self._context + tuple(suffix), list(group))

    def Create_cart(self, dims: Sequence[int], periods: Sequence[bool] | bool = True,
                    timeout: float | None = None) -> "CartComm":
        """Create a Cartesian view of this communicator (row-major ranks)."""
        return CartComm(self, dims, periods, timeout=timeout)


class CartComm:
    """Cartesian topology over an existing communicator.

    Mirrors ``MPI_CART_CREATE`` with all-periodic-by-default dimensions (the
    training grid is a torus).  Rank ``r`` sits at row-major coordinates.
    """

    def __init__(self, comm: Comm, dims: Sequence[int], periods: Sequence[bool] | bool = True,
                 timeout: float | None = None):
        self.comm = comm.Dup(timeout=timeout)
        self.dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValueError("all dimensions must be >= 1")
        total = 1
        for d in self.dims:
            total *= d
        if total != comm.size:
            raise ValueError(f"dims {self.dims} need {total} ranks, communicator has {comm.size}")
        if isinstance(periods, bool):
            self.periods = tuple(periods for _ in self.dims)
        else:
            self.periods = tuple(bool(p) for p in periods)
            if len(self.periods) != len(self.dims):
                raise ValueError("periods must match dims length")

    # -- delegation --------------------------------------------------------------

    def Get_rank(self) -> int:
        return self.comm.Get_rank()

    def Get_size(self) -> int:
        return self.comm.Get_size()

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self.comm.send(obj, dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None, timeout: float | None = None) -> Any:
        return self.comm.recv(source, tag, status, timeout)

    def barrier(self, timeout: float | None = None) -> None:
        self.comm.barrier(timeout)

    def allgather(self, obj: Any, timeout: float | None = None) -> list[Any]:
        return self.comm.allgather(obj, timeout)

    # -- topology ------------------------------------------------------------------

    def Get_coords(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.comm.size:
            raise ValueError(f"rank {rank} outside communicator")
        coords = []
        remainder = rank
        for extent in reversed(self.dims):
            coords.append(remainder % extent)
            remainder //= extent
        return tuple(reversed(coords))

    def Get_cart_rank(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.dims):
            raise ValueError("coordinate arity mismatch")
        rank = 0
        for coord, extent, periodic in zip(coords, self.dims, self.periods):
            if periodic:
                coord = coord % extent
            elif not 0 <= coord < extent:
                raise ValueError(f"coordinate {coord} outside non-periodic extent {extent}")
            rank = rank * extent + coord
        return rank

    def Shift(self, direction: int, displacement: int) -> tuple[int | None, int | None]:
        """Source/destination ranks for a shift along one dimension.

        Returns ``(source, dest)``; ``None`` replaces MPI_PROC_NULL at
        non-periodic boundaries.
        """
        if not 0 <= direction < len(self.dims):
            raise ValueError("direction outside topology arity")
        me = list(self.Get_coords(self.comm.rank))

        def moved(delta: int) -> int | None:
            coords = list(me)
            coords[direction] += delta
            extent = self.dims[direction]
            if self.periods[direction]:
                coords[direction] %= extent
            elif not 0 <= coords[direction] < extent:
                return None
            return self.Get_cart_rank(coords)

        return moved(-displacement), moved(+displacement)
