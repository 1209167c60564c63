"""Communicators: point-to-point, two collectives, and derived contexts.

A :class:`Comm` is a *view* of the rank's :class:`~repro.mpi.endpoint.Endpoint`
scoped by a context id — the standard MPI trick that keeps traffic of
different communicators from interfering.  :meth:`Comm.Attach_derived`
derives a sub-communicator (the paper's LOCAL, the active slaves, out of
WORLD) with no communication at all, so a rank launched with the job and
one born mid-run attach to it the same way.

The two collectives, ``barrier`` and ``allgather``, are linear (root
relays) over point-to-point messages in the reserved negative tag space,
with a per-communicator operation counter so that back-to-back
collectives never cross-match; world sizes here are ≤ 26 (1 master + 25
slaves for the 5x5 ablation), where linear beats tree algorithms' extra
latency hops.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, MAX_USER_TAG
from repro.mpi.endpoint import Endpoint, Group
from repro.mpi.errors import MpiError

__all__ = ["Comm", "Status"]

# Collective kinds get distinct sub-tags so one operation's messages can
# never match another's, even at the same sequence number.  The values are
# part of the wire: a collective's tag is -(seq * _N_KINDS + kind) - 2.
_KIND_BARRIER = 1
_KIND_ALLGATHER = 5
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


class Comm:
    """One communicator as seen from one rank.

    Context ids are *tuples* forming a tree: WORLD is ``(0,)`` and a
    communicator derived from one with context ``ctx`` by
    :meth:`Attach_derived` is ``ctx + suffix``.  Every member names the
    same id with no shared state — crucial for the process transport,
    where ranks share nothing.
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

    # -- combined operations -------------------------------------------------------------

    def sendrecv(self, obj: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 status: Status | None = None, timeout: float | None = None) -> Any:
        """Combined send+receive (deadlock-free ring shifts)."""
        self.send(obj, dest, sendtag)
        if recvtag != ANY_TAG:
            self._check_user_tag(recvtag)
        return self._recv_raw(source, recvtag, status, timeout)

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

    # -- communicator management ----------------------------------------------------------

    def Attach_derived(self, suffix: Sequence[int], group: Sequence[int]) -> "Comm":
        """The sub-communicator with context ``self.context + suffix`` and
        members ``group`` (job-wide ranks, in communicator-rank order).

        Non-collective: every member attaches on its own, whenever it
        joins — before its peers, after them, or in a process born mid-run
        — and the first message on the new context finds it.  The caller
        passes the same suffix and group order on every member.
        """
        return Comm(self._endpoint, self._context + tuple(suffix), list(group))
