"""Per-rank transport accounting.

Every rank's :class:`~repro.mpi.endpoint.Endpoint` owns one
:class:`TransportStats` and increments it on each send and each pumped
receive, so the counters have identical semantics on every transport —
threads, forked processes and TCP sockets alike.  Message counts are exact.
Byte counts are *payload bytes*: the sizes of the NumPy buffers, byte blobs
and strings reachable from each message (via :func:`payload_nbytes`), not
serialized wire bytes — in-memory transports never serialize at all, and
using one metric everywhere keeps the backend-overhead benchmark an
apples-to-apples comparison.

**Groups.**  A send is one payload with a list of ``(rank, tag)``
destinations (a plain send is the group of one), and a transport writes it
once per distinct destination *host*: per rank on the thread and process
transports, per worker on the socket transport — the sender's own worker
included, whose co-hosted ranks take the object by reference.  The sender
counts exactly that: one message and the payload bytes **per host
written**, however many ranks or tags share the host.  Receives count per
rank: one message and the payload bytes for each rank a group reaches,
once, whether the rank shares the received copy or not.  The bus counters
``exchange.genomes_sent``/``exchange.bytes_sent`` follow the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Iterable

from repro.telemetry import bus as telemetry

__all__ = [
    "TransportStats",
    "payload_nbytes",
    "merge_transport_stats",
]


def payload_nbytes(obj: Any) -> int:
    """Approximate payload size of one message in bytes.

    Counts NumPy buffers (``.nbytes``), byte blobs and strings, walking
    tuples, lists, dicts and dataclasses to their leaves however deep they
    nest (a respawn's run task carries genomes seven levels down).  A
    container already on the path from the message to the current object
    counts zero there, so a cyclic payload still returns; an object reached
    twice along different paths counts twice, as the wire would send it.
    Opaque objects count as zero — this is an accounting aid, not a
    serializer.
    """
    return _nbytes(obj, set())


def _nbytes(obj: Any, path: set[int]) -> int:
    if obj is None:
        return 0
    if isinstance(obj, memoryview):
        # Explicitly .nbytes, never len(): len() is the element count, so
        # a float64 view would read 8x small if it ever reached a len()
        # branch.  (The generic nbytes probe below would also catch it —
        # this branch exists so the distinction stays visible.)
        return obj.nbytes
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):  # numpy arrays and scalars
        return nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in fields(obj)]
    else:
        return 0
    if id(obj) in path:
        return 0
    path.add(id(obj))
    total = sum(_nbytes(child, path) for child in children)
    path.discard(id(obj))
    return total


@dataclass
class TransportStats:
    """Messages and payload bytes one rank moved through its endpoint."""

    rank: int
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    ranks_lost: int = 0
    """1 when the transport lost this rank: it died before reporting, so
    :func:`~repro.mpi.launcher.run_mpi` stands this record in for the
    one it never sent.  Every transport counts it the same way."""
    reconnects: int = 0
    """1 for a rank hosted by a replacement or ``--join`` socket worker:
    this incarnation joined mid-run over a new connection."""
    send_retries: int = 0
    """Connect attempts the hosting socket worker retried through
    :mod:`repro.mpi.backoff` before it reached the coordinator (sends are
    never retried)."""

    def count_sent(self, payload: Any, hosts: int = 1) -> None:
        """One group written to ``hosts`` distinct destination hosts."""
        self.messages_sent += hosts
        nbytes = hosts * payload_nbytes(payload)
        self.bytes_sent += nbytes
        if telemetry.enabled():
            # Absorbed into the bus: the same counts, rank-tagged, so the
            # merged RunResult.telemetry carries transport traffic without
            # a second accounting path.
            telemetry.count("mpi.messages_sent", hosts, rank=self.rank)
            telemetry.count("mpi.bytes_sent", nbytes, rank=self.rank)

    def count_received(self, payload: Any) -> None:
        self.messages_received += 1
        nbytes = payload_nbytes(payload)
        self.bytes_received += nbytes
        if telemetry.enabled():
            telemetry.count("mpi.messages_received", rank=self.rank)
            telemetry.count("mpi.bytes_received", nbytes, rank=self.rank)

    def summary(self) -> str:
        """One line for CLI/log output."""
        line = (f"rank {self.rank}: sent {self.messages_sent} msg / "
                f"{_format_bytes(self.bytes_sent)}, received "
                f"{self.messages_received} msg / "
                f"{_format_bytes(self.bytes_received)}")
        if self.ranks_lost or self.reconnects or self.send_retries:
            line += (f", recovery: {self.ranks_lost} rank(s) lost, "
                     f"{self.reconnects} reconnect(s), "
                     f"{self.send_retries} connect retry(ies)")
        return line


def merge_transport_stats(stats: Iterable[TransportStats]) -> TransportStats:
    """Job-wide totals (``rank`` is set to -1 on the merged record)."""
    total = TransportStats(rank=-1)
    for record in stats:
        total.messages_sent += record.messages_sent
        total.messages_received += record.messages_received
        total.bytes_sent += record.bytes_sent
        total.bytes_received += record.bytes_received
        total.ranks_lost += record.ranks_lost
        total.reconnects += record.reconnects
        total.send_retries += record.send_retries
    return total


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(n)} B"  # pragma: no cover - unreachable
