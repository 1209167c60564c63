"""Message types and tags of the master-slave protocol.

All payloads are plain dataclasses of picklable fields so they cross the
process transport unchanged.  The control protocol is two streams of typed
messages on WORLD, one tag each way, and every role receives with one
blocking receive and dispatches on the message's type:

* master -> slave on :attr:`Tags.TO_SLAVE`: :class:`RunTask`,
  :class:`StatusRequest`, :class:`Abort`,
  :class:`~repro.parallel.recovery.FaultNotice`, :class:`DrainAck`;
* slave -> master on :attr:`Tags.TO_MASTER`: :class:`NodeInfo`,
  :class:`StatusReply`, :class:`SlaveResult`,
  :class:`~repro.coevolution.checkpoint.CellSnapshot`,
  :class:`~repro.parallel.elastic.DrainNotice`.

The genome exchange between slaves runs on the separate LOCAL communicator
under :attr:`Tags.EXCHANGE`.  The field-less orders (status request, abort,
drain ack) carry no payload bytes, exactly like the bare tags they replace.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.coevolution.cell import CellReport
from repro.coevolution.genome import Genome

__all__ = [
    "Tags", "NodeInfo", "RunTask", "StatusRequest", "StatusReply", "Abort",
    "DrainAck", "SlaveResult", "ExchangePayload",
]


class Tags(enum.IntEnum):
    """WORLD carries the two control streams, LOCAL only EXCHANGE."""

    TO_SLAVE = 1
    TO_MASTER = 2
    EXCHANGE = 7


@dataclass(frozen=True)
class NodeInfo:
    """First message of every slave: where it runs (paper Fig. 3,
    "Send node name to master")."""

    rank: int
    node_name: str
    pid: int


@dataclass(frozen=True)
class RunTask:
    """Master -> slave: the workload assignment starting execution.

    Carries the full experiment configuration (serialized, so one broadcast
    parameterizes every slave identically — Section III-B), the slave's cell
    index, its grid view, and execution options.
    """

    config_json: str
    cell_index: int
    grid_payload: dict[str, Any]
    assigned_node: str
    exchange_mode: str = "neighbors"
    telemetry_level: str | None = None
    """Telemetry level the slave must adopt (``off``/``basic``/``trace``).
    Shipped in-band because remote socket workers do not inherit the
    master's ``REPRO_TELEMETRY`` environment; ``None`` leaves the worker's
    own setting untouched."""
    fault_at_iteration: int | None = None
    """Raise inside the execution thread at this iteration (fault-injection tests)."""
    fault_kill: bool = False
    """Harden the injected fault to ``os._exit`` — a real process death the
    transport must detect externally (process/socket backends only)."""
    fault_policy: str = "abort"
    """What the master does when a rank dies (``abort``/``degrade``/
    ``recover``); slaves need it to know whether fault notices may arrive."""
    snapshot_every: int = 0
    """Ship a :class:`~repro.coevolution.checkpoint.CellSnapshot` to the
    master every N completed iterations (0 = never; the default keeps the
    no-fault message flow byte-identical to the pre-recovery protocol)."""
    resume: Any = None
    """A :class:`~repro.parallel.recovery.ResumeDirective` when this task
    restarts a respawned worker from checkpointed state; ``None`` for the
    normal from-scratch start."""
    standby: bool = False
    """True when this task parks an elastically-joined rank with no cell of
    its own yet: the slave replays the resume directive's fault notices,
    joins the communicators, and serves the master — ready to adopt a cell
    when a later drain or death re-balances onto it."""


@dataclass(frozen=True)
class StatusRequest:
    """Master -> slave: one heartbeat ping; answered with a :class:`StatusReply`."""


@dataclass(frozen=True)
class StatusReply:
    """Slave -> master heartbeat answer: current state of the process."""

    rank: int
    state: str
    iteration: int
    timestamp: float


@dataclass(frozen=True)
class Abort:
    """Master -> slave: stop training and ship what you have."""


@dataclass(frozen=True)
class DrainAck:
    """Master -> draining slave: your cells have new owners, you may leave."""


@dataclass
class SlaveResult:
    """Slave -> master at the end of training (the gathered local results)."""

    rank: int
    cell_index: int
    generator_genome: Genome
    discriminator_genome: Genome
    mixture_weights: np.ndarray
    reports: list[CellReport] = field(default_factory=list)
    telemetry: Any = None
    """This rank's :class:`repro.telemetry.bus.TelemetrySnapshot` (or
    ``None`` when telemetry is off) — the in-band fallback for workers
    whose transport-level outcome does not reach the master process."""
    aborted: bool = False
    recovered: bool = False
    """True when this result was produced by fault recovery — an adopted
    cell on a surviving rank or a respawned worker resuming from its
    checkpoint — rather than by the cell's original uninterrupted run."""


@dataclass(frozen=True)
class ExchangePayload:
    """Slave <-> slave (LOCAL): one cell's center genomes for one iteration.

    ``epoch`` is the membership epoch current when the payload was built
    (lint rule R10: payload-bearing wire kinds carry an epoch tag).
    Receivers drop payloads older than the epoch in which the sending cell
    last changed hands — the fence that keeps a drained rank's in-flight
    frames from corrupting its adopter's generation.  Static-membership
    runs never bump the epoch, so it stays 0 end to end.

    Read-only once sent, and **shared**: a payload goes out as one group
    to all its consumers (:meth:`repro.mpi.comm.Comm.send_group`), so
    thread and co-hosted socket ranks receive this very object, and all the
    consumers hosted by another socket worker receive the one copy that
    worker decoded — their genome vectors are windows onto a single
    receive buffer.  Every receiving cell binds its sub-population slots
    straight onto those vectors for the length of an iteration (see
    :class:`~repro.coevolution.genome.Genome`) — nobody, sender included,
    may write them again.  Under ``recover`` the same genome objects also
    ride the :class:`~repro.coevolution.checkpoint.CellSnapshot` taken at
    the end of the previous iteration.
    """

    cell_index: int
    iteration: int
    generator_genome: Genome
    discriminator_genome: Genome
    epoch: int = 0
