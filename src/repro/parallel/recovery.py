"""Fault recovery for distributed training: policies, migration, rejoin.

The paper's heartbeat thread (Section III-B, Fig. 3) only *detects* slave
failure; the master then aborts the survivors.  This module holds what turns
detection into recovery: the notice types the master's membership
transition (:class:`~repro.parallel.elastic.MembershipTable`) emits, the
slave-side :class:`FaultState` that applies them, and the two pure planning
functions the transition calls.  Three policies:

* ``abort`` — the paper-faithful default: survivors are aborted gracefully
  and the run reports its dead ranks.
* ``degrade`` — the dead rank's cells are frozen at their latest
  checkpoint: neighbors keep exchanging against the frozen center genomes
  and the run completes with ``degraded_ranks`` populated.
* ``recover`` — the dead rank's cells *migrate*: either a freshly
  respawned replacement worker (socket backend, up to ``--max-restarts``)
  resumes them from checkpoint, or a surviving slave adopts them into its
  block (the cells it trains in one loop — see
  :mod:`repro.parallel.slave`) and rejoins the synchronous exchange.

The rejoin protocol (why it cannot deadlock)
--------------------------------------------

Every rank runs one exchange round per iteration for its whole block, and
a round sends the payload of every hosted cell before any hosted cell
receives.  So no receive ever waits on a send of the same round that sits
behind it — not another rank's, and not a co-hosted cell's, whose payload
the adopter delivers to itself through the ordinary send path.  A block of
any size therefore exchanges exactly like a block of one.

Only *direct* neighbors of a dead cell ``c`` ever send to it
(:meth:`Grid.incoming_neighbors`).  When ``c`` stops answering, its direct
neighbors block inside their exchange at most one iteration past ``c``'s
last send — so when the master's :class:`FaultNotice` reaches them they
are still *before* the rejoin iteration ``R``.  From the notice on:

* exchange receives *from* ``c`` at iterations ``< R`` are satisfied
  locally from the frozen checkpoint genomes (no message needed);
* sends *to* ``c`` at iterations ``< R`` are skipped — nobody listens;
* from iteration ``R`` the adopter speaks for ``c``: it sends ``c``'s
  center to ``c``'s consumers and receives from ``c``'s neighbors, with
  the routing override mapping cell ``c`` to the adopting rank.

The adopted cell is admitted at an iteration boundary of its adopter's
block and catches up from its checkpoint without communicating (every
neighbor slot is its own center, except torus self-edges), then exchanges
synchronously from ``R``.  ``R`` is chosen past every live cell's known
iteration plus the torus diameter — which is why admitting a cell whose
``R`` the block has already passed is a protocol violation; because
payloads sent to the dead rank before the notice are lost, the adopter's
first synchronized iterations additionally carry a bounded resync timeout
(:data:`RESYNC_TIMEOUT_S`) instead of blocking forever on a payload that
can no longer arrive.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.coevolution.checkpoint import CellSnapshot
from repro.parallel.messages import ExchangePayload

__all__ = [
    "FAULT_POLICIES",
    "validate_fault_policy",
    "FrozenCell",
    "FaultNotice",
    "ResumeDirective",
    "FaultState",
    "plan_rebalance",
    "rejoin_iteration",
    "RESYNC_WINDOW",
    "RESYNC_TIMEOUT_S",
]

FAULT_POLICIES = ("abort", "degrade", "recover")

#: Iterations past the rejoin point during which an adopted cell's exchange
#: receives time out to the own-center fallback instead of blocking forever —
#: covers payloads its predecessor received-but-lost around the death window.
RESYNC_WINDOW = 32

#: Per-iteration budget of that bounded wait (seconds).
RESYNC_TIMEOUT_S = 5.0


def validate_fault_policy(policy: str) -> str:
    if policy not in FAULT_POLICIES:
        raise ValueError(
            f"unknown fault policy {policy!r}; expected one of {FAULT_POLICIES}")
    return policy


@dataclass(frozen=True)
class FrozenCell:
    """One dead cell as the survivors must treat it from now on.

    ``adopter_rank`` is the WORLD rank now speaking for the cell (``None``
    under ``degrade`` — frozen for the rest of the run).  Exchange receives
    from this cell at iterations ``< rejoin_iteration`` are satisfied from
    the frozen genomes; sends to it before then are skipped.
    """

    cell_index: int
    iteration: int
    generator_genome: object
    discriminator_genome: object
    mixture_weights: object
    adopter_rank: int | None
    rejoin_iteration: int
    epoch: int = 0
    """Membership epoch at which this hand-off happened.  A later notice
    for the same cell with a higher epoch *replaces* this entry (a frozen
    cell reclaimed by a joiner, an adopted cell re-adopted after a second
    death); exchange payloads stamped with an older epoch are fenced out."""

    @classmethod
    def from_snapshot(cls, snapshot: CellSnapshot, *, adopter_rank: int | None,
                      rejoin_iteration: int, epoch: int) -> "FrozenCell":
        """The hand-off record of ``snapshot``'s cell at ``epoch``."""
        return cls(
            cell_index=snapshot.cell_index,
            iteration=snapshot.iteration,
            generator_genome=snapshot.generator_genome,
            discriminator_genome=snapshot.discriminator_genome,
            mixture_weights=snapshot.mixture_weights,
            adopter_rank=adopter_rank,
            rejoin_iteration=rejoin_iteration,
            epoch=epoch,
        )

    def snapshot(self) -> CellSnapshot:
        return CellSnapshot(
            cell_index=self.cell_index,
            iteration=self.iteration,
            generator_genome=self.generator_genome,
            discriminator_genome=self.discriminator_genome,
            mixture_weights=self.mixture_weights,
        )


@dataclass(frozen=True)
class FaultNotice:
    """Master -> surviving slaves: ranks died, here is the new world order."""

    policy: str
    dead_ranks: tuple[int, ...]
    cells: tuple[FrozenCell, ...]


@dataclass(frozen=True)
class ResumeDirective:
    """Master -> respawned worker: resume your cell from this state.

    ``notices`` replays every fault the run has seen so far, so the reborn
    rank's exchange treats earlier dead cells exactly like the survivors do.
    ``snapshot`` is ``None`` for a standby joiner — a rank admitted with no
    cell to resume, parked until a re-balance assigns it one.
    """

    snapshot: CellSnapshot | None
    rejoin_iteration: int
    notices: tuple[FaultNotice, ...] = ()


class FaultState:
    """A slave's thread-safe view of every dead cell in the run.

    The main (communication) thread applies :class:`FaultNotice` messages;
    the execution thread consults it on every exchange round — including
    mid-wait, so a notice that arrives while a receive is blocked on a dead
    neighbor unblocks it on the next poll.
    """

    def __init__(self, first_slave_rank: int = 1):
        self._lock = threading.Lock()
        self._frozen: dict[int, FrozenCell] = {}
        self._first_slave_rank = first_slave_rank

    def apply(self, notice: FaultNotice) -> list[FrozenCell]:
        """Record a notice; returns only the cells not seen before.

        A cell already known is replaced (and returned as fresh) when the
        notice carries a strictly newer epoch — the elastic case of a
        frozen cell reclaimed by a joiner, or an adopted cell changing
        hands again.  Same-epoch duplicates stay idempotent.
        """
        fresh: list[FrozenCell] = []
        with self._lock:
            for cell in notice.cells:
                existing = self._frozen.get(cell.cell_index)
                if existing is None or cell.epoch > existing.epoch:
                    self._frozen[cell.cell_index] = cell
                    fresh.append(cell)
        return fresh

    def current_epoch(self) -> int:
        """Highest membership epoch this slave has seen (0 = static run)."""
        with self._lock:
            if not self._frozen:
                return 0
            return max(cell.epoch for cell in self._frozen.values())

    def min_epoch_for(self, cell_index: int) -> int:
        """Epoch fence for receives attributed to ``cell_index``.

        Payloads stamped with an older epoch predate the cell's last
        hand-off — they are the leaving rank's final in-flight frames and
        must be dropped, not delivered to the new owner's neighbors.
        """
        with self._lock:
            frozen = self._frozen.get(cell_index)
        return 0 if frozen is None else frozen.epoch

    def frozen_cells(self) -> list[FrozenCell]:
        with self._lock:
            return list(self._frozen.values())

    def frozen_payload(self, cell_index: int, iteration: int) -> ExchangePayload | None:
        """The locally-satisfiable payload for a dead neighbor, if any."""
        with self._lock:
            frozen = self._frozen.get(cell_index)
        if frozen is None or iteration >= frozen.rejoin_iteration:
            return None
        return ExchangePayload(
            cell_index=cell_index,
            iteration=iteration,
            generator_genome=frozen.generator_genome,
            discriminator_genome=frozen.discriminator_genome,
            epoch=frozen.epoch,
        )

    def skip_send(self, cell_index: int, iteration: int) -> bool:
        """True when nobody will ever receive a send to this cell now."""
        with self._lock:
            frozen = self._frozen.get(cell_index)
        if frozen is None:
            return False
        return frozen.adopter_rank is None or iteration < frozen.rejoin_iteration

    def send_route(self, cell_index: int) -> int | None:
        """LOCAL-rank override for sends to an adopted cell (else ``None``)."""
        with self._lock:
            frozen = self._frozen.get(cell_index)
        if frozen is None or frozen.adopter_rank is None:
            return None
        return frozen.adopter_rank - self._first_slave_rank


def plan_rebalance(orphans: Iterable[int],
                   candidates: Mapping[int, Iterable[int]],
                   grid=None,
                   excluded: Iterable[int] = ()) -> dict[int, int | None]:
    """Deterministically assign orphaned cells to surviving/standby ranks.

    ``candidates`` maps each eligible rank to the cells it currently hosts
    (standby joiners appear with an empty set).  For every orphan — visited
    in sorted order, so the plan is a pure function of its inputs — the
    best candidate minimizes ``(-locality, load, rank)``:

    * *locality* counts the candidate's hosted cells adjacent to the orphan
      on the torus (both exchange directions), so a migrated cell lands
      next to the neighbors it already talks to where possible;
    * *load* is the candidate's cell count including earlier assignments
      from this same plan, so one re-balance spreads a storm of orphans
      instead of piling them on a single rank;
    * lowest rank breaks remaining ties.

    With ``grid=None`` (or a grid too small for locality to differentiate,
    e.g. 2x2 where every cell neighbors every other) the scoring is
    least-loaded, lowest rank.  Orphans nobody can take map to ``None``.
    """
    banned = set(excluded)
    loads: dict[int, int] = {}
    hosted: dict[int, set[int]] = {}
    for rank, cells in candidates.items():
        if rank in banned:
            continue
        cell_set = set(cells)
        hosted[rank] = cell_set
        loads[rank] = len(cell_set)

    plan: dict[int, int | None] = {}
    for orphan in sorted(set(orphans)):
        neighborhood: set[int] = set()
        if grid is not None:
            neighborhood.update(grid.neighbor_cells(orphan))
            neighborhood.update(grid.incoming_neighbors(orphan))
            neighborhood.discard(orphan)
        best = None
        for rank in sorted(hosted):
            # An idle candidate (load 0) is eligible: the caller controls
            # eligibility through the candidates mapping.
            locality = len(hosted[rank] & neighborhood)
            key = (-locality, loads[rank], rank)
            if best is None or key < best[0]:
                best = (key, rank)
        if best is None:
            plan[orphan] = None
            continue
        rank = best[1]
        plan[orphan] = rank
        hosted[rank].add(orphan)
        loads[rank] += 1
    return plan


def rejoin_iteration(known_iterations: Iterable[int], grid_diameter: int,
                     total_iterations: int) -> int:
    """First iteration at which a recovered cell exchanges synchronously.

    Past every iteration any cell is known to have reached, plus the torus
    diameter (synchronous exchange bounds inter-cell drift by graph
    distance) and a safety margin for heartbeat staleness.  Clamped to the
    run length: a rejoin at ``total_iterations`` means the recovered cell
    trains to completion without re-entering the synchronous exchange.
    """
    horizon = max(list(known_iterations) or [0])
    return min(total_iterations, horizon + grid_diameter + 8)
