"""Elastic membership: the master's one membership transition, and drains.

Death, drain, respawn and join are one event — *slot s changes owner at
epoch e, cells move by* :func:`~repro.parallel.recovery.plan_rebalance` —
and :class:`MembershipTable` is the one place that decides it.  The master
owns one table; :meth:`MembershipTable.depart` and
:meth:`MembershipTable.arrive` change it and return a :class:`Transition`
saying what to send, and ``MasterProcess._apply`` is the only code that
sends.  The table's **epoch** counter increases with every change and its
:class:`MembershipLog` records each one, so a churned run can be audited
after the fact.  Exchange payloads are stamped with the epoch current at
send time; receivers fence out frames from before the epoch in which a cell
last changed hands (see ``FaultState.min_epoch_for``), so a stale payload
from a drained rank's final iterations cannot corrupt its adopter's
generation.

The module also hosts the process-wide **drain registry**: the bridge
between asynchronous drain triggers (a SIGTERM handler, a ``DRAIN`` wire
frame from the coordinator) and the slave loops that must wind down at the
next iteration boundary.  A registry rather than per-object state because
the triggers fire in contexts (signal handlers, transport reader threads)
that have no handle on the :class:`~repro.parallel.slave.SlaveProcess`
instances hosted by the process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.coevolution.checkpoint import CellSnapshot
from repro.parallel.grid import Grid
from repro.parallel.recovery import (
    FaultNotice,
    FrozenCell,
    ResumeDirective,
    plan_rebalance,
    validate_fault_policy,
)

__all__ = [
    "MEMBERSHIP_KINDS",
    "MembershipEvent",
    "MembershipLog",
    "MembershipTable",
    "Transition",
    "DrainNotice",
    "request_drain",
    "drain_requested",
    "mark_drained",
    "was_drained",
    "reset_drain_registry",
]

#: Every way the member set can change.  ``launch`` is epoch 0 (the initial
#: roster); the rest bump the epoch by one each.
MEMBERSHIP_KINDS = ("launch", "death", "drain", "join", "respawn")


@dataclass(frozen=True)
class MembershipEvent:
    """One epoch transition: what changed, which ranks, which cells."""

    epoch: int
    kind: str
    ranks: tuple[int, ...]
    cells: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in MEMBERSHIP_KINDS:
            raise ValueError(
                f"unknown membership kind {self.kind!r}; "
                f"expected one of {MEMBERSHIP_KINDS}")


class MembershipLog:
    """Append-only record of every epoch transition in a run.

    Deliberately timestamp-free (rule R2): the log rides home inside the
    :class:`~repro.parallel.runner.DistributedResult` and must not make an
    otherwise-deterministic result object differ between runs.
    """

    def __init__(self, events: Iterable[MembershipEvent] = ()):
        self._events: list[MembershipEvent] = list(events)

    def record(self, event: MembershipEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> tuple[MembershipEvent, ...]:
        return tuple(self._events)

    def epochs(self) -> list[int]:
        return [event.epoch for event in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{e.epoch}:{e.kind}{list(e.ranks)}"
                         for e in self._events)
        return f"MembershipLog([{body}])"


@dataclass(frozen=True)
class Transition:
    """What one membership change asks the master to do — a value, no I/O.

    ``cells`` holds every cell that changed owner, as the peers must treat
    it from ``epoch`` on — one without an adopter is frozen, and becomes a
    placeholder result; ``notice`` wraps them for the wire (``None`` when
    no cell moved).  ``peers`` are the ranks still exchanging: they get the
    notice, or the abort when ``abort`` is set.  ``starts`` are the arriving
    ranks to send a run task: ``(rank, cell, directive)``, parked as standby
    when the directive carries no snapshot.  ``ranks`` are the slots that
    actually changed (none for a duplicate); ``ack`` is the drained rank to
    acknowledge.
    """

    kind: str
    ranks: tuple[int, ...]
    epoch: int
    cells: tuple[FrozenCell, ...] = ()
    notice: FaultNotice | None = None
    peers: tuple[int, ...] = ()
    starts: tuple[tuple[int, int, ResumeDirective], ...] = ()
    abort: bool = False
    ack: int | None = None


class MembershipTable:
    """The master's membership state, and the one transition that changes it.

    **A cell has exactly one owner per epoch, and only a transition changes
    it.**  An unfinished cell is owned by a live rank, kept for a rank whose
    replacement process is about to resume it, or frozen at its checkpoint
    (``degrade``, or ``recover`` with nobody left to adopt); a vacant slot
    owns nothing, and a standby rank owns nothing until a notice names it.

    :meth:`depart` (``death``/``drain``) and :meth:`arrive`
    (``respawn``/``join``) are pure functions of the table, the fault
    policy, the grid and the per-cell snapshots and rejoin iteration the
    caller passes in: they send nothing, read no clock and emit no
    telemetry.  Static-membership runs never call them, so the epoch stays 0
    for the whole run — every payload is stamped 0, every fence passes, and
    the message flow is byte-identical to a run without the table.
    """

    def __init__(self, grid: Grid, policy: str, iterations: int):
        self._lock = threading.Lock()
        self._grid = grid
        self._policy = validate_fault_policy(policy)
        self._iterations = iterations
        ranks = tuple(sorted(grid.slave_ranks()))
        self._epoch = 0
        self._log = MembershipLog()
        self._log.record(MembershipEvent(epoch=0, kind="launch", ranks=ranks))
        #: unfinished cell -> the live rank that owns it
        self._owner = {grid.cell_of_rank(rank): rank for rank in ranks}
        #: finished cell -> the owner whose result finished it
        self._finished: dict[int, int] = {}
        #: dead rank -> the cell kept for its replacement process
        self._held: dict[int, int] = {}
        #: frozen cell -> the departed rank that owned it
        self._degraded: dict[int, int] = {}
        self._vacant: set[int] = set()
        self._standby: set[int] = set()
        self._outcome: dict[str, set[int]] = {
            "death": set(), "drain": set(), "join": set(), "recovered": set()}
        self._ledger: list[FaultNotice] = []

    # -- queries -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    @property
    def log(self) -> MembershipLog:
        return self._log

    def vacant(self) -> frozenset[int]:
        """Departed slots not (yet) refilled."""
        with self._lock:
            return frozenset(self._vacant)

    def standby(self) -> tuple[int, ...]:
        """Joiners admitted with no cell of their own, still in the run."""
        with self._lock:
            return tuple(sorted(self._standby))

    def cells_of(self, rank: int) -> tuple[int, ...]:
        """The unfinished cells ``rank`` owns."""
        with self._lock:
            return self._cells_of(rank)

    def at_stake(self, ranks: Iterable[int]) -> tuple[int, ...]:
        """The cells a transition over ``ranks`` would move: what a member
        owns, what an arrival in a vacant slot would take back.  The caller
        supplies a snapshot for each."""
        with self._lock:
            cells: set[int] = set()
            for rank in ranks:
                cells.update(self._returning_to(rank) if rank in self._vacant
                             else self._cells_of(rank))
            return tuple(sorted(cells))

    def outcome(self, kind: str) -> list[int]:
        """Ranks by what became of them: ``death``, ``drain``, ``join``,
        ``recovered`` (a lost cell trained on elsewhere, or resumed) or
        ``degraded`` (a lost cell still frozen)."""
        with self._lock:
            if kind == "degraded":
                return sorted(set(self._degraded.values()))
            return sorted(self._outcome[kind])

    def finish(self, cell: int) -> None:
        """A cell's result arrived: it needs no owner any more."""
        with self._lock:
            if cell in self._owner:
                self._finished[cell] = self._owner.pop(cell)

    def moved(self, cell: int, rank: int) -> bool:
        """True once a transition took ``cell`` from ``rank``: froze it, or
        gave it to another rank (under ``abort`` nothing moves)."""
        with self._lock:
            owner = self._owner.get(cell, self._finished.get(cell, rank))
            return cell in self._degraded or owner != rank

    def idle(self, rank: int) -> bool:
        """True for a member with no unfinished cell left."""
        with self._lock:
            return rank not in self._vacant and not self._cells_of(rank)

    def _cells_of(self, rank: int) -> tuple[int, ...]:
        return tuple(sorted(c for c, r in self._owner.items() if r == rank))

    def _returning_to(self, rank: int) -> tuple[int, ...]:
        """The cell an arrival in ``rank``'s slot takes back, if any."""
        if rank in self._held:
            return (self._held[rank],)
        home = self._grid.cell_of_rank(rank)
        return (home,) if home in self._degraded else ()

    def _exchanging(self) -> set[int]:
        """Ranks that take part in the exchange: owners and standbys."""
        return set(self._owner.values()) | self._standby

    # -- the transition ------------------------------------------------------

    def depart(self, kind: str, ranks: Iterable[int], *,
               snapshots: Mapping[int, CellSnapshot], rejoin: int,
               held: Iterable[int] = ()) -> Transition:
        """``ranks`` left the run (``death``, or a planned ``drain``).

        Their unfinished cells go where the policy says: ``abort`` takes
        none (the run ends), ``degrade`` freezes them, ``recover`` hands
        them to the survivors and standbys by ``plan_rebalance`` and
        freezes what nobody can take.  ``held`` names the dead ranks whose
        replacement process already introduced itself: one cell is kept for
        each, and ``arrive("respawn", rank)`` must follow.  Ranks whose slot
        is already vacant are skipped; a drain is acknowledged either way.
        """
        if kind not in ("death", "drain"):
            raise ValueError(f"depart() takes death or drain, got {kind!r}")
        return self._transition(kind, ranks, snapshots, rejoin, set(held))

    def arrive(self, kind: str, rank: int, *,
               snapshots: Mapping[int, CellSnapshot],
               rejoin: int) -> Transition:
        """A process filled ``rank``'s vacant slot (``respawn`` or ``join``).

        It takes back the cell kept for it, or its home cell if that sits
        frozen (an epoch-newer notice re-animates it for the peers);
        otherwise it parks as standby, a candidate for the next
        re-balance.  A slot that is not vacant changes nothing.
        """
        if kind not in ("respawn", "join"):
            raise ValueError(f"arrive() takes respawn or join, got {kind!r}")
        return self._transition(kind, (rank,), snapshots, rejoin, set())

    def _transition(self, kind: str, ranks: Iterable[int],
                    snapshots: Mapping[int, CellSnapshot], rejoin: int,
                    held: set[int]) -> Transition:
        leaving = kind in ("death", "drain")
        asked = tuple(sorted(ranks))
        ack = asked[0] if kind == "drain" else None
        with self._lock:
            # Only an occupied slot can depart, only a vacant one be filled.
            ranks = tuple(r for r in asked if (r in self._vacant) != leaving)
            if not ranks:
                return Transition(kind, (), self._epoch, ack=ack)
            if kind != "respawn":
                self._outcome[kind].update(ranks)
            #: (rank the cell is attributed to, cell, new owner or None)
            moves: list[tuple[int, int, int | None]] = []
            kept: list[int] = []
            if leaving:
                self._vacant.update(ranks)
                self._standby.difference_update(ranks)
                orphans: list[tuple[int, int]] = []
                for rank in ranks:
                    owned = list(self._cells_of(rank))
                    for cell in owned:
                        del self._owner[cell]
                    if rank in held and owned:
                        self._held[rank] = owned.pop(0)
                        kept.append(self._held[rank])
                    orphans.extend((rank, cell) for cell in owned)
                plan: dict[int, int | None] = {}
                if self._policy == "recover" and orphans:
                    candidates: dict[int, set[int]] = {
                        rank: set() for rank in self._standby}
                    for cell, rank in self._owner.items():
                        candidates.setdefault(rank, set()).add(cell)
                    plan = plan_rebalance([cell for _rank, cell in orphans],
                                          candidates, grid=self._grid,
                                          excluded=self._vacant)
                moves = [(rank, cell, plan.get(cell))
                         for rank, cell in orphans]
            else:
                (rank,) = ranks
                moves = [(rank, cell, rank)
                         for cell in self._returning_to(rank)]
                self._vacant.discard(rank)
                self._held.pop(rank, None)
                if not moves:
                    self._standby.add(rank)

            self._epoch += 1
            epoch = self._epoch
            self._log.record(MembershipEvent(
                epoch=epoch, kind=kind, ranks=ranks,
                cells=tuple(sorted(kept + [cell for _r, cell, _o in moves]))))
            if leaving and self._policy == "abort":
                return Transition(kind, ranks, epoch, abort=bool(moves),
                                  peers=tuple(sorted(self._exchanging())),
                                  ack=ack)

            frozen: list[FrozenCell] = []
            for source, cell, owner in moves:
                if owner is None:
                    self._degraded[cell] = source
                else:
                    self._degraded.pop(cell, None)
                    self._owner[cell] = owner
                    if kind != "drain":  # a drain is not a fault
                        self._outcome["recovered"].add(source)
                frozen.append(FrozenCell.from_snapshot(
                    snapshots[cell], adopter_rank=owner,
                    rejoin_iteration=(self._iterations if owner is None
                                      else rejoin),
                    epoch=epoch))
            notice = None
            if frozen:
                notice = FaultNotice(
                    policy=self._policy,
                    dead_ranks=(tuple(sorted({s for s, _c, _o in moves}))
                                if leaving else ()),
                    cells=tuple(frozen))
                self._ledger.append(notice)
            starts: tuple[tuple[int, int, ResumeDirective], ...] = ()
            if not leaving:
                (rank,) = ranks
                cell = moves[0][1] if moves else self._grid.cell_of_rank(rank)
                starts = ((rank, cell, ResumeDirective(
                    snapshot=snapshots[cell] if moves else None,
                    rejoin_iteration=rejoin if moves else 0,
                    notices=tuple(self._ledger))),)
            return Transition(
                kind, ranks, epoch, cells=tuple(frozen), notice=notice,
                peers=tuple(sorted(self._exchanging() - set(ranks))),
                starts=starts, ack=ack)


@dataclass(frozen=True)
class DrainNotice:
    """Leaving slave -> master: my final checkpoints, hand these cells off."""

    rank: int
    snapshots: tuple[CellSnapshot, ...] = field(default_factory=tuple)

    @property
    def cells(self) -> tuple[int, ...]:
        return tuple(snap.cell_index for snap in self.snapshots)


# --------------------------------------------------------------------------
# Drain registry: the asynchronous drain trigger, visible process-wide.
# --------------------------------------------------------------------------

_drain_lock = threading.Lock()
_drain_requested: set[int] = set()
_drained: set[int] = set()


def request_drain(rank: int) -> None:
    """Ask the named rank (hosted in this process) to drain gracefully.

    Callable from signal handlers and transport reader threads alike: a
    set-add under a lock, no allocation-heavy work.
    """
    with _drain_lock:
        _drain_requested.add(rank)


def drain_requested(rank: int) -> bool:
    with _drain_lock:
        return rank in _drain_requested


def mark_drained(rank: int) -> None:
    """Record that the rank finished its drain protocol."""
    with _drain_lock:
        _drained.add(rank)


def was_drained(rank: int) -> bool:
    with _drain_lock:
        return rank in _drained


def reset_drain_registry() -> None:
    """Clear the registry (tests, and worker processes reusing a PID)."""
    with _drain_lock:
        _drain_requested.clear()
        _drained.clear()
