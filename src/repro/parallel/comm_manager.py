"""``CommManager``: every inter-process interaction behind one interface.

The paper replaces Lipizzaner's ``node-comm`` (a client/server layer where
every slave binds a port) with a ``comm-manager`` class that "implements all
communications and synchronization in an abstract way, using underlying MPI
functions".  :class:`CommManager` is that abstract interface;
:class:`MpiCommManager` is the MPI implementation over :mod:`repro.mpi`.

The communication contexts of Section III-D:

* **WORLD** — the control protocol: one stream of typed messages from the
  master to the slaves and one back (see :mod:`repro.parallel.messages`),
  moved by :meth:`CommManager.send` and :meth:`CommManager.receive`;
* **LOCAL** — only the active slaves; carries the per-iteration genome
  exchange (the profiled ``gather`` routine) without involving the master.
  Every slave attaches to it on its own (:meth:`CommManager.build_contexts`,
  no collective), so a rank launched with the job and one respawned or
  joined mid-run hold the same LOCAL.

The paper's **GLOBAL** (master + slaves, for the final collective
operations) has no communicator of its own: the typed WORLD streams carry
its role — results, snapshots and status reach the master as messages of
the one slave-to-master stream.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, Any, Collection, Mapping

from repro.analysis import lockcheck
from repro.mpi import ANY_SOURCE, MAX_USER_TAG, Comm, MpiTimeoutError
from repro.mpi.stats import payload_nbytes
from repro.parallel.grid import Grid
from repro.parallel.messages import ExchangePayload, Tags
from repro.telemetry import bus as telemetry

from repro.parallel.recovery import RESYNC_TIMEOUT_S

if TYPE_CHECKING:  # type-only: recovery types never constructed here
    from repro.parallel.recovery import FaultState

__all__ = ["CommManager", "MpiCommManager", "ExchangeAborted", "EXCHANGE_MODES",
           "exchange_tag", "check_exchange_tags"]

EXCHANGE_MODES = ("neighbors", "allgather")


def exchange_tag(grid: Grid, iteration: int, dest_cell: int) -> int:
    """Tag encoding (iteration, destination cell), injective for any grid.

    The iteration part keeps a fast neighbor's round-(k+1) message from
    matching a round-k receive; the destination part separates the cells
    of one block, so one cell's ``ANY_SOURCE`` receive never takes a
    message addressed to another.  The destination field is the grid's
    cell count wide, so :func:`check_exchange_tags` bounds the whole run.
    """
    return (int(Tags.EXCHANGE) * 1000 + iteration) * grid.cell_count + dest_cell


def check_exchange_tags(grid: Grid, iterations: int) -> None:
    """Refuse a run whose last exchange tag would pass ``MAX_USER_TAG``."""
    last = exchange_tag(grid, iterations - 1, grid.cell_count - 1)
    if last > MAX_USER_TAG:
        raise ValueError(
            f"{iterations} iterations of a {grid.cell_count}-cell grid need "
            f"exchange tags up to {last}, past MAX_USER_TAG ({MAX_USER_TAG})")


class ExchangeAborted(RuntimeError):
    """Raised inside the execution thread when the master aborted the job."""


class CommManager:
    """Abstract communication interface (transport-agnostic).

    The ``Grid`` never touches this class and this class never inspects
    grid internals beyond the public topology queries — the decoupling the
    paper calls out explicitly.
    """

    # -- identity ------------------------------------------------------------

    @property
    def rank(self) -> int:
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def is_master(self) -> bool:
        return self.rank == 0

    # -- communication contexts ---------------------------------------------------

    def build_contexts(self, is_active_slave: bool) -> None:
        """Attach to LOCAL (an active slave) or to nothing (the master);
        non-collective."""
        raise NotImplementedError

    # -- the control protocol -----------------------------------------------------

    def send(self, dest: int, message: Any) -> None:
        """Put one typed control message on ``dest``'s inbox: the master's
        when ``dest`` is 0, a slave's otherwise — a slave may address its
        own (the execution thread's exit wakes the main thread that way)."""
        raise NotImplementedError

    def receive(self, timeout: float | None = None) -> Any:
        """The next message of this rank's inbox, in arrival order; blocks
        for at most ``timeout`` seconds (``None``: until one arrives) and
        returns ``None`` when none did."""
        raise NotImplementedError

    # -- training-time exchange ------------------------------------------------------

    def exchange_round(self, grid: Grid, payloads: Mapping[int, ExchangePayload],
                       mode: str, abort_event: threading.Event | None = None,
                       fault_state: "FaultState | None" = None,
                       catch_up: Collection[int] = (),
                       resync_until: Mapping[int, int] | None = None,
                       ) -> dict[int, dict[int, ExchangePayload]]:
        """One iteration of neighbor exchange for the block of cells a rank
        hosts (cell -> its payload); returns cell -> (neighbor cell ->
        payload).

        * ``neighbors`` — point-to-point with the overlapping neighborhoods
          (synchronous: blocks for every neighbor, honoring an abort).
          Every cell's payload is sent before any cell receives — what
          keeps a multi-cell block deadlock-free (see
          :mod:`repro.parallel.recovery`).  A neighbor in the block takes
          this round's payload object itself: only the genomes of cells
          hosted elsewhere touch the transport.
        * ``allgather`` — collective over LOCAL, paper-style: every rank
          contributes its block's payloads as one list, receives every
          center and hands each cell its neighbors'.

        Recovery hooks (``neighbors`` mode only — the non-abort fault
        policies require it):
        ``fault_state`` satisfies receives from dead cells locally and
        reroutes sends to adopting ranks; cells in ``catch_up`` run the
        round communication-free (a recovered cell replaying iterations
        below its rejoin point); ``resync_until`` (cell -> iteration)
        bounds a cell's receive wait for its first synchronized iterations,
        whose peers' original payloads died with the old rank.
        """
        raise NotImplementedError

    def exchange_genomes(self, grid: Grid, cell_index: int, payload: ExchangePayload,
                         mode: str, abort_event: threading.Event | None = None,
                         ) -> dict[int, ExchangePayload]:
        """:meth:`exchange_round` for a block of one cell, without faults."""
        return self.exchange_round(grid, {cell_index: payload}, mode,
                                   abort_event)[cell_index]


class MpiCommManager(CommManager):
    """The MPI implementation used by both the master and the slaves."""

    def __init__(self, world: Comm):
        self.world = world
        self.local: Comm | None = None

    # -- identity -------------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.world.Get_rank()

    @property
    def size(self) -> int:
        return self.world.Get_size()

    # -- communication contexts -----------------------------------------------------

    def build_contexts(self, is_active_slave: bool) -> None:
        """LOCAL = the slaves, WORLD ranks 1..N in rank order; the master
        gets none.

        Non-collective: each slave attaches on its own, so launch waits on
        no peer, and a rank born mid-run (respawned or joined) attaches
        exactly as a launched one does.  The context is ``(0, 0, 1)``.
        """
        self.local = (self.world.Attach_derived((0, 1), range(1, self.size))
                      if is_active_slave else None)

    # -- the control protocol -----------------------------------------------------------
    #
    # One tag per direction, so a slave addressing itself lands on the
    # same stream as the master's orders.

    def send(self, dest: int, message: Any) -> None:
        if dest == 0:
            # The master keeps checkpoints, results and hand-offs past the
            # round: only copies and retired vectors may reach it.
            lockcheck.check_kept(message, f"rank {self.rank} -> master")
        tag = Tags.TO_MASTER if dest == 0 else Tags.TO_SLAVE
        self.world.send(message, dest=dest, tag=tag)

    def receive(self, timeout: float | None = None) -> Any:
        tag = Tags.TO_MASTER if self.is_master else Tags.TO_SLAVE
        try:
            return self.world.recv(source=ANY_SOURCE, tag=tag, timeout=timeout)
        except MpiTimeoutError:
            return None

    # -- training-time exchange -------------------------------------------------------------

    def exchange_round(self, grid: Grid, payloads: Mapping[int, ExchangePayload],
                       mode: str, abort_event: threading.Event | None = None,
                       fault_state: "FaultState | None" = None,
                       catch_up: Collection[int] = (),
                       resync_until: Mapping[int, int] | None = None,
                       ) -> dict[int, dict[int, ExchangePayload]]:
        if mode not in EXCHANGE_MODES:
            raise ValueError(f"unknown exchange mode {mode!r}; known: {EXCHANGE_MODES}")
        # One span per round, counted once per cell (the Table IV rule).
        with telemetry.span("exchange.gather", calls=len(payloads)):
            if mode == "allgather":
                return self._exchange_allgather(grid, payloads)
            # The cells that talk this round; a catch-up cell neither sends
            # nor receives.
            live = {cell_index: payload for cell_index, payload in payloads.items()
                    if cell_index not in catch_up}
            for cell_index, payload in live.items():
                self._send_to_consumers(grid, cell_index, payload, fault_state, live)
            resync_until = resync_until or {}
            return {
                cell_index: self._receive_neighbors(
                    grid, cell_index, payload, live, abort_event, fault_state,
                    cell_index in catch_up, resync_until.get(cell_index))
                for cell_index, payload in sorted(payloads.items())
            }

    def _count_exchange(self, payload: ExchangePayload, sends: int) -> None:
        """Mirror one exchange round into the bus (enabled-path only);
        ``sends`` counts destination hosts, the :mod:`repro.mpi.stats`
        rule for groups."""
        if sends and telemetry.enabled():
            telemetry.count("exchange.genomes_sent", sends)
            telemetry.count("exchange.bytes_sent",
                            sends * payload_nbytes(payload))

    def _send_to_consumers(self, grid: Grid, cell_index: int,
                           payload: ExchangePayload,
                           fault_state: "FaultState | None" = None,
                           live: Collection[int] = ()) -> None:
        """Send my center along every *incoming* edge (cells that list me
        as neighbor) that leaves this round's ``live`` cells, as one group:
        the transport moves it once per destination host, not once per
        edge."""
        assert self.local is not None, "build_contexts must run before exchanging"
        iteration = payload.iteration
        dests = []
        for consumer in grid.incoming_neighbors(cell_index):
            if consumer in live:
                continue  # takes this very payload in _receive_neighbors
            dest = grid.rank_of_cell(consumer)
            if fault_state is not None:
                if fault_state.skip_send(consumer, iteration):
                    continue
                route = fault_state.send_route(consumer)
                if route is not None:
                    dest = route  # the adopter: one more entry of the list
            # LOCAL is WORLD ranks 1..N in rank order (build_contexts).
            dests.append((dest - 1, exchange_tag(grid, iteration, consumer)))
        self._count_exchange(payload, self.local.send_group(payload, dests))

    def _receive_neighbors(self, grid: Grid, cell_index: int, payload: ExchangePayload,
                           live: Mapping[int, ExchangePayload],
                           abort_event: threading.Event | None,
                           fault_state: "FaultState | None",
                           catch_up: bool, resync_until: int | None,
                           ) -> dict[int, ExchangePayload]:
        """Receive one message per outgoing edge of ``cell_index`` that
        leaves this round's ``live`` cells; a live neighbor's payload is
        taken as it is."""
        assert self.local is not None
        iteration = payload.iteration
        needed = list(grid.neighbor_cells(cell_index))
        if catch_up:
            # Replaying below the rejoin point: nobody expects this cell's
            # payloads (they satisfy it from the frozen checkpoint) and
            # nobody resends what its predecessor received — the round is
            # communication-free; the step backfills every neighbor with
            # the own-center fallback.
            return {}
        # A neighbor live in this round takes its payload in place — the
        # cell itself too, on a torus self-edge (any grid dimension of 1):
        # sends skip live cells, so no message ever arrives for them.
        received = {cell: live[cell] for cell in needed if cell in live}
        tag = exchange_tag(grid, iteration, cell_index)
        outstanding = Counter(cell for cell in needed if cell not in received)
        deadline = (time.monotonic() + RESYNC_TIMEOUT_S
                    if resync_until is not None and iteration < resync_until
                    else None)
        while sum(outstanding.values()) > 0:
            if fault_state is not None:
                # Re-checked every poll: a fault notice that arrives while
                # this receive is blocked on a now-dead neighbor unblocks
                # it here.
                for cell in [c for c, n in outstanding.items() if n > 0]:
                    frozen = fault_state.frozen_payload(cell, iteration)
                    if frozen is not None:
                        received[cell] = frozen
                        outstanding[cell] = 0
                if sum(outstanding.values()) == 0:
                    break
            if abort_event is not None and abort_event.is_set():
                raise ExchangeAborted(f"cell {cell_index}: abort during exchange")
            if deadline is not None and time.monotonic() > deadline:
                # Resync window: the payloads this slot waits for may have
                # been sent to the rank that died — fall back to the
                # own-center alias instead of blocking forever.
                break
            try:
                message: ExchangePayload = self.local.recv(
                    source=ANY_SOURCE, tag=tag, timeout=0.25
                )
            except MpiTimeoutError:
                continue
            if fault_state is not None:
                # Epoch fence: a payload stamped before the epoch in which
                # its cell last changed hands is the leaving rank's final
                # in-flight frame — drop it, the cell's new owner re-sends
                # under the current epoch.  Static runs never bump epochs,
                # so every payload passes.
                min_epoch = fault_state.min_epoch_for(message.cell_index)
                if getattr(message, "epoch", 0) < min_epoch:
                    if telemetry.enabled():
                        telemetry.count("exchange.stale_dropped")
                    continue
            if outstanding.get(message.cell_index, 0) > 0:
                received[message.cell_index] = message
                outstanding[message.cell_index] -= 1
        return received

    def _exchange_allgather(self, grid: Grid, payloads: Mapping[int, ExchangePayload],
                            ) -> dict[int, dict[int, ExchangePayload]]:
        """One allgather of the block's payloads as one list; each cell then
        picks its neighbors from everything gathered."""
        assert self.local is not None
        for payload in payloads.values():
            self._count_exchange(payload, 1)
        gathered = self.local.allgather(list(payloads.values()))
        everything = {p.cell_index: p for block in gathered for p in block}
        return {cell_index: {n: everything[n] for n in grid.neighbor_cells(cell_index)}
                for cell_index in sorted(payloads)}
