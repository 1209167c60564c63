"""``CommManager``: every inter-process interaction behind one interface.

The paper replaces Lipizzaner's ``node-comm`` (a client/server layer where
every slave binds a port) with a ``comm-manager`` class that "implements all
communications and synchronization in an abstract way, using underlying MPI
functions".  :class:`CommManager` is that abstract interface;
:class:`MpiCommManager` is the MPI implementation over :mod:`repro.mpi`.

Three communication contexts, exactly as in Section III-D:

* **WORLD** — the control protocol: one stream of typed messages from the
  master to the slaves and one back (see :mod:`repro.parallel.messages`),
  moved by :meth:`CommManager.send` and :meth:`CommManager.receive`;
* **LOCAL** — only the active slaves; carries the per-iteration genome
  exchange (the profiled ``gather`` routine) without involving the master;
* **GLOBAL** — master + all slaves; final collective operations.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, Any, Collection, Mapping

from repro.mpi import ANY_SOURCE, Comm, MpiTimeoutError
from repro.mpi.stats import payload_nbytes
from repro.parallel.grid import Grid
from repro.parallel.messages import ExchangePayload, Tags
from repro.telemetry import bus as telemetry

from repro.parallel.recovery import RESYNC_TIMEOUT_S

if TYPE_CHECKING:  # type-only: recovery types never constructed here
    from repro.parallel.recovery import FaultState

__all__ = ["CommManager", "MpiCommManager", "ExchangeAborted", "EXCHANGE_MODES"]

EXCHANGE_MODES = ("neighbors", "allgather")


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
        """Collectively derive the LOCAL and GLOBAL communicators."""
        raise NotImplementedError

    def rejoin_contexts(self, is_active_slave: bool = True) -> None:
        """Re-derive LOCAL/GLOBAL *non-collectively* (respawned rank)."""
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
          :mod:`repro.parallel.recovery`).
        * ``allgather`` — collective over LOCAL, paper-style, for a block
          of one: every slave receives every center and keeps its
          neighbors'.

        Recovery hooks (``neighbors`` mode only — the non-abort fault
        policies require it, and only they grow a block past one cell):
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
                         fault_state: "FaultState | None" = None,
                         catch_up: bool = False,
                         resync_until: int | None = None,
                         ) -> dict[int, ExchangePayload]:
        """:meth:`exchange_round` for a block of one cell."""
        return self.exchange_round(
            grid, {cell_index: payload}, mode, abort_event, fault_state,
            catch_up=(cell_index,) if catch_up else (),
            resync_until=None if resync_until is None else {cell_index: resync_until},
        )[cell_index]


class MpiCommManager(CommManager):
    """The MPI implementation used by both the master and the slaves."""

    def __init__(self, world: Comm):
        self.world = world
        self.local: Comm | None = None
        self.global_: Comm | None = None

    # -- identity -------------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.world.Get_rank()

    @property
    def size(self) -> int:
        return self.world.Get_size()

    # -- communication contexts -----------------------------------------------------

    def build_contexts(self, is_active_slave: bool) -> None:
        """LOCAL = active slaves only; GLOBAL = everyone (a WORLD duplicate).

        Collective over WORLD — the master participates with ``color=None``
        in the LOCAL split (MPI_UNDEFINED), receiving no LOCAL communicator.
        """
        color = 1 if is_active_slave else None
        self.local = self.world.Split(color=color, key=self.rank)
        self.global_ = self.world.Dup()

    def rejoin_contexts(self, is_active_slave: bool = True) -> None:
        """Reconstruct LOCAL/GLOBAL without re-running the collectives.

        A respawned worker joins a job whose :meth:`build_contexts` already
        ran; the context tuples that derivation produced are deterministic
        (Split seq 0 with color 1 for LOCAL, Dup = Split seq 1 color 0 for
        GLOBAL, members ordered by rank), so the reborn rank re-attaches
        with :meth:`Comm.Attach_derived` and immediately speaks both
        contexts.
        """
        slaves = list(range(1, self.size))
        everyone = list(range(self.size))
        self.local = (self.world.Attach_derived((0, 1), slaves)
                      if is_active_slave else None)
        self.global_ = self.world.Attach_derived((1, 0), everyone)

    # -- the control protocol -----------------------------------------------------------
    #
    # One tag per direction, so a slave addressing itself lands on the
    # same stream as the master's orders.

    def send(self, dest: int, message: Any) -> None:
        tag = Tags.TO_MASTER if dest == 0 else Tags.TO_SLAVE
        self.world.send(message, dest=dest, tag=tag)

    def receive(self, timeout: float | None = None) -> Any:
        tag = Tags.TO_MASTER if self.is_master else Tags.TO_SLAVE
        try:
            return self.world.recv(source=ANY_SOURCE, tag=tag, timeout=timeout)
        except MpiTimeoutError:
            return None

    # -- training-time exchange -------------------------------------------------------------

    def _local_rank_of_cell(self, grid: Grid, cell: int) -> int:
        """LOCAL ranks follow WORLD order, so slave of cell i has LOCAL rank i."""
        assert self.local is not None, "build_contexts must run before exchanging"
        return cell  # slaves are WORLD ranks 1..N in cell order; LOCAL keeps order

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
                ((cell_index, payload),) = payloads.items()
                return {cell_index: self._exchange_allgather(grid, cell_index, payload)}
            for cell_index, payload in payloads.items():
                if cell_index not in catch_up:
                    self._send_to_consumers(grid, cell_index, payload, fault_state)
            resync_until = resync_until or {}
            return {
                cell_index: self._receive_neighbors(
                    grid, cell_index, payload, abort_event, fault_state,
                    cell_index in catch_up, resync_until.get(cell_index))
                for cell_index, payload in sorted(payloads.items())
            }

    @staticmethod
    def _exchange_tag(iteration: int, dest_cell: int) -> int:
        """Tag encoding (iteration, destination cell).

        The iteration part keeps a fast neighbor's round-(k+1) message from
        matching a round-k receive; the destination part separates the
        co-hosted cells of one block (fault recovery: an adopted cell joins
        its adopter's block), so one cell's ``ANY_SOURCE`` receive never
        takes a message addressed to another.  Stays far below
        ``MAX_USER_TAG`` (2**30) for any realistic grid/iteration count.
        """
        return (int(Tags.EXCHANGE) * 1000 + iteration) * 1024 + dest_cell

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
                           fault_state: "FaultState | None" = None) -> None:
        """Send my center along every *incoming* edge (cells that list me
        as neighbor) as one group: the transport moves it once per
        destination host, not once per edge."""
        assert self.local is not None
        iteration = payload.iteration
        dests = []
        for consumer in grid.incoming_neighbors(cell_index):
            dest = self._local_rank_of_cell(grid, consumer)
            if fault_state is not None:
                if fault_state.skip_send(consumer, iteration):
                    continue
                route = fault_state.send_route(consumer)
                if route is not None:
                    dest = route  # the adopter: one more entry of the list
            dests.append((dest, self._exchange_tag(iteration, consumer)))
        self._count_exchange(payload, self.local.send_group(payload, dests))

    def _receive_neighbors(self, grid: Grid, cell_index: int, payload: ExchangePayload,
                           abort_event: threading.Event | None,
                           fault_state: "FaultState | None",
                           catch_up: bool, resync_until: int | None,
                           ) -> dict[int, ExchangePayload]:
        """Receive one message per outgoing edge of ``cell_index``."""
        assert self.local is not None
        iteration = payload.iteration
        needed = list(grid.neighbor_cells(cell_index))
        received: dict[int, ExchangePayload] = {}
        # Torus self-edges (any grid dimension of 1: on 1x1 all four
        # neighbors wrap to the center) are satisfied locally — sends
        # follow incoming_neighbors, which excludes self, so no message
        # ever arrives for them; waiting on them deadlocked 1x1 runs.
        if cell_index in needed:
            received[cell_index] = payload
        if catch_up:
            # Replaying below the rejoin point: nobody expects this cell's
            # payloads (they satisfy it from the frozen checkpoint) and
            # nobody resends what its predecessor received — the round is
            # communication-free; the step backfills missing neighbors
            # with the own-center fallback.
            return received
        tag = self._exchange_tag(iteration, cell_index)
        outstanding = Counter(cell for cell in needed if cell != cell_index)
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

    def _exchange_allgather(self, grid: Grid, cell_index: int,
                            payload: ExchangePayload) -> dict[int, ExchangePayload]:
        assert self.local is not None
        self._count_exchange(payload, 1)
        everything: list[ExchangePayload] = self.local.allgather(payload)
        wanted = set(grid.neighbor_cells(cell_index))
        return {p.cell_index: p for p in everything if p.cell_index in wanted}
