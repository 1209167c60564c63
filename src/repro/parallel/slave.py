"""The slave process (paper Section III-B, Figs. 2 and 3).

Two threads, exactly as the paper describes:

* the **main thread** is the communication interface to the master.  It
  blocks in one receive on the rank's inbox and dispatches on the message
  type: it answers status (heartbeat) requests with the block's current
  iteration, raises the abort order, and queues the cells a fault notice
  hands to this rank.  It reads the drain registry at every wake — the
  master's status requests bound that wait by the heartbeat interval —
  and never polls: the execution thread's exit wakes it with a message the
  rank sends to itself;
* the **execution thread** performs the GAN training of the rank's
  **block**: the ``{cell index: Cell}`` map the rank hosts, stepped by one
  loop with one iteration counter.  A rank launches with the block its run
  task names (:attr:`Grid.blocks <repro.parallel.grid.Grid.blocks>`: one
  cell per rank on the process and threaded backends, a worker's whole
  share of the grid on the socket backend); recovery grows the block,
  never the thread count.  A standby's execution thread blocks on its
  admission queue until a cell arrives or the main thread wakes it to
  leave.

**One admission.**  A cell enters the block in one of four ways — a
launch cell (fresh, from iteration 0), a respawn's resume directive, a
fault-notice adoption, a standby's reclaim or adoption — and all four go
through the same step at an iteration boundary: restore the cell from its
snapshot, then run it communication-free from the snapshot iteration up to
the block's iteration (see :mod:`repro.parallel.recovery`).  An empty block
(standby, respawn) takes the admitted cell's iteration; a cell admitted
ahead of the block waits until the block reaches it.  Every hosted cell
shares the block's counter, so the heartbeat reply, the drain checkpoint,
fault injection and abort all read one number.

**One round.**  Per iteration every stepping cell lets go of last round's
neighbor payloads (:meth:`~repro.coevolution.cell.Cell.release_neighbors`),
the block builds every stepping cell's payload (its center, lent by
reference: :meth:`~repro.coevolution.cell.Cell.lend_center`), exchanges
them in one :meth:`CommManager.exchange_round` (send all, then receive per
cell; a neighbour in the block takes the payload object itself), and
steps the cells in index order through
:func:`repro.coevolution.cell.step_block` — the function the sequential
trainer steps its whole grid with.  All of them train on the execution
thread's one trainee pair (:func:`repro.gan.pair.thread_trainee`).

Both threads put their protocol steps (the boxes of Fig. 3) on the rank's
telemetry timeline with ``telemetry.mark``.

Lifecycle (Fig. 2): the slave starts ``inactive``, becomes ``processing``
when the *run task* message arrives, and ``finished`` after the last
iteration, at which point it ships one result per hosted cell to the
master — its center by reference, retired
(:meth:`~repro.coevolution.cell.Cell.export_center`), since the cell
trains no more.  The checkpoints the master keeps under ``recover`` are
copies.

The cell step itself runs on the kernels of :mod:`repro.nn.kernels`, so the
slave's ``train`` profile row measures the same code as the sequential
baseline — the speedup columns of Table IV stay apples to apples.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from dataclasses import dataclass

from repro.config import ExperimentConfig
from repro.coevolution.cell import Cell, step_block
from repro.coevolution.checkpoint import CellSnapshot
from repro.data.dataset import ArrayDataset
from repro.parallel import elastic
from repro.parallel.comm_manager import CommManager, ExchangeAborted
from repro.parallel.grid import Grid
from repro.parallel.messages import (
    Abort,
    DrainAck,
    ExchangePayload,
    NodeInfo,
    RunTask,
    SlaveResult,
    StatusReply,
    StatusRequest,
)
from repro.parallel.recovery import RESYNC_WINDOW, FaultNotice, FaultState
from repro.parallel.states import SlaveStateMachine
from repro.telemetry import bus as telemetry

__all__ = ["SlaveProcess", "InjectedFault"]

#: How long a draining slave waits for the master's ack before exiting
#: anyway — the master may itself be tearing down.
DRAIN_ACK_TIMEOUT_S = 30.0


class InjectedFault(RuntimeError):
    """Deliberate crash requested by a fault-injection run task."""


@dataclass(frozen=True)
class ExecutionEnded:
    """The execution thread's last message, sent to its own rank: it wakes
    the main thread, blocked in its receive, to wind the rank up."""


class SlaveProcess:
    """One slave rank; drive with :meth:`run`."""

    def __init__(self, comm: CommManager, dataset: ArrayDataset):
        self.comm = comm
        self.dataset = dataset
        self.machine = SlaveStateMachine()
        self.abort_event = threading.Event()
        self.fault_state = FaultState()
        # Set from the drain registry by the main thread; the execution
        # thread stops at its next iteration boundary.
        self._drain = threading.Event()
        #: The block's iteration — the one counter every hosted cell shares.
        self._iteration = 0
        self._iteration_lock = threading.Lock()
        self._execution_error: BaseException | None = None
        #: ``(cell index, snapshot or None for a fresh cell, rejoin
        #: iteration)``: queued by the main thread, admitted by the
        #: execution thread at its next iteration boundary.  ``None`` is the
        #: main thread's wake for a standby blocked on an empty queue.
        self._admissions: queue.SimpleQueue = queue.SimpleQueue()
        # The block, owned by the execution thread (the main thread reads
        # it only once that thread has ended): hosted cells and each one's
        # rejoin iteration.
        self._block: dict[int, Cell] = {}
        self._rejoin: dict[int, int] = {}
        self._task: RunTask | None = None
        self._config: ExperimentConfig | None = None
        self._grid: Grid | None = None
        #: What was shipped for the task's own block (:meth:`run`'s value).
        self._results: list[SlaveResult] = []

    # -- public entry point -------------------------------------------------------

    def run(self) -> list[SlaveResult]:
        """Full slave lifecycle; returns the results it sent the master for
        the task's own block, in cell order.

        A standby rank (an elastic joiner admitted with no cell of its own)
        starts with an empty block: it serves the master, admits a cell
        when a :class:`FaultNotice` names it, and leaves on the master's
        end-of-run abort or a drain.  Returns nothing for a standby, or for
        a drained rank whose cells left through a
        :class:`~repro.parallel.elastic.DrainNotice`.
        """
        comm = self.comm
        # 1. Introduce ourselves (Fig. 3: "Send node name to master").
        comm.send(0, NodeInfo(comm.rank, socket.gethostname()))
        # 2. Wait for the workload (state: inactive).  Whatever comes first
        # is for an earlier incarnation of this rank — a heartbeat ping,
        # or the abort its death was answered with — and the run task's
        # resume directive replays every notice so far: skip it.
        task = comm.receive()
        while not isinstance(task, RunTask):
            task = comm.receive()
        if task.telemetry_level is not None:
            # In-band level propagation: remote socket workers never saw
            # the master's REPRO_TELEMETRY environment.
            telemetry.set_level(task.telemetry_level)
        telemetry.mark("run task received", f"cells {list(task.cells)}")
        self.machine.start_processing()
        # 3. Attach to LOCAL — on its own, with no collective, so a rank
        # launched with the job and one born mid-run (respawned, or joined)
        # do the same thing.  A rank born mid-run also replays the run's
        # fault history so its view of frozen cells matches the survivors'.
        comm.build_contexts(is_active_slave=True)
        if task.resume is not None:
            for notice in task.resume.notices:
                self.fault_state.apply(notice)
        self._task = task
        self._config = ExperimentConfig.from_json(task.config_json)
        self._grid = Grid.from_payload(task.grid_payload)
        # 4. Queue the task's block and launch the execution thread (Fig. 3:
        # "Create execution thread") — the only one, whatever the block grows to.
        if task.standby:
            telemetry.mark("standby", "parked, ready to adopt")
        elif task.resume is None:
            for cell in task.cells:
                self._admissions.put((cell, None, 0))
        else:
            for snapshot in task.resume.snapshots:
                self._admissions.put((snapshot.cell_index, snapshot,
                                      task.resume.rejoin_iteration))
        execution = threading.Thread(target=self._train_block,
                                     name=f"slave-{comm.rank}-exec", daemon=True)
        execution.start()
        # 5. Main thread: the master's communication interface, for as long
        # as the block trains.
        while self._serve(comm.receive()):
            pass
        execution.join()
        if self._execution_error is not None:
            raise self._execution_error
        if self._drain.is_set():
            # Planned departure: hand the unfinished cells to the master.
            self._drain_and_exit()
            return self._results
        # 6. Finished: every hosted cell has shipped its result (Fig. 3:
        # "Send results to master").
        self.machine.finish()
        return self._results

    # -- main-thread duties -----------------------------------------------------------

    def _serve(self, message) -> bool:
        """Dispatch one message of the rank's inbox; False once the
        execution thread has ended."""
        if isinstance(message, ExecutionEnded):
            return False
        if not self._drain.is_set() and elastic.drain_requested(self.comm.rank):
            # Set by the transport (DRAIN wire frame, `repro drain`) or by a
            # signal handler (SIGTERM on `repro worker`); the execution
            # thread observes the event at its next iteration boundary.
            self._drain.set()
            self._admissions.put(None)
            telemetry.mark("drain requested")
        if isinstance(message, StatusRequest):
            with self._iteration_lock:
                iteration = self._iteration
            self.comm.send(0, StatusReply(
                rank=self.comm.rank,
                state=self.machine.state.value,
                iteration=iteration,
            ))
        elif isinstance(message, Abort):
            self.abort_event.set()
            self._admissions.put(None)
            telemetry.mark("abort received")
        elif isinstance(message, FaultNotice):
            self._apply_fault_notice(message)
        else:
            raise RuntimeError(f"rank {self.comm.rank}: unexpected message {message!r}")
        return True

    def _drain_and_exit(self) -> None:
        """The graceful-departure protocol (planned leave, not a fault).

        The execution thread stopped at an iteration boundary, so every cell
        still in the block is checkpointed exactly; an adoption it never
        got to admit leaves with the snapshot it came with.  The batch goes
        to the master as one :class:`DrainNotice`, then the rank keeps
        answering heartbeats until the master acknowledges the hand-off —
        the ack means the cells have new owners and this rank may vanish
        without being declared dead.
        """
        comm = self.comm
        snapshots = [cell.snapshot() for _index, cell in sorted(self._block.items())]
        while not self._admissions.empty():
            queued = self._admissions.get()
            if queued is not None:
                snapshots.append(queued[1])
        notice = elastic.DrainNotice(rank=comm.rank, snapshots=tuple(snapshots))
        comm.send(0, notice)
        telemetry.mark("drain notice sent", f"{len(snapshots)} cell(s)")
        deadline = time.monotonic() + DRAIN_ACK_TIMEOUT_S
        acked = False
        while not self.abort_event.is_set():
            message = comm.receive(timeout=max(0.0, deadline - time.monotonic()))
            if message is None:
                break
            if isinstance(message, DrainAck):
                acked = True
                break
            self._serve(message)
        elastic.mark_drained(comm.rank)
        self.machine.finish()
        telemetry.mark("drained", "acked" if acked else "ack timeout")

    def _apply_fault_notice(self, notice: FaultNotice) -> None:
        """Record dead cells; queue the ones assigned to this rank.

        Runs on the main thread.  The execution thread sees the frozen
        cells through :class:`FaultState` on its next exchange poll, and
        admits the adopted ones into its block at its next iteration
        boundary.
        """
        fresh = self.fault_state.apply(notice)
        if not fresh:
            return
        telemetry.mark(
            "fault notice received",
            f"cells {[fc.snapshot.cell_index for fc in fresh]} ({notice.policy})")
        for frozen in fresh:
            if frozen.adopter_rank == self.comm.rank:
                self._admissions.put((frozen.snapshot.cell_index, frozen.snapshot,
                                      frozen.rejoin_iteration))

    # -- execution thread ----------------------------------------------------------------

    def _train_block(self) -> None:
        """The execution thread: admit, exchange and step the block until
        nothing is left to train, shipping results as the block finishes;
        then wake the main thread."""
        # The execution thread is not the rank's endpoint thread, so it
        # must bind itself for its spans to land in this rank's buffer.
        telemetry.bind_rank(self.comm.rank)
        task, grid = self._task, self._grid
        total = self._config.coevolution.iterations
        telemetry.mark("assemble execution grid", f"{grid.rows}x{grid.cols}")
        telemetry.mark("start training")
        try:
            while True:
                self._admit_queued(wait=task.standby and not self._block)
                if not self._block:
                    # Nothing to train.  A standby stays, ready to adopt,
                    # until a drain or the master's abort releases it.
                    if task.standby and not (self._drain.is_set()
                                             or self.abort_event.is_set()):
                        continue
                    return
                iteration = self._iteration
                if iteration == total:
                    self._ship()
                    continue
                if self.abort_event.is_set():
                    raise ExchangeAborted(
                        f"rank {self.comm.rank}: abort before iteration {iteration}")
                if self._drain.is_set():
                    # Iteration boundary only — the cell states are
                    # consistent here, so the drain checkpoints are exact.
                    return
                if iteration == task.fault_at_iteration:
                    if task.fault_kill:
                        # A genuine process death: no exception, no result,
                        # no goodbye — the transport and the heartbeat layer
                        # must notice on their own.  Never reached on the
                        # threaded backend (the runner rejects the combination).
                        os._exit(86)
                    raise InjectedFault(
                        f"slave {self.comm.rank} crashing at iteration {iteration} as requested")
                self._round({index: cell for index, cell in self._block.items()
                             if cell.iteration == iteration}, iteration)
                with self._iteration_lock:
                    self._iteration = iteration + 1
        except ExchangeAborted:
            self._ship()
        except BaseException as exc:  # noqa: BLE001 - re-raised by the main thread
            self._execution_error = exc
        finally:
            self.comm.send(self.comm.rank, ExecutionEnded())

    def _admit_queued(self, *, wait: bool) -> None:
        """Admit every queued cell; with ``wait``, block for the first
        queue entry — an admission, or the main thread's wake."""
        while True:
            try:
                queued = self._admissions.get(block=wait)
            except queue.Empty:
                return
            wait = False
            if queued is not None:
                self._admit(*queued)

    def _admit(self, cell_index: int, snapshot: CellSnapshot | None, rejoin: int) -> None:
        """The one admission: restore the cell, then catch it up to the
        block communication-free (below ``rejoin`` no round of it talks)."""
        cell = Cell(self._config, cell_index, self.dataset,
                    neighborhood_size=self._grid.neighborhood_size(cell_index))
        if snapshot is not None:
            cell.restore(snapshot)
            telemetry.mark("admit cell", f"cell {cell_index} from iteration "
                                         f"{snapshot.iteration}, rejoin {rejoin}")
        if not self._block:
            with self._iteration_lock:
                self._iteration = cell.iteration
        elif self._iteration > rejoin:
            # rejoin_iteration's horizon (past every known iteration) rules
            # this out: the cell would have missed synchronized rounds.
            raise RuntimeError(
                f"cell {cell_index} admitted at block iteration {self._iteration}, "
                f"past its rejoin iteration {rejoin}")
        self._block[cell_index] = cell
        self._rejoin[cell_index] = rejoin
        while cell.iteration < self._iteration:
            self._round({cell_index: cell}, cell.iteration)

    def _round(self, cells: dict[int, Cell], iteration: int) -> None:
        """One synchronous iteration of ``cells`` (all at ``iteration``):
        exchange every payload in one round, step the cells in index order,
        stream the checkpoints that are due."""
        task, grid = self._task, self._grid
        epoch = self.fault_state.current_epoch()
        payloads = {}
        for index, cell in cells.items():
            # Last round's payloads go before this round's are made.
            cell.release_neighbors()
            # By reference: the cell trains in no slab a payload lies in
            # while a queued frame or a consumer can still reach it.
            g_genome, d_genome = cell.lend_center()
            payloads[index] = ExchangePayload(index, iteration, g_genome, d_genome,
                                              epoch=epoch)
        telemetry.mark("get results from neighbours", f"iteration {iteration}")
        received = self.comm.exchange_round(
            grid, payloads, task.exchange_mode, self.abort_event,
            fault_state=self.fault_state,
            catch_up=[index for index in cells if iteration < self._rejoin[index]],
            resync_until={index: self._rejoin[index] + RESYNC_WINDOW
                          for index in cells if self._rejoin[index]},
        )
        telemetry.mark("train one iteration", f"iteration {iteration}")
        step_block(cells, grid.neighbor_cells, {
            index: {neighbor: (p.generator_genome, p.discriminator_genome)
                    for neighbor, p in seen.items()}
            for index, seen in received.items()})
        done = iteration + 1
        if (task.snapshot_every and done % task.snapshot_every == 0
                and done < self._config.coevolution.iterations):
            for cell in cells.values():
                # A copy: the master keeps it while the cell trains on.
                self.comm.send(0, cell.snapshot())

    def _ship(self) -> None:
        """Send one result per hosted cell to the master; empty the block."""
        task = self._task
        telemetry.mark("send results to master")
        for index, cell in sorted(self._block.items()):
            result = SlaveResult(
                self.comm.rank, cell.snapshot(export=True), cell.reports,
                # Every cell but a launched rank's own came from a snapshot.
                recovered=task.resume is not None or index not in task.cells,
            )
            self.comm.send(0, result)
            if index in task.cells:
                self._results.append(result)
        self._block.clear()
        self._rejoin.clear()
