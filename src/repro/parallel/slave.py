"""The slave process (paper Section III-B, Figs. 2 and 3).

Two threads, exactly as the paper describes:

* the **main thread** is the communication interface to the master — it
  answers status (heartbeat) requests with the slave's current state and
  watches for an abort order;
* the **execution thread** performs the GAN training: per iteration it
  exchanges center genomes with its neighbors through the comm-manager
  (the profiled ``gather``) and runs the cell step.

Both threads put their protocol steps (the boxes of Fig. 3) on the rank's
telemetry timeline with ``telemetry.mark``.

Lifecycle (Fig. 2): the slave starts ``inactive``, becomes ``processing``
when the *run task* message arrives, and ``finished`` after the last
iteration, at which point it ships its local results to the master.

The cell step itself runs on the kernels of :mod:`repro.nn.kernels`, so the
slave's ``train`` profile row measures the same code as the sequential
baseline — the speedup columns of Table IV stay apples to apples.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.config import ExperimentConfig
from repro.coevolution.cell import Cell
from repro.coevolution.checkpoint import CellSnapshot
from repro.coevolution.genome import Genome
from repro.data.dataset import ArrayDataset
from repro.parallel import elastic
from repro.parallel.comm_manager import CommManager, ExchangeAborted
from repro.parallel.grid import Grid
from repro.parallel.messages import ExchangePayload, NodeInfo, RunTask, SlaveResult, StatusReply
from repro.parallel.recovery import RESYNC_WINDOW, FaultState, FrozenCell
from repro.parallel.states import SlaveStateMachine
from repro.telemetry import bus as telemetry

__all__ = ["SlaveProcess", "InjectedFault", "DrainRequested"]

#: How long a draining slave waits for the master's ack before exiting
#: anyway — the master may itself be tearing down.
DRAIN_ACK_TIMEOUT_S = 30.0


class InjectedFault(RuntimeError):
    """Deliberate crash requested by a fault-injection run task."""


class DrainRequested(RuntimeError):
    """Raised inside an execution thread at an iteration boundary when the
    rank has been asked to leave gracefully.  Not an error: the main thread
    turns it into a :class:`~repro.parallel.elastic.DrainNotice` hand-off."""


class SlaveProcess:
    """One slave rank; drive with :meth:`run`."""

    def __init__(self, comm: CommManager, dataset: ArrayDataset,
                 poll_interval_s: float = 0.005):
        self.comm = comm
        self.dataset = dataset
        self.poll_interval_s = poll_interval_s
        self.machine = SlaveStateMachine()
        self.abort_event = threading.Event()
        self._iteration = 0
        self._iteration_lock = threading.Lock()
        self._execution_error: BaseException | None = None
        self.fault_state = FaultState()
        self._adopted_threads: list[threading.Thread] = []
        self._task: RunTask | None = None
        self._config: ExperimentConfig | None = None
        self._grid: Grid | None = None
        # Elastic drain bookkeeping: every hosted cell (own + adopted)
        # registers here so a graceful departure can checkpoint whatever is
        # still unfinished and hand it off through a DrainNotice.
        self._drain = threading.Event()
        self._cells: dict[int, Cell] = {}
        self._cell_iterations: dict[int, int] = {}
        self._completed_cells: set[int] = set()

    # -- public entry point -------------------------------------------------------

    def run(self) -> SlaveResult | None:
        """Full slave lifecycle; returns the result it also sent the master.

        A standby rank (an elastic joiner admitted with no cell of its own)
        is the same slave without an own-cell execution thread: it serves
        the master, adopts when a :class:`FaultNotice` names it, and leaves
        on the master's end-of-run abort or a drain.  Returns ``None`` on
        the elastic exits — a drained rank (its cells left through a
        :class:`~repro.parallel.elastic.DrainNotice`) and a released
        standby."""
        comm = self.comm
        # 1. Introduce ourselves (Fig. 3: "Send node name to master").
        comm.send_node_info(NodeInfo(comm.rank, socket.gethostname(), os.getpid()))
        # 2. Wait for the workload (state: inactive).
        task = comm.wait_for_run_task()
        if task.telemetry_level is not None:
            # In-band level propagation: remote socket workers never saw
            # the master's REPRO_TELEMETRY environment.
            telemetry.set_level(task.telemetry_level)
        telemetry.mark("run task received", f"cell {task.cell_index}")
        self.machine.start_processing()
        # 3. Join the LOCAL/GLOBAL communication contexts.  A rank born
        # mid-run (respawned, or joined) re-attaches non-collectively — its
        # peers built theirs before it existed and will not re-enter the
        # collective — and replays the run's fault history so its view of
        # frozen cells matches the survivors'.
        if task.resume is not None:
            comm.rejoin_contexts(is_active_slave=True)
            for notice in task.resume.notices:
                self.fault_state.apply(notice)
        else:
            comm.build_contexts(is_active_slave=True)
        config = ExperimentConfig.from_json(task.config_json)
        grid = Grid.from_payload(task.grid_payload)
        self._task, self._config, self._grid = task, config, grid
        # 4. Launch the execution thread (Fig. 3: "Create execution thread").
        result_box: dict[str, SlaveResult] = {}
        execution: threading.Thread | None = None
        if task.standby:
            telemetry.mark("standby", "parked, ready to adopt")
        else:
            execution = threading.Thread(
                target=self._execution_main,
                args=(task, config, grid, result_box),
                name=f"slave-{comm.rank}-exec",
                daemon=True,
            )
            execution.start()
        # 5. Main thread: the master's communication interface.  Keeps
        # serving while *any* hosted cell still trains — the slave may have
        # adopted a dead rank's cell into a second execution thread.
        result: SlaveResult | None = None
        while True:
            self._serve_master_once()
            if execution is not None and not execution.is_alive():
                execution.join()
                execution = None
                if self._execution_error is not None and not isinstance(
                        self._execution_error, (ExchangeAborted, DrainRequested)):
                    raise self._execution_error
                if isinstance(self._execution_error, DrainRequested):
                    # Planned departure: hand unfinished cells to the
                    # master instead of shipping a result.
                    self._drain_and_exit()
                    return None
                # Ship the own-cell result as soon as it exists — the
                # master should not wait for adopted cells to see it.
                result = result_box["result"]
                telemetry.mark("send results to master")
                if telemetry.tracing():
                    # Retake the in-band copy so it includes the send mark.
                    result.telemetry = telemetry.snapshot(comm.rank)
                comm.send_result(result)
            if execution is None and not any(
                    t.is_alive() for t in self._adopted_threads):
                # Nothing left to train.  A standby rank stays, ready to
                # adopt, until a drain or the master's abort releases it.
                if (not task.standby or self._drain.is_set()
                        or self.abort_event.is_set()):
                    break
            time.sleep(self.poll_interval_s)
        if self._drain.is_set():
            # Drain arrived after the own cell shipped (or on a standby):
            # hand off whatever adopted cells stopped unfinished.
            self._drain_and_exit()
            return result
        for thread in self._adopted_threads:
            thread.join()
        # 6. Finished: every hosted cell is done (Fig. 3: "Send results to
        # master" — adopted cells shipped theirs from their own threads).
        self.machine.finish()
        # Answer any still-in-flight status request so the heartbeat sees a
        # clean FINISHED before this rank exits.
        self._serve_master_once()
        return result

    # -- main-thread duties -----------------------------------------------------------

    def _serve_master_once(self) -> None:
        if self.comm.poll_abort():
            self.abort_event.set()
            telemetry.mark("abort received")
        if not self._drain.is_set() and elastic.drain_requested(self.comm.rank):
            # Set by the transport (DRAIN wire frame, `repro drain`) or by a
            # signal handler (SIGTERM on `repro worker`); the execution
            # threads observe the event at their next iteration boundary.
            self._drain.set()
            telemetry.mark("drain requested")
        while True:
            notice = self.comm.poll_fault_notice()
            if notice is None:
                break
            self._apply_fault_notice(notice)
        while self.comm.poll_status_request():
            with self._iteration_lock:
                iteration = self._iteration
            self.comm.reply_status(
                StatusReply(
                    rank=self.comm.rank,
                    state=self.machine.state.value,
                    iteration=iteration,
                    timestamp=time.time(),
                )
            )

    def _drain_and_exit(self) -> None:
        """The graceful-departure protocol (planned leave, not a fault).

        Joins the execution threads (they stopped at an iteration
        boundary), checkpoints every hosted cell that has not finished,
        ships the batch to the master as a :class:`DrainNotice`, then keeps
        answering heartbeats until the master acknowledges the hand-off —
        the ack means the cells have new owners and this rank may vanish
        without being declared dead.
        """
        comm = self.comm
        for thread in self._adopted_threads:
            thread.join()
        snapshots = []
        for cell_index, cell in sorted(self._cells.items()):
            if cell_index in self._completed_cells:
                continue
            g_genome, d_genome = cell.center_genomes()
            snapshots.append(CellSnapshot(
                cell_index=cell_index,
                iteration=self._cell_iterations.get(cell_index, 0),
                generator_genome=g_genome,
                discriminator_genome=d_genome,
                mixture_weights=cell.mixture.weights.copy(),
            ))
        notice = elastic.DrainNotice(rank=comm.rank, snapshots=tuple(snapshots))
        comm.send_drain_notice(notice)
        telemetry.mark("drain notice sent", f"{len(snapshots)} cell(s)")
        deadline = time.monotonic() + DRAIN_ACK_TIMEOUT_S
        acked = False
        while time.monotonic() < deadline:
            self._serve_master_once()
            if comm.poll_drain_ack():
                acked = True
                break
            if self.abort_event.is_set():
                break
            time.sleep(self.poll_interval_s)
        elastic.mark_drained(comm.rank)
        self.machine.finish()
        self._serve_master_once()
        telemetry.mark("drained", "acked" if acked else "ack timeout")

    def _apply_fault_notice(self, notice) -> None:
        """Record dead cells; adopt the ones assigned to this rank.

        Runs on the main thread.  The execution threads pick the frozen
        cells up through :class:`FaultState` on their next exchange poll;
        adoption spawns one additional execution thread per inherited cell.
        """
        fresh = self.fault_state.apply(notice)
        if not fresh:
            return
        telemetry.mark(
            "fault notice received",
            f"cells {[fc.cell_index for fc in fresh]} ({notice.policy})")
        for frozen in fresh:
            if frozen.adopter_rank == self.comm.rank:
                thread = threading.Thread(
                    target=self._adopted_main,
                    args=(frozen,),
                    name=f"slave-{self.comm.rank}-adopt-{frozen.cell_index}",
                    daemon=True,
                )
                self._adopted_threads.append(thread)
                thread.start()

    # -- execution thread ----------------------------------------------------------------

    def _execution_main(self, task: RunTask, config: ExperimentConfig, grid: Grid,
                        result_box: dict) -> None:
        # The execution thread is not the rank's endpoint thread, so it
        # must bind itself for its spans to land in this rank's buffer.
        telemetry.bind_rank(self.comm.rank)
        try:
            result = self._train(task, config, grid)
        except DrainRequested as exc:
            # No result: the main thread checkpoints the cell into a
            # DrainNotice and the adopting rank ships the real result.
            self._execution_error = exc
            return
        except ExchangeAborted as exc:
            self._execution_error = exc
            result = self._partial_result(task, aborted=True)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the main thread
            self._execution_error = exc
            return
        result_box["result"] = result

    def _train(self, task: RunTask, config: ExperimentConfig,
               grid: Grid) -> SlaveResult:
        cell_index = task.cell_index
        telemetry.mark("assemble execution grid", f"{grid.rows}x{grid.cols}")
        cell = Cell(config, cell_index, self.dataset,
                    neighborhood_size=grid.neighborhood_size(cell_index))
        self._cell = cell
        start, rejoin = 0, 0
        if task.resume is not None:
            # Respawned worker: resume the cell from its checkpoint and
            # rejoin the synchronous exchange at the negotiated iteration.
            snapshot: CellSnapshot = task.resume.snapshot
            cell.restore(snapshot.generator_genome, snapshot.discriminator_genome,
                         snapshot.mixture_weights, snapshot.iteration)
            start, rejoin = snapshot.iteration, task.resume.rejoin_iteration
            with self._iteration_lock:
                self._iteration = start
            telemetry.mark("resume from checkpoint",
                           f"iteration {start}, rejoin {rejoin}")
        telemetry.mark("start training")
        result = self._train_cell(
            task, config, grid, cell, cell_index=cell_index,
            start=start, rejoin=rejoin,
            inject_fault=task.resume is None, track_iteration=True,
        )
        result.recovered = task.resume is not None
        return result

    def _train_cell(self, task: RunTask, config: ExperimentConfig, grid: Grid,
                    cell: Cell, *, cell_index: int,
                    start: int = 0, rejoin: int = 0, inject_fault: bool = False,
                    track_iteration: bool = False) -> SlaveResult:
        """The per-iteration loop, shared by the primary cell, a resumed
        cell (respawned worker) and adopted cells (second execution
        thread).  Iterations below ``rejoin`` run communication-free (see
        :mod:`repro.parallel.recovery`)."""
        resync_until = rejoin + RESYNC_WINDOW if rejoin else None
        self._cells[cell_index] = cell
        self._cell_iterations[cell_index] = start
        # The center copy a checkpoint took at the end of an iteration is
        # the one the next exchange sends: nothing trains in between, and
        # both consumers only read it.
        centers = None
        for iteration in range(start, config.coevolution.iterations):
            if self.abort_event.is_set():
                raise ExchangeAborted(f"cell {cell_index}: abort before iteration {iteration}")
            if self._drain.is_set():
                # Iteration boundary only — the cell state is consistent
                # here, so the drain checkpoint is exact.
                raise DrainRequested(
                    f"cell {cell_index}: drain before iteration {iteration}")
            if (inject_fault and task.fault_at_iteration is not None
                    and iteration == task.fault_at_iteration):
                if task.fault_kill:
                    # A genuine process death: no exception, no result, no
                    # goodbye — the transport and the heartbeat layer must
                    # notice on their own.  Never reached on the threaded
                    # backend (the runner rejects the combination).
                    os._exit(86)
                raise InjectedFault(
                    f"slave {self.comm.rank} crashing at iteration {iteration} as requested"
                )
            own_g, own_d = centers or cell.center_genomes()
            centers = None
            payload = ExchangePayload(cell_index, iteration, own_g, own_d,
                                      epoch=self.fault_state.current_epoch())
            telemetry.mark("get results from neighbours", f"iteration {iteration}")
            received = self.comm.exchange_genomes(
                grid, cell_index, payload, task.exchange_mode, self.abort_event,
                fault_state=self.fault_state,
                catch_up=iteration < rejoin,
                resync_until=resync_until,
            )
            neighbors = self._order_neighbors(grid, cell_index, received, cell)
            telemetry.mark("train one iteration", f"iteration {iteration}")
            cell.step(neighbors)
            self._cell_iterations[cell_index] = iteration + 1
            if track_iteration:
                with self._iteration_lock:
                    self._iteration = iteration + 1
            if task.snapshot_every and (iteration + 1) % task.snapshot_every == 0 \
                    and iteration + 1 < config.coevolution.iterations:
                centers = cell.center_genomes()
                self.comm.send_cell_snapshot(CellSnapshot(
                    cell_index=cell_index,
                    iteration=iteration + 1,
                    generator_genome=centers[0],
                    discriminator_genome=centers[1],
                    mixture_weights=cell.mixture.weights.copy(),
                ))
        self._completed_cells.add(cell_index)
        return self._final_result(task, cell, cell_index=cell_index)

    def _adopted_main(self, frozen: FrozenCell) -> None:
        """Second execution thread: train an adopted cell to completion.

        Restores the dead rank's cell from its checkpoint, catches up
        communication-free to the rejoin iteration, then exchanges
        synchronously on the dead cell's behalf.  Ships its own
        :class:`SlaveResult` (tagged ``recovered``) when done.
        """
        telemetry.bind_rank(self.comm.rank)
        task, config, grid = self._task, self._config, self._grid
        assert task is not None and config is not None and grid is not None
        cell_index = frozen.cell_index
        telemetry.mark("adopt cell", f"cell {cell_index} from iteration {frozen.iteration}")
        try:
            cell = Cell(config, cell_index, self.dataset,
                        neighborhood_size=grid.neighborhood_size(cell_index))
            cell.restore(frozen.generator_genome, frozen.discriminator_genome,
                         frozen.mixture_weights, frozen.iteration)
            result = self._train_cell(
                task, config, grid, cell, cell_index=cell_index,
                start=frozen.iteration, rejoin=frozen.rejoin_iteration,
                inject_fault=False, track_iteration=False,
            )
        except DrainRequested:
            # The host rank is leaving; the main thread hands this cell's
            # checkpoint to the master inside its DrainNotice.
            telemetry.mark("adopted cell draining", f"cell {cell_index}")
            return
        except ExchangeAborted:
            # The run is being torn down; the master no longer waits for
            # this cell, so there is nothing useful to ship.
            telemetry.mark("adopted cell aborted", f"cell {cell_index}")
            return
        except BaseException as exc:  # noqa: BLE001 - adoption must not kill the host
            telemetry.mark("adopted cell failed", f"cell {cell_index}: {exc!r}")
            return
        result.recovered = True
        telemetry.mark("send adopted results to master", f"cell {cell_index}")
        self.comm.send_result(result)

    @staticmethod
    def _order_neighbors(grid: Grid, cell_index: int,
                         received: dict[int, ExchangePayload],
                         cell: Cell) -> list[tuple[Genome, Genome]]:
        """Arrange received genomes in the cell's canonical neighbor order.

        Missing neighbors (async mode before their first message) fall back
        to the cell's *own* center, matching the initial sub-population
        state; the cell treats them as stale entries.
        """
        ordered = []
        for neighbor_cell in grid.neighbor_cells(cell_index):
            payload = received.get(neighbor_cell)
            if payload is None:
                # Strictly local fallback for cell.step() on this thread:
                # borrowing the center vectors (alias=True) skips two
                # copies, and is safe for as long as the slot keeps the
                # binding because a center vector is never written, only
                # replaced.
                own_g, own_d = cell.center_genomes(alias=True)
                ordered.append((own_g, own_d))
            else:
                ordered.append((payload.generator_genome, payload.discriminator_genome))
        return ordered

    # -- results --------------------------------------------------------------------------

    def _final_result(self, task: RunTask, cell: Cell, *,
                      cell_index: int | None = None) -> SlaveResult:
        g_genome, d_genome = cell.center_genomes()
        return SlaveResult(
            rank=self.comm.rank,
            cell_index=task.cell_index if cell_index is None else cell_index,
            generator_genome=g_genome,
            discriminator_genome=d_genome,
            mixture_weights=cell.mixture.weights.copy(),
            reports=cell.reports,
            telemetry=(telemetry.snapshot(self.comm.rank)
                       if telemetry.enabled() else None),
        )

    def _partial_result(self, task: RunTask, *, aborted: bool) -> SlaveResult:
        cell = getattr(self, "_cell", None)
        if cell is None:  # pragma: no cover - abort raced the cell construction
            raise RuntimeError("aborted before the cell was constructed")
        result = self._final_result(task, cell)
        result.aborted = aborted
        return result
