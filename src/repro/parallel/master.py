"""The master process (paper Section III-B and Fig. 3).

Start-up duties, in the paper's order: (i) gather information about the
computing infrastructure (node-info messages from every slave, plus the
simulated platform model), (ii) decide in which node each slave executes,
(iii) assign workload balancing the per-node load, (iv) share the parameter
configuration with all slaves.  It then launches the slaves (run-task
messages), monitors them through the heartbeat, and — once they finish —
gathers their local results and performs the reduction phase, returning
the best generative model found.

The master is single-threaded: one receive loop (:meth:`MasterProcess._step`)
takes every slave message in arrival order and runs the heartbeat's tick
(:class:`~repro.parallel.heartbeat.HeartbeatMonitor`), waiting for a
message at most until the next tick is due.  The launch node-info gather,
the main watch loop, the respawn grace wait and the straggler drain are all
that loop with a different stop condition, so the heartbeat keeps ticking
through each of them.

Every protocol step, fault and membership decision is put on rank 0's
telemetry timeline with ``telemetry.mark`` — the master lane of Fig. 3.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster import ClusterPlatform, PlacementPlan, cluster_uy, place_tasks
from repro.config import ExperimentConfig
from repro.coevolution.checkpoint import (
    CellCheckpointStore,
    CellSnapshot,
    initial_cell_snapshot,
)
from repro.parallel.comm_manager import CommManager
from repro.parallel.elastic import DrainNotice, MembershipLog, MembershipTable, Transition
from repro.parallel.grid import Grid
from repro.parallel.heartbeat import HeartbeatMonitor
from repro.parallel.messages import (
    Abort,
    DrainAck,
    NodeInfo,
    RunTask,
    SlaveResult,
    StatusReply,
    StatusRequest,
)
from repro.parallel.recovery import (
    ResumeDirective,
    rejoin_iteration,
    validate_fault_policy,
)
from repro.telemetry import bus as telemetry

__all__ = ["MasterProcess", "MasterOutcome"]

#: Per transition kind, the mark a cell that found a live owner gets.
_MOVED_MARK = {
    "death": "cell migrated",
    "drain": "cell handed off",
    "respawn": "rank respawned",
    "join": "joiner reclaims degraded cell",
}


@dataclass
class MasterOutcome:
    """What the master returns: per-cell results plus liveness bookkeeping."""

    results: dict[int, SlaveResult]
    dead_ranks: list[int]
    node_info: list[NodeInfo]
    placement: dict[int, str]
    wall_time_s: float
    degraded_ranks: list[int] = field(default_factory=list)
    recovered_ranks: list[int] = field(default_factory=list)
    drained_ranks: list[int] = field(default_factory=list)
    joined_ranks: list[int] = field(default_factory=list)
    membership: MembershipLog = field(default_factory=MembershipLog)

    @property
    def complete(self) -> bool:
        return not self.dead_ranks


class MasterProcess:
    """One master rank; drive with :meth:`run`.

    After launch the master watches and reacts: :meth:`_react` turns a
    death, a drain notice or a late arrival into a question to the
    :class:`~repro.parallel.elastic.MembershipTable`, and :meth:`_apply`
    performs the answer — the only place a membership decision is sent or
    marked.
    """

    def __init__(self, comm: CommManager, config: ExperimentConfig, *,
                 platform: ClusterPlatform | None = None,
                 placement_plan: PlacementPlan | None = None,
                 exchange_mode: str = "neighbors",
                 fault_at: dict[int, int] | None = None,
                 fault_kill: bool = False,
                 heartbeat_interval_s: float | None = None,
                 miss_limit: int = 8,
                 telemetry_level: str | None = None,
                 fault_policy: str = "abort",
                 snapshot_every: int = 0,
                 max_restarts: int = 0,
                 restart_grace_s: float = 30.0,
                 respawn_expected: bool = False):
        self.comm = comm
        self.config = config
        self.platform = platform if platform is not None else cluster_uy()
        self.placement_plan = placement_plan
        self.exchange_mode = exchange_mode
        self.fault_at = dict(fault_at or {})
        self.fault_kill = fault_kill
        self.fault_policy = validate_fault_policy(fault_policy)
        self.snapshot_every = snapshot_every
        self.max_restarts = max_restarts
        self.restart_grace_s = restart_grace_s
        self.respawn_expected = respawn_expected
        self.heartbeat_interval_s = (
            heartbeat_interval_s
            if heartbeat_interval_s is not None
            else config.execution.heartbeat_interval_s
        )
        self.miss_limit = miss_limit
        self.telemetry_level = telemetry_level

    def run(self) -> MasterOutcome:
        comm = self.comm
        config = self.config
        if self.telemetry_level is not None:
            # The master rank itself may be a remote worker that never saw
            # the launcher's environment; the level travels in its options.
            telemetry.set_level(self.telemetry_level)
        start = time.perf_counter()
        rows, cols = config.coevolution.grid_rows, config.coevolution.grid_cols
        grid = self._grid = Grid(rows, cols, first_slave_rank=1)
        slave_ranks = grid.slave_ranks()
        monitor = self._monitor = HeartbeatMonitor(
            interval_s=self.heartbeat_interval_s, miss_limit=self.miss_limit)
        results = self._results = {}
        self._store = CellCheckpointStore()
        table = self._table = MembershipTable(
            grid, self.fault_policy, config.coevolution.iterations)
        #: NodeInfo messages not yet claimed: the launch gather, then
        #: respawns and elastic joiners.
        self._arrivals: list[NodeInfo] = []
        self._drains: list[DrainNotice] = []
        self._restarts_used = 0
        self._aborted = False

        # (i) Gather infrastructure information.
        self._wait(lambda: len(self._arrivals) == len(slave_ranks))
        node_info = self._node_info = sorted(self._arrivals, key=lambda i: i.rank)
        self._arrivals = []
        telemetry.mark("node info gathered", f"{len(node_info)} slaves")

        # (ii)+(iii) Placement: either the plan the launcher derived from
        # the real host spec (socket backend), or the load-balancing
        # strategy over the (simulated) platform.
        if self.placement_plan is not None:
            plan = self.placement_plan
            if plan.tasks != len(slave_ranks) + 1:
                raise ValueError(
                    f"placement plan covers {plan.tasks} rank(s), job has "
                    f"{len(slave_ranks) + 1}")
        else:
            plan = place_tasks(self.platform, tasks=len(slave_ranks) + 1)
        placement = self._placement = {0: plan.task_nodes[0]}
        for i, rank in enumerate(slave_ranks):
            placement[rank] = plan.task_nodes[i + 1]
        telemetry.mark("placement decided",
                       f"{len(plan.tasks_per_node())} nodes, max load {plan.max_load()}")

        # (iv) Share the parameter configuration; launch the slaves.
        self._config_json = config.to_json()
        self._slave_telemetry = (telemetry.level_name()
                                 if telemetry.enabled() else None)
        for rank in slave_ranks:
            comm.send(rank, self._run_task(rank, grid.cell_of_rank(rank)))
        telemetry.mark("run tasks sent", f"{len(slave_ranks)} slaves")

        # Join the collective context derivation (LOCAL excludes the master).
        comm.build_contexts(is_active_slave=False)

        # Fig. 3's "Create heartbeat thread": the launched ranks go under
        # the watch of the receive loop's heartbeat tick.
        telemetry.mark("start heartbeat")
        now = time.monotonic()
        for rank in slave_ranks:
            monitor.watch(rank, now)

        # Collect results as slaves finish, and react to membership changes
        # through the table.
        while len(results) < len(slave_ranks):
            if monitor.all_accounted():
                # Everyone is finished or dead; give stragglers a second.
                count = len(results)
                if not self._wait(lambda: len(results) > count,
                                  time.monotonic() + 1.0):
                    break
            else:
                self._step()
            if not self._aborted:
                self._react()
        # Release parked joiners: a standby rank serves until the master's
        # abort reaches it (its adopted cells, if any, have already shipped
        # — the completion check above said so).
        for rank in table.standby():
            comm.send(rank, Abort())

        # Reduction phase happens in the runner (it has the metric context);
        # the master returns everything it gathered.
        telemetry.mark("final results gathered", f"{len(results)} cells")
        return MasterOutcome(
            results=results,
            dead_ranks=sorted(set(table.outcome("death"))
                              | set(monitor.dead_ranks())),
            node_info=node_info,
            placement=placement,
            wall_time_s=time.perf_counter() - start,
            degraded_ranks=table.outcome("degraded"),
            recovered_ranks=table.outcome("recovered"),
            drained_ranks=table.outcome("drain"),
            joined_ranks=table.outcome("join"),
            membership=table.log,
        )

    def _run_task(self, rank: int, cell: int,
                  resume: ResumeDirective | None = None) -> RunTask:
        """The one run-task shape: launch (no directive), resume/reclaim (a
        directive with a snapshot) and standby (a directive without)."""
        return RunTask(
            config_json=self._config_json,
            cell_index=cell,
            grid_payload=self._grid.to_payload(),
            assigned_node=self._placement[rank],
            exchange_mode=self.exchange_mode,
            telemetry_level=self._slave_telemetry,
            fault_at_iteration=(self.fault_at.get(cell)
                                if resume is None else None),
            fault_kill=self.fault_kill and resume is None,
            fault_policy=self.fault_policy,
            snapshot_every=self.snapshot_every,
            resume=resume,
            standby=resume is not None and resume.snapshot is None,
        )

    # -- the receive loop ---------------------------------------------------------------

    def _step(self, deadline: float = math.inf) -> bool:
        """One turn of the receive loop: wait for the next slave message —
        no later than the next heartbeat tick or ``deadline`` — and take it
        in, then run the tick if it is due.  Returns whether a message
        arrived."""
        wake = min(self._monitor.next_tick(), deadline)
        now = time.monotonic()
        message = self.comm.receive(None if wake == math.inf else max(0.0, wake - now))
        if message is not None:
            self._handle(message)
        for rank in self._monitor.tick(time.monotonic()):
            self.comm.send(rank, StatusRequest())
        return message is not None

    def _wait(self, done: Callable[[], bool], deadline: float = math.inf) -> bool:
        """Run the receive loop until ``done()`` (True) or ``deadline`` (False)."""
        while not done():
            if time.monotonic() >= deadline:
                return False
            self._step(deadline)
        return True

    def _handle(self, message) -> None:
        """Take one slave message in.  What it records is immediate; the
        membership reactions it may call for wait for :meth:`_react`."""
        if isinstance(message, StatusReply):
            self._monitor.record(message)
        elif isinstance(message, SlaveResult):
            self._take_result(message)
        elif isinstance(message, CellSnapshot):
            self._store.update(message)
        elif isinstance(message, DrainNotice):
            self._drains.append(message)
        elif isinstance(message, NodeInfo):
            self._arrivals.append(message)
        else:
            raise TypeError(f"unexpected message to the master: {message!r}")

    def _take_result(self, result: SlaveResult) -> None:
        sender = result.rank
        if self._table.moved(result.cell_index, sender):
            # From a rank declared dead after all (aborted, or late): the
            # frozen placeholder or the new owner's result stands.
            telemetry.mark("stale result dropped",
                           f"cell {result.cell_index} from rank {sender}")
            return
        self._results[result.cell_index] = result
        self._table.finish(result.cell_index)
        if self._table.idle(sender):
            # A rank is finished only once every cell it hosts (own plus
            # adopted) has reported; until then the heartbeat keeps watch.
            if self._monitor.mark_finished(sender):
                telemetry.mark("rank resurrected by result", f"rank {sender}")
        label = "recovered result received" if result.recovered else "result received"
        telemetry.mark(label, f"cell {result.cell_index} from rank {sender}")

    def _react(self) -> None:
        """Turn whatever the run reported since the last turn into
        transitions: drains, then late arrivals, then deaths."""
        table = self._table
        # Planned departures come in *before* death handling: a draining
        # rank that also tripped the miss limit must be handed off from its
        # fresh snapshots, not "recovered".
        while self._drains and not self._aborted:
            drain = self._drains.pop(0)
            telemetry.mark("drain notice received",
                           f"rank {drain.rank}, {len(drain.snapshots)} cell(s)")
            # Exact, taken at an iteration boundary moments ago: the
            # hand-off loses no work.
            for snapshot in drain.snapshots:
                self._store.update(snapshot)
            self._depart("drain", [drain.rank])
        if self._aborted:
            return
        # A NodeInfo outside start-up/respawn-grace is an elastic joiner
        # filling a vacant slot.  One whose slot is not (yet) vacant stays
        # parked: it may be a respawn racing its own death declaration
        # (_await_respawns claims it) or a joiner racing the heartbeat's
        # detection of the vacancy.
        for info in list(self._arrivals):
            if info.rank in table.vacant():
                self._arrivals.remove(info)
                self._arrive("join", info)
        dead_now = sorted(set(self._monitor.dead_ranks()) - table.vacant())
        if dead_now:
            with telemetry.span("fault.detected", rank=0):
                telemetry.mark("slave failure detected",
                               ", ".join(str(r) for r in dead_now))
                self._depart("death", dead_now)

    # -- membership changes: gather the inputs, decide, apply ---------------------------

    def _depart(self, kind: str, ranks: list[int]) -> None:
        # Take in what has already arrived first: a result that raced its
        # own death declaration (or drain) means the cell needs no hand-off.
        now = time.monotonic()
        while self._step(now):
            pass
        table = self._table
        reborn: dict[int, NodeInfo] = {}
        if (kind == "death" and self.fault_policy == "recover"
                and self.respawn_expected):
            budget = self.max_restarts - self._restarts_used
            want = [r for r in ranks if table.cells_of(r)][:max(0, budget)]
            if want:
                reborn = self._await_respawns(want)
                self._restarts_used += len(reborn)
        snapshots, rejoin = self._decision_inputs(table.at_stake(ranks))
        self._apply(table.depart(kind, ranks, snapshots=snapshots,
                                 rejoin=rejoin, held=reborn))
        for rank in sorted(reborn):
            self._arrive("respawn", reborn[rank])

    def _arrive(self, kind: str, info: NodeInfo) -> None:
        self._node_info.append(info)
        if kind == "join":  # a joiner may sit anywhere; a respawn stays put
            self._placement[info.rank] = info.node_name
        snapshots, rejoin = self._decision_inputs(
            self._table.at_stake([info.rank]))
        self._apply(self._table.arrive(kind, info.rank, snapshots=snapshots,
                                       rejoin=rejoin))

    def _decision_inputs(self, cells: tuple[int, ...],
                         ) -> tuple[dict[int, CellSnapshot], int]:
        """What the transition cannot know by itself: the latest checkpoint
        of every cell at stake, and the iteration a moved cell rejoins the
        synchronous exchange at."""
        if self.fault_policy == "abort" or not cells:
            return {}, 0  # nothing moves: neither is read
        snapshots = {
            cell: (self._store.latest(cell)
                   or initial_cell_snapshot(self.config, cell,
                                            self._grid.neighborhood_size(cell)))
            for cell in cells
        }
        known = [l.iteration for l in self._monitor.liveness.values() if not l.dead]
        known += list(self._store.iterations().values())
        known += [snap.iteration for snap in snapshots.values()]
        diameter = self._grid.rows // 2 + self._grid.cols // 2
        return snapshots, rejoin_iteration(known, diameter,
                                           self.config.coevolution.iterations)

    def _apply(self, transition: Transition) -> None:
        """Perform one transition: liveness, results, marks, then sends."""
        comm, kind = self.comm, transition.kind
        with telemetry.span(f"membership.{kind}", rank=0):
            for rank in transition.ranks:
                if kind == "drain":
                    # Accounted but not dead: a drain is not a fault.
                    self._monitor.mark_finished(rank)
                elif kind in ("respawn", "join"):
                    self._monitor.watch(rank, time.monotonic())
            for cell in transition.cells:
                index = cell.cell_index
                if cell.adopter_rank is None:
                    # Degraded: the checkpoint stands in for the result.
                    self._results[index] = SlaveResult(
                        rank=self._grid.rank_of_cell(index), cell_index=index,
                        generator_genome=cell.generator_genome,
                        discriminator_genome=cell.discriminator_genome,
                        mixture_weights=cell.mixture_weights, reports=[])
                    telemetry.mark(
                        "cell frozen",
                        f"cell {index} degraded at iteration {cell.iteration}")
                else:
                    self._results.pop(index, None)  # a reclaimed placeholder
                    telemetry.mark(
                        _MOVED_MARK[kind],
                        f"cell {index} -> rank {cell.adopter_rank} from "
                        f"iteration {cell.iteration}, rejoin "
                        f"{cell.rejoin_iteration}")
            # Silence is not proof of death: a rank declared dead may be
            # alive, and its neighbours stop sending to it — so under every
            # policy it is aborted.  A truly dead rank never reads its copy,
            # nor does a replacement (it skips what precedes its run task).
            doomed = set(transition.ranks) if kind == "death" else set()
            if transition.abort:
                # Paper-faithful: gracefully abort the survivors too.
                self._aborted = True
                doomed.update(transition.peers)
            elif transition.notice is not None:
                for rank in transition.peers:
                    comm.send(rank, transition.notice)
            for rank in sorted(doomed):
                comm.send(rank, Abort())
            for rank, cell, directive in transition.starts:
                if directive.snapshot is None:
                    telemetry.mark("standby joiner parked",
                                   f"rank {rank} at epoch {transition.epoch}")
                comm.send(rank, self._run_task(rank, cell, directive))
            if transition.ack is not None:
                comm.send(transition.ack, DrainAck())

    def _await_respawns(self, want: list[int]) -> dict[int, NodeInfo]:
        """Wait (bounded) for replacement workers to introduce themselves.

        A respawn may have introduced itself before its death was even
        handled; the receive loop keeps every NodeInfo in ``_arrivals``,
        and what is not claimed here is a joiner for :meth:`_react`.
        """
        telemetry.mark("awaiting respawn", ", ".join(str(r) for r in want))
        self._wait(lambda: set(want) <= {info.rank for info in self._arrivals},
                   time.monotonic() + self.restart_grace_s)
        reborn: dict[int, NodeInfo] = {}
        for info in list(self._arrivals):
            if info.rank in want and info.rank not in reborn:
                self._arrivals.remove(info)
                reborn[info.rank] = info
        return reborn
