"""The master process (paper Section III-B and Fig. 3).

Start-up duties, in the paper's order: (i) gather information about the
computing infrastructure (node-info messages from every slave, plus the
simulated platform model), (ii) decide in which node each slave executes,
(iii) assign workload balancing the per-node load, (iv) share the parameter
configuration with all slaves.  It then launches the slaves (run-task
messages), monitors them through the heartbeat thread, and — once they
finish — gathers their local results and performs the reduction phase,
returning the best generative model found.

Every protocol step, fault and membership decision is put on rank 0's
telemetry timeline with ``telemetry.mark`` — the master lane of Fig. 3.
"""

from __future__ import annotations

import time


from repro.cluster import ClusterPlatform, PlacementPlan, cluster_uy, place_tasks
from repro.config import ExperimentConfig
from repro.coevolution.checkpoint import CellCheckpointStore, initial_cell_snapshot
from repro.parallel.comm_manager import CommManager
from repro.parallel.elastic import DrainNotice, MembershipLog, MembershipTable
from repro.parallel.grid import Grid
from repro.parallel.heartbeat import HeartbeatMonitor
from repro.parallel.messages import NodeInfo, RunTask, SlaveResult
from repro.parallel.recovery import (
    FaultNotice,
    FrozenCell,
    ResumeDirective,
    plan_rebalance,
    rejoin_iteration,
    validate_fault_policy,
)
from repro.telemetry import bus as telemetry

__all__ = ["MasterProcess", "MasterOutcome"]


class MasterOutcome:
    """What the master returns: per-cell results plus liveness bookkeeping."""

    def __init__(self, results: dict[int, SlaveResult], dead_ranks: list[int],
                 node_info: list[NodeInfo], placement: dict[int, str],
                 wall_time_s: float,
                 degraded_ranks: list[int] | None = None,
                 recovered_ranks: list[int] | None = None,
                 drained_ranks: list[int] | None = None,
                 joined_ranks: list[int] | None = None,
                 membership: MembershipLog | None = None):
        self.results = results
        self.dead_ranks = dead_ranks
        self.node_info = node_info
        self.placement = placement
        self.wall_time_s = wall_time_s
        self.degraded_ranks = degraded_ranks or []
        self.recovered_ranks = recovered_ranks or []
        self.drained_ranks = drained_ranks or []
        self.joined_ranks = joined_ranks or []
        self.membership = membership if membership is not None else MembershipLog()

    @property
    def complete(self) -> bool:
        return not self.dead_ranks


class MasterProcess:
    """One master rank; drive with :meth:`run`."""

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
        grid = Grid(rows, cols, first_slave_rank=1)
        slave_ranks = grid.slave_ranks()

        # (i) Gather infrastructure information.
        node_info = comm.collect_node_info()
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
        placement = {0: plan.task_nodes[0]}
        for i, rank in enumerate(slave_ranks):
            placement[rank] = plan.task_nodes[i + 1]
        telemetry.mark("placement decided",
                       f"{len(plan.tasks_per_node())} nodes, max load {plan.max_load()}")

        # (iv) Share the parameter configuration; launch the slaves.
        config_json = config.to_json()
        slave_telemetry = telemetry.level_name() if telemetry.enabled() else None
        for rank in slave_ranks:
            cell_index = grid.cell_of_rank(rank)
            comm.send_run_task(rank, RunTask(
                config_json=config_json,
                cell_index=cell_index,
                grid_payload=grid.to_payload(),
                assigned_node=placement[rank],
                exchange_mode=self.exchange_mode,
                telemetry_level=slave_telemetry,
                fault_at_iteration=self.fault_at.get(cell_index),
                fault_kill=self.fault_kill,
                fault_policy=self.fault_policy,
                snapshot_every=self.snapshot_every,
            ))
        telemetry.mark("run tasks sent", f"{len(slave_ranks)} slaves")

        # Join the collective context derivation (LOCAL excludes the master).
        comm.build_contexts(is_active_slave=False)

        # Background monitoring (Fig. 3: "Create heartbeat thread").
        telemetry.mark("create heartbeat thread")
        monitor = HeartbeatMonitor(
            comm, slave_ranks,
            interval_s=self.heartbeat_interval_s, miss_limit=self.miss_limit,
        )
        monitor.start()

        # Main thread: collect results as slaves finish.  Recovery
        # bookkeeping: ``hosted`` maps each live rank to every cell it
        # currently trains (grows through adoption), ``outstanding`` to the
        # subset the master still awaits a result for.
        results: dict[int, SlaveResult] = {}
        hosted = {rank: {grid.cell_of_rank(rank)} for rank in slave_ranks}
        outstanding = {rank: set(cells) for rank, cells in hosted.items()}
        store = CellCheckpointStore()
        ledger: list[FaultNotice] = []
        handled_dead: set[int] = set()
        degraded_ranks: set[int] = set()
        recovered_ranks: set[int] = set()
        # Elastic membership: one table records every epoch transition; the
        # auxiliary sets drive re-balancing and the end-of-run release.
        membership = MembershipTable(slave_ranks)
        drained_ranks: set[int] = set()
        standby_ranks: set[int] = set()
        joined_ranks: set[int] = set()
        vacant: set[int] = set()  # departed slots not (yet) refilled
        degraded_cells: dict[int, FrozenCell] = {}
        elastic_state = dict(
            grid=grid, results=results, hosted=hosted, outstanding=outstanding,
            store=store, monitor=monitor, ledger=ledger,
            handled_dead=handled_dead, degraded_ranks=degraded_ranks,
            recovered_ranks=recovered_ranks, membership=membership,
            drained_ranks=drained_ranks, standby_ranks=standby_ranks,
            joined_ranks=joined_ranks, vacant=vacant,
            degraded_cells=degraded_cells, config_json=config_json,
            placement=placement, slave_telemetry=slave_telemetry,
            node_info=node_info)
        self._restarts_used = 0
        self._stray_node_info: list[NodeInfo] = []
        aborted = False
        try:
            while True:
                result = comm.try_collect_result(timeout=0.1)
                if result is not None:
                    self._note_result(result, results, outstanding, monitor)
                self._drain_snapshots(store)
                # Planned departures come in *before* death handling: a
                # draining rank that also tripped the miss limit must be
                # handed off from its fresh snapshots, not "recovered".
                while not aborted:
                    drain_notice = comm.poll_drain_notice()
                    if drain_notice is None:
                        break
                    aborted = self._handle_drain(drain_notice, **elastic_state)
                # A NodeInfo outside start-up/respawn-grace is an elastic
                # joiner filling a vacant slot.  One whose slot is not (yet)
                # vacant is parked: it may be a respawn racing its own death
                # declaration (_await_respawns claims it from the stash) or
                # a joiner racing the heartbeat's detection of the vacancy.
                if not aborted:
                    info = comm.try_collect_node_info(timeout=0.0)
                    if info is not None:
                        self._stray_node_info.append(info)
                    for stray in list(self._stray_node_info):
                        if stray.rank in vacant:
                            self._stray_node_info.remove(stray)
                            self._handle_join(stray, **elastic_state)
                if monitor.deaths_detected.is_set() and not aborted:
                    # Clear *before* reading the dead set: a death declared
                    # between the read and the clear must re-raise the flag.
                    monitor.deaths_detected.clear()
                    dead_now = sorted(set(monitor.dead_ranks()) - vacant)
                    if dead_now:
                        with telemetry.span("fault.detected", rank=0):
                            telemetry.mark(
                                "slave failure detected",
                                ", ".join(str(r) for r in dead_now))
                            if self.fault_policy == "abort":
                                # Paper-faithful: gracefully abort survivors.
                                aborted = True
                                handled_dead.update(dead_now)
                                vacant.update(dead_now)
                                membership.bump("death", dead_now)
                                dead = set(monitor.dead_ranks()) | drained_ranks
                                for rank in slave_ranks:
                                    if rank not in dead:
                                        comm.send_abort(rank)
                            else:
                                self._handle_deaths(dead_now, **elastic_state)
                if len(results) == len(slave_ranks):
                    break
                if monitor.all_accounted():
                    # Everyone is finished or dead; drain stragglers briefly.
                    result = comm.try_collect_result(timeout=1.0)
                    if result is not None:
                        self._note_result(result, results, outstanding, monitor)
                        continue
                    break
            # Release parked joiners: a standby rank serves until the
            # master's abort reaches it (its adopted cells, if any, have
            # already shipped — the completion check above said so).
            for rank in sorted(standby_ranks - vacant):
                comm.send_abort(rank)
        finally:
            monitor.stop()

        # Reduction phase happens in the runner (it has the metric context);
        # the master returns everything it gathered.
        telemetry.mark("final results gathered", f"{len(results)} cells")
        return MasterOutcome(
            results=results,
            dead_ranks=sorted(handled_dead | set(monitor.dead_ranks())),
            node_info=node_info,
            placement=placement,
            wall_time_s=time.perf_counter() - start,
            degraded_ranks=sorted(degraded_ranks),
            recovered_ranks=sorted(recovered_ranks),
            drained_ranks=sorted(drained_ranks),
            joined_ranks=sorted(joined_ranks),
            membership=membership.log,
        )

    # -- recovery machinery ---------------------------------------------------------

    def _note_result(self, result: SlaveResult, results: dict[int, SlaveResult],
                     outstanding: dict[int, set[int]],
                     monitor: HeartbeatMonitor) -> None:
        results[result.cell_index] = result
        owner = next((rank for rank, cells in outstanding.items()
                      if result.cell_index in cells), None)
        if owner is not None:
            outstanding[owner].discard(result.cell_index)
        sender = result.rank
        if sender in outstanding and not outstanding[sender]:
            # A rank is finished only once every cell it hosts (own plus
            # adopted) has reported; until then the heartbeat keeps watch.
            resurrected = monitor.mark_finished(sender)
            if resurrected:
                telemetry.mark("rank resurrected by result", f"rank {sender}")
        label = "recovered result received" if result.recovered else "result received"
        telemetry.mark(label, f"cell {result.cell_index} from rank {sender}")

    def _drain_snapshots(self, store: CellCheckpointStore) -> None:
        if not self.snapshot_every:
            return
        for snapshot in self.comm.drain_cell_snapshots():
            store.update(snapshot)

    def _rejoin_point(self, monitor: HeartbeatMonitor, store: CellCheckpointStore,
                      grid: Grid, extra_iterations: list[int]) -> int:
        known = [l.iteration for l in monitor.snapshot().values() if not l.dead]
        known += list(store.iterations().values())
        known += extra_iterations
        diameter = grid.rows // 2 + grid.cols // 2
        return rejoin_iteration(known, diameter,
                                self.config.coevolution.iterations)

    def _rebalance_plan(self, orphans: list[int], *, grid: Grid,
                        outstanding: dict[int, set[int]],
                        standby_ranks: set[int],
                        vacant: set[int]) -> dict[int, int | None]:
        """The deterministic re-assignment for a batch of orphaned cells.

        Candidates are the still-working survivors plus parked standby
        joiners (load 0 by construction — prime targets); departed slots
        are excluded.  Locality-aware: see :func:`plan_rebalance`.
        """
        candidates: dict[int, set[int]] = {
            rank: set(cells) for rank, cells in outstanding.items()
            if cells and rank not in vacant
        }
        for rank in standby_ranks:
            if rank not in vacant:
                candidates.setdefault(rank, set())
        with telemetry.span("elastic.rebalance", rank=0):
            return plan_rebalance(orphans, candidates, grid=grid,
                                  excluded=vacant)

    def _notify_survivors(self, notice: FaultNotice,
                          outstanding: dict[int, set[int]],
                          standby_ranks: set[int],
                          skip: set[int]) -> None:
        """Broadcast a fault/hand-off notice to every rank that exchanges —
        including parked standby joiners, which adopt through it."""
        for rank, cells in outstanding.items():
            if (cells or rank in standby_ranks) and rank not in skip:
                self.comm.send_fault_notice(rank, notice)

    def _handle_deaths(self, dead_now: list[int], *, grid: Grid,
                       results: dict[int, SlaveResult],
                       hosted: dict[int, set[int]],
                       outstanding: dict[int, set[int]],
                       store: CellCheckpointStore,
                       monitor: HeartbeatMonitor,
                       ledger: list[FaultNotice],
                       handled_dead: set[int],
                       degraded_ranks: set[int],
                       recovered_ranks: set[int],
                       membership: MembershipTable,
                       drained_ranks: set[int],
                       standby_ranks: set[int],
                       joined_ranks: set[int],
                       vacant: set[int],
                       degraded_cells: dict[int, FrozenCell],
                       config_json: str,
                       placement: dict[int, str],
                       slave_telemetry: str | None,
                       node_info: list[NodeInfo]) -> None:
        """Turn a wave of detected deaths into migrations/respawns/freezes."""
        comm = self.comm
        # Drain in-flight results first: a result that raced its own death
        # declaration means the cell needs no recovery at all.
        while True:
            result = comm.try_collect_result(timeout=0.0)
            if result is None:
                break
            self._note_result(result, results, outstanding, monitor)
        self._drain_snapshots(store)
        lost: list[tuple[int, int]] = []  # (dead rank, orphaned cell)
        for rank in dead_now:
            handled_dead.add(rank)
            vacant.add(rank)
            standby_ranks.discard(rank)  # a parked joiner can die too
            cells = outstanding.pop(rank, set())
            hosted.pop(rank, None)
            lost.extend((rank, cell) for cell in sorted(cells)
                        if cell not in results)
        epoch = membership.bump("death", dead_now,
                                sorted(cell for _rank, cell in lost))
        if not lost:
            return
        snapshots = {
            cell: (store.latest(cell)
                   or initial_cell_snapshot(self.config, cell,
                                            grid.neighborhood_size(cell)))
            for _rank, cell in lost
        }
        rejoin = self._rejoin_point(
            monitor, store, grid,
            [snap.iteration for snap in snapshots.values()])
        total = self.config.coevolution.iterations

        reborn: dict[int, NodeInfo] = {}
        if self.fault_policy == "recover" and self.respawn_expected:
            budget = self.max_restarts - self._restarts_used
            want = sorted({rank for rank, _cell in lost})[:max(0, budget)]
            if want:
                reborn = self._await_respawns(
                    want, results=results, outstanding=outstanding,
                    store=store, monitor=monitor)
                self._restarts_used += len(reborn)
                node_info.extend(reborn.values())
                if reborn:
                    membership.bump("respawn", sorted(reborn))
                    vacant.difference_update(reborn)

        plan: dict[int, int | None] = {}
        if self.fault_policy == "recover":
            orphans = [cell for rank, cell in lost if rank not in reborn]
            if orphans:
                plan = self._rebalance_plan(
                    orphans, grid=grid, outstanding=outstanding,
                    standby_ranks=standby_ranks, vacant=vacant)

        frozen_cells: list[FrozenCell] = []
        resume_ranks: dict[int, FrozenCell] = {}
        for rank, cell in lost:
            snap = snapshots[cell]
            if rank in reborn:
                frozen = FrozenCell(
                    cell_index=cell, iteration=snap.iteration,
                    generator_genome=snap.generator_genome,
                    discriminator_genome=snap.discriminator_genome,
                    mixture_weights=snap.mixture_weights,
                    adopter_rank=rank, rejoin_iteration=rejoin, epoch=epoch)
                resume_ranks[rank] = frozen
                hosted.setdefault(rank, set()).add(cell)
                outstanding.setdefault(rank, set()).add(cell)
                monitor.revive(rank)
                recovered_ranks.add(rank)
                telemetry.mark("rank respawned",
                               f"rank {rank} resumes cell {cell} at "
                               f"iteration {snap.iteration}, rejoin {rejoin}")
            elif self.fault_policy == "recover":
                adopter = plan.get(cell)
                if adopter is not None:
                    frozen = FrozenCell(
                        cell_index=cell, iteration=snap.iteration,
                        generator_genome=snap.generator_genome,
                        discriminator_genome=snap.discriminator_genome,
                        mixture_weights=snap.mixture_weights,
                        adopter_rank=adopter, rejoin_iteration=rejoin,
                        epoch=epoch)
                    hosted.setdefault(adopter, set()).add(cell)
                    outstanding.setdefault(adopter, set()).add(cell)
                    recovered_ranks.add(rank)
                    with telemetry.span("fault.migrated", rank=0):
                        telemetry.mark(
                            "cell migrated",
                            f"cell {cell} -> rank {adopter} from iteration "
                            f"{snap.iteration}, rejoin {rejoin}")
                else:
                    frozen = self._freeze_cell(rank, cell, snap, results,
                                               degraded_ranks, total,
                                               epoch=epoch,
                                               degraded_cells=degraded_cells)
            else:  # degrade
                frozen = self._freeze_cell(rank, cell, snap, results,
                                           degraded_ranks, total,
                                           epoch=epoch,
                                           degraded_cells=degraded_cells)
            frozen_cells.append(frozen)

        notice = FaultNotice(
            policy=self.fault_policy,
            dead_ranks=tuple(sorted({rank for rank, _cell in lost})),
            cells=tuple(frozen_cells))
        ledger.append(notice)
        self._notify_survivors(notice, outstanding, standby_ranks,
                               skip=set(resume_ranks))
        for rank, frozen in resume_ranks.items():
            with telemetry.span("fault.restarted", rank=0):
                comm.send_run_task(rank, RunTask(
                    config_json=config_json,
                    cell_index=frozen.cell_index,
                    grid_payload=grid.to_payload(),
                    assigned_node=placement[rank],
                    exchange_mode=self.exchange_mode,
                    telemetry_level=slave_telemetry,
                    fault_policy=self.fault_policy,
                    snapshot_every=self.snapshot_every,
                    resume=ResumeDirective(
                        snapshot=frozen.snapshot(),
                        rejoin_iteration=frozen.rejoin_iteration,
                        notices=tuple(ledger)),
                ))

    def _handle_drain(self, drain: DrainNotice, *, grid: Grid,
                      results: dict[int, SlaveResult],
                      hosted: dict[int, set[int]],
                      outstanding: dict[int, set[int]],
                      store: CellCheckpointStore,
                      monitor: HeartbeatMonitor,
                      ledger: list[FaultNotice],
                      handled_dead: set[int],
                      degraded_ranks: set[int],
                      recovered_ranks: set[int],
                      membership: MembershipTable,
                      drained_ranks: set[int],
                      standby_ranks: set[int],
                      joined_ranks: set[int],
                      vacant: set[int],
                      degraded_cells: dict[int, FrozenCell],
                      config_json: str,
                      placement: dict[int, str],
                      slave_telemetry: str | None,
                      node_info: list[NodeInfo]) -> bool:
        """A planned departure: hand the leaving rank's cells off cleanly.

        Unlike a death, the snapshots in the notice are *exact* — taken at
        an iteration boundary moments ago — so the hand-off loses no work.
        Returns True when the drain forced an abort (abort policy with
        unfinished cells: there is no recovery machinery to take them).
        """
        comm = self.comm
        rank = drain.rank
        if rank in vacant:
            comm.send_drain_ack(rank)  # duplicate or already-departed
            return False
        with telemetry.span("elastic.drain", rank=0):
            telemetry.mark("drain notice received",
                           f"rank {rank}, {len(drain.snapshots)} cell(s)")
            for snap in drain.snapshots:
                store.update(snap)
            while True:
                result = comm.try_collect_result(timeout=0.0)
                if result is None:
                    break
                self._note_result(result, results, outstanding, monitor)
            drained_ranks.add(rank)
            vacant.add(rank)
            standby_ranks.discard(rank)
            monitor.retire(rank)
            cells = outstanding.pop(rank, set())
            hosted.pop(rank, None)
            orphans = sorted(cell for cell in cells if cell not in results)
            epoch = membership.bump("drain", [rank], orphans)
            if not orphans:
                comm.send_drain_ack(rank)
                return False
            if self.fault_policy == "abort":
                # No recovery machinery to take the cells: paper-faithful
                # graceful abort, same as a death under this policy.
                for peer in sorted(outstanding):
                    if outstanding[peer] and peer not in vacant:
                        comm.send_abort(peer)
                comm.send_drain_ack(rank)
                return True
            snapshots = {
                cell: (store.latest(cell)
                       or initial_cell_snapshot(self.config, cell,
                                                grid.neighborhood_size(cell)))
                for cell in orphans
            }
            rejoin = self._rejoin_point(
                monitor, store, grid,
                [snap.iteration for snap in snapshots.values()])
            total = self.config.coevolution.iterations
            plan: dict[int, int | None] = {}
            if self.fault_policy == "recover":
                plan = self._rebalance_plan(
                    orphans, grid=grid, outstanding=outstanding,
                    standby_ranks=standby_ranks, vacant=vacant)
            frozen_cells: list[FrozenCell] = []
            for cell in orphans:
                snap = snapshots[cell]
                adopter = plan.get(cell)
                if adopter is not None:
                    frozen = FrozenCell(
                        cell_index=cell, iteration=snap.iteration,
                        generator_genome=snap.generator_genome,
                        discriminator_genome=snap.discriminator_genome,
                        mixture_weights=snap.mixture_weights,
                        adopter_rank=adopter, rejoin_iteration=rejoin,
                        epoch=epoch)
                    hosted.setdefault(adopter, set()).add(cell)
                    outstanding.setdefault(adopter, set()).add(cell)
                    telemetry.mark(
                        "cell handed off",
                        f"cell {cell} -> rank {adopter} from iteration "
                        f"{snap.iteration}, rejoin {rejoin}")
                else:
                    frozen = self._freeze_cell(rank, cell, snap, results,
                                               degraded_ranks, total,
                                               epoch=epoch,
                                               degraded_cells=degraded_cells)
                frozen_cells.append(frozen)
            notice = FaultNotice(
                policy=self.fault_policy,
                dead_ranks=(rank,),
                cells=tuple(frozen_cells))
            ledger.append(notice)
            self._notify_survivors(notice, outstanding, standby_ranks,
                                   skip={rank})
            comm.send_drain_ack(rank)
        return False

    def _handle_join(self, info: NodeInfo, *, grid: Grid,
                     results: dict[int, SlaveResult],
                     hosted: dict[int, set[int]],
                     outstanding: dict[int, set[int]],
                     store: CellCheckpointStore,
                     monitor: HeartbeatMonitor,
                     ledger: list[FaultNotice],
                     handled_dead: set[int],
                     degraded_ranks: set[int],
                     recovered_ranks: set[int],
                     membership: MembershipTable,
                     drained_ranks: set[int],
                     standby_ranks: set[int],
                     joined_ranks: set[int],
                     vacant: set[int],
                     degraded_cells: dict[int, FrozenCell],
                     config_json: str,
                     placement: dict[int, str],
                     slave_telemetry: str | None,
                     node_info: list[NodeInfo]) -> None:
        """A late rendezvous: a fresh worker filled a vacant rank slot.

        If the slot's home cell sits frozen-degraded, the joiner reclaims
        it (an epoch-newer hand-off notice re-animates it for the peers);
        otherwise the joiner parks as standby, first in line for the next
        drain or death.
        """
        rank = info.rank
        if rank not in vacant:
            return  # start-up duplicate, or a slot that is not joinable
        comm = self.comm
        with telemetry.span("elastic.join", rank=0):
            node_info.append(info)
            placement[rank] = info.node_name
            vacant.discard(rank)
            joined_ranks.add(rank)
            monitor.revive(rank)
            cell = grid.cell_of_rank(rank)
            frozen_old = degraded_cells.pop(cell, None)
            if frozen_old is not None:
                # Re-freeze migration: the degraded placeholder result goes
                # away, the joiner resumes the cell from its checkpoint.
                results.pop(cell, None)
                degraded_ranks.discard(rank)
                snap = store.latest(cell) or frozen_old.snapshot()
                rejoin = self._rejoin_point(monitor, store, grid,
                                            [snap.iteration])
                epoch = membership.bump("join", [rank], [cell])
                frozen = FrozenCell(
                    cell_index=cell, iteration=snap.iteration,
                    generator_genome=snap.generator_genome,
                    discriminator_genome=snap.discriminator_genome,
                    mixture_weights=snap.mixture_weights,
                    adopter_rank=rank, rejoin_iteration=rejoin, epoch=epoch)
                notice = FaultNotice(policy=self.fault_policy,
                                     dead_ranks=(), cells=(frozen,))
                ledger.append(notice)
                self._notify_survivors(notice, outstanding, standby_ranks,
                                       skip={rank})
                hosted.setdefault(rank, set()).add(cell)
                outstanding.setdefault(rank, set()).add(cell)
                recovered_ranks.add(rank)
                telemetry.mark(
                    "joiner reclaims degraded cell",
                    f"rank {rank} resumes cell {cell} at iteration "
                    f"{snap.iteration}, rejoin {rejoin}")
                comm.send_run_task(rank, RunTask(
                    config_json=config_json,
                    cell_index=cell,
                    grid_payload=grid.to_payload(),
                    assigned_node=placement[rank],
                    exchange_mode=self.exchange_mode,
                    telemetry_level=slave_telemetry,
                    fault_policy=self.fault_policy,
                    snapshot_every=self.snapshot_every,
                    resume=ResumeDirective(
                        snapshot=snap,
                        rejoin_iteration=rejoin,
                        notices=tuple(ledger)),
                ))
            else:
                epoch = membership.bump("join", [rank])
                standby_ranks.add(rank)
                hosted[rank] = set()
                outstanding.setdefault(rank, set())
                telemetry.mark("standby joiner parked",
                               f"rank {rank} at epoch {epoch}")
                comm.send_run_task(rank, RunTask(
                    config_json=config_json,
                    cell_index=cell,
                    grid_payload=grid.to_payload(),
                    assigned_node=placement.get(rank, info.node_name),
                    exchange_mode=self.exchange_mode,
                    telemetry_level=slave_telemetry,
                    fault_policy=self.fault_policy,
                    snapshot_every=self.snapshot_every,
                    standby=True,
                    resume=ResumeDirective(
                        snapshot=None,
                        rejoin_iteration=0,
                        notices=tuple(ledger)),
                ))

    def _freeze_cell(self, rank: int, cell: int, snap, results: dict[int, SlaveResult],
                     degraded_ranks: set[int], total_iterations: int, *,
                     epoch: int = 0,
                     degraded_cells: dict[int, FrozenCell] | None = None) -> FrozenCell:
        """Degrade: the cell stays at its checkpoint for the rest of the run."""
        degraded_ranks.add(rank)
        results[cell] = SlaveResult(
            rank=rank, cell_index=cell,
            generator_genome=snap.generator_genome,
            discriminator_genome=snap.discriminator_genome,
            mixture_weights=snap.mixture_weights,
            reports=[])
        telemetry.mark("cell frozen",
                       f"cell {cell} degraded at iteration {snap.iteration}")
        frozen = FrozenCell(
            cell_index=cell, iteration=snap.iteration,
            generator_genome=snap.generator_genome,
            discriminator_genome=snap.discriminator_genome,
            mixture_weights=snap.mixture_weights,
            adopter_rank=None, rejoin_iteration=total_iterations, epoch=epoch)
        if degraded_cells is not None:
            # Remembered so a later joiner can reclaim the cell live.
            degraded_cells[cell] = frozen
        return frozen

    def _await_respawns(self, want: list[int], *, results, outstanding,
                        store, monitor) -> dict[int, NodeInfo]:
        """Wait (bounded) for replacement workers to introduce themselves."""
        reborn: dict[int, NodeInfo] = {}
        pending = set(want)
        # A respawn may have introduced itself before its death was even
        # handled — the main loop stashed the stray NodeInfo for us.
        for info in list(self._stray_node_info):
            if info.rank in pending:
                self._stray_node_info.remove(info)
                reborn[info.rank] = info
                pending.discard(info.rank)
        deadline = time.monotonic() + self.restart_grace_s
        telemetry.mark("awaiting respawn", ", ".join(str(r) for r in want))
        while pending and time.monotonic() < deadline:
            info = self.comm.try_collect_node_info(timeout=0.1)
            if info is not None and info.rank in pending:
                reborn[info.rank] = info
                pending.discard(info.rank)
                continue
            result = self.comm.try_collect_result(timeout=0.0)
            if result is not None:
                self._note_result(result, results, outstanding, monitor)
            self._drain_snapshots(store)
        return reborn
