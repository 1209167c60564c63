"""One-call distributed training: the ``mpiexec`` entry of the system.

:class:`DistributedRunner` assembles the whole job — one master rank plus
one slave rank per grid cell — over any registered MPI transport: the
process backend (true multi-core parallelism; all paper measurements), the
threaded backend (deterministic tests), or the socket backend (TCP worker
processes on one or many machines).

The dataset travels in whichever way the substrate makes cheap.  Fork-based
backends render it **once** in the parent and share the pages copy-on-write
with every slave — the memory-efficiency behavior the paper credits for its
superlinear small-grid speedups.  Socket workers receive a *dataset spec*
and resolve it once **per node** through a process-level cache shared by
co-hosted ranks: the launcher fills that cache before the transport forks
its local workers, so they inherit the pages like any forked rank, while a
``repro worker`` process (another machine, a ``--join``, a replacement)
finds the cache empty and renders for itself.  An explicitly provided
dataset object is pickled across instead.  Either way the rendering is a
deterministic function of the config, which is what keeps the same seed
bit-identical across all three substrates.

Genomes move as single contiguous buffers end to end: each network's
parameters live in one :class:`~repro.nn.arena.ParameterArena` slab, so a
center snapshot is one memcpy, the socket wire ships it as one out-of-band
frame segment, and "update genomes" on the receiving cell is one contiguous
write into the sub-population slab.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster import ClusterPlatform, PlacementPlan, plan_from_hosts, platform_from_hosts
from repro.config import ExperimentConfig
from repro.coevolution.cell import CellReport
from repro.coevolution.genome import Genome
from repro.coevolution.sequential import TrainingResult, build_training_dataset
from repro.data.dataset import ArrayDataset
from repro.mpi import TransportStats, run_mpi
from repro.mpi.errors import MpiWorkerError
from repro.mpi.transport import available_transports
from repro.parallel.comm_manager import MpiCommManager
from repro.parallel.master import MasterOutcome, MasterProcess
from repro.parallel.slave import SlaveProcess
from repro.runtime import pin_blas_threads
from repro.telemetry import bus as telemetry

__all__ = ["DistributedRunner", "DistributedResult"]


# -- the per-rank program (module-level: picklable for remote workers) --------

#: Datasets rendered on this node, shared by every co-hosted rank.
_NODE_DATASETS: dict[tuple, ArrayDataset] = {}
_NODE_DATASETS_LOCK = threading.Lock()


def _node_dataset_key(config: ExperimentConfig, payload: tuple) -> tuple:
    """Cache key of a registry/render payload in :data:`_NODE_DATASETS`."""
    if payload[0] == "registry":
        _, name, options = payload
        # repr() keys stay hashable whatever the option values are (dict
        # and list options are legal for registered dataset factories).
        return ("registry", name, repr(sorted(options.items())),
                config.dataset_size, config.seed)
    return ("render", config.dataset_size, config.seed)


def _materialize_dataset(config: ExperimentConfig, payload: tuple) -> ArrayDataset:
    """Resolve one slave's training data from its travel form.

    ``("inline", dataset)`` — the object itself (fork COW or pickled bytes);
    ``("registry", name, options)`` — create from the dataset registry;
    ``("render", None)`` — the default synthetic corpus.  Registry/render
    forms are cached per process, so a worker hosting several ranks renders
    once per node, not once per rank.
    """
    kind = payload[0]
    if kind == "inline":
        return payload[1]
    if kind not in ("registry", "render"):
        raise ValueError(f"unknown dataset payload kind {kind!r}")
    key = _node_dataset_key(config, payload)
    with _NODE_DATASETS_LOCK:
        if key not in _NODE_DATASETS:
            if kind == "registry":
                from repro.registry import DATASETS

                _, name, options = payload
                _NODE_DATASETS[key] = DATASETS.create(name, config, **options)
            else:
                _NODE_DATASETS[key] = build_training_dataset(config)
        return _NODE_DATASETS[key]


@contextlib.contextmanager
def _node_dataset_preloaded(config: ExperimentConfig, payload: tuple):
    """Hold ``payload``'s dataset in the node cache for the enclosed launch.

    Workers forked inside the block inherit the cache entry copy-on-write
    and never load the dataset themselves.  The entry is dropped on exit:
    the launcher is not a rank, and must not keep every corpus it ever
    started a job on.
    """
    _materialize_dataset(config, payload)
    try:
        yield
    finally:
        with _NODE_DATASETS_LOCK:
            _NODE_DATASETS.pop(_node_dataset_key(config, payload), None)


def _distributed_entry(world, config: ExperimentConfig, dataset_payload: tuple,
                       master_options: dict[str, Any]):
    """What every rank runs, on every transport.

    Pinning happens *here* rather than only in the launching process so
    spawn-based remote workers — which inherit neither the parent's ctypes
    call nor necessarily its environment — initialise BLAS correctly too.
    """
    pin_blas_threads(1)  # one rank = one core (paper Table II)
    comm = MpiCommManager(world)
    if world.Get_rank() == 0:
        return MasterProcess(comm, config, **master_options).run()
    dataset = _materialize_dataset(config, dataset_payload)
    return SlaveProcess(comm, dataset).run()


@dataclass
class DistributedResult:
    """Everything a distributed run produced."""

    training: TrainingResult
    outcome_placement: dict[int, str]
    dead_ranks: list[int] = field(default_factory=list)
    master_wall_time_s: float = 0.0
    transport_stats: list[TransportStats] = field(default_factory=list)
    """Per-rank message/byte counters, rank order (rank 0 is the master)."""
    telemetry: Any = None
    """Merged :class:`repro.telemetry.bus.MergedTelemetry` across every rank
    plus the launcher (``None`` when telemetry was off for the run) — the
    source of the Table IV profile and, at ``trace`` level, of the Fig. 3
    master/slave protocol lanes."""
    fault_policy: str = "abort"
    degraded_ranks: list[int] = field(default_factory=list)
    """Ranks whose cells finished frozen at their last checkpoint (degrade
    policy, or recover with nobody left to adopt)."""
    recovered_ranks: list[int] = field(default_factory=list)
    """Dead ranks whose cells were trained to completion anyway — by a
    respawned replacement worker or an adopting survivor."""
    drained_ranks: list[int] = field(default_factory=list)
    """Ranks that left *voluntarily* mid-run (``repro drain``, SIGTERM):
    their cells were checkpointed and handed off, so a drain is never a
    fault — it does not appear in ``dead_ranks`` and leaves ``ok`` True."""
    joined_ranks: list[int] = field(default_factory=list)
    """Ranks admitted through the live rendezvous after launch — elastic
    joiners filling vacant slots (as standby adopters or reclaiming a
    degraded cell)."""
    membership: Any = None
    """The run's :class:`repro.parallel.elastic.MembershipLog` — every
    epoch transition (launch/death/drain/join/respawn) in order, or ``None``
    when the backend did not report one."""

    @property
    def complete(self) -> bool:
        return not self.dead_ranks

    @property
    def ok(self) -> bool:
        """Did the run deliver what its fault policy promises?

        ``abort``: only a fault-free run is ok.  ``degrade``: ok — frozen
        cells are the documented contract.  ``recover``: ok unless a cell
        could not be recovered and fell back to degraded.
        """
        if not self.dead_ranks:
            return True
        if self.fault_policy == "abort":
            return False
        if self.fault_policy == "degrade":
            return True
        return not self.degraded_ranks

    def to_servable(self, cell: int | None = None):
        """Hand the reduced result to the serving layer (see
        :meth:`TrainingResult.to_servable`)."""
        return self.training.to_servable(cell=cell)


class DistributedRunner:
    """Configure once, then :meth:`run`."""

    def __init__(self, config: ExperimentConfig, *, backend: str | None = None,
                 exchange_mode: str = "neighbors",
                 platform: ClusterPlatform | None = None,
                 placement: PlacementPlan | None = None,
                 fault_at: dict[int, int] | None = None,
                 fault_kill: bool = False,
                 fault_policy: str = "abort",
                 max_restarts: int = 0,
                 snapshot_every: int | None = None,
                 restart_grace_s: float = 30.0,
                 allow_failures: bool | None = None,
                 heartbeat_interval_s: float | None = None,
                 miss_limit: int = 8, timeout_s: float = 600.0,
                 dataset: ArrayDataset | None = None,
                 dataset_spec: tuple[str, dict] | None = None,
                 hosts: Any = None, bind: str | None = None,
                 token: str | None = None,
                 transport_options: dict[str, Any] | None = None):
        self.config = config
        self.backend = backend if backend is not None else config.execution.backend
        transports = available_transports()
        if self.backend not in transports:
            raise ValueError(
                f"distributed runner needs a registered transport "
                f"({sorted(transports)}), got {self.backend!r} "
                "(use coevolution.SequentialTrainer for the single-core version)"
            )
        # "process" and "threaded" are the in-process substrates; any other
        # registered transport hosts its ranks elsewhere (spawned or remote
        # workers) and therefore gets hosts/bind passed through and the
        # spawn-safe dataset path (render per node) without edits here.
        # Host-spec-derived *placement* stays socket-only below — it
        # encodes that transport's contiguous-block rank assignment.
        self.remote = self.backend not in ("process", "threaded")
        if not self.remote and (hosts is not None or bind is not None
                                or token is not None):
            raise ValueError(
                f"hosts/bind/token do not apply to the in-process "
                f"{self.backend!r} backend; use a remote transport such as "
                "'socket'")
        if fault_kill and self.backend == "threaded":
            raise ValueError(
                "fault_kill terminates the hosting process; on the threaded "
                "backend that would kill the launcher itself")
        if fault_kill and self.backend == "socket":
            # os._exit takes down the whole worker process — every
            # co-hosted rank dies with the victim, so the faulted rank
            # must ride alone on its worker for the test to mean anything.
            self._check_fault_kill_isolation(config, fault_at, hosts)
        from repro.parallel.recovery import validate_fault_policy

        validate_fault_policy(fault_policy)
        if fault_policy != "abort" and exchange_mode != "neighbors":
            raise ValueError(
                f"fault policy {fault_policy!r} needs the synchronous "
                "'neighbors' exchange (frozen-cell satisfaction and rejoin "
                f"are defined against it), got exchange_mode={exchange_mode!r}")
        if max_restarts and fault_policy != "recover":
            raise ValueError("max_restarts only applies to fault_policy='recover'")
        self.exchange_mode = exchange_mode
        self.platform = platform
        self.placement = placement
        self.fault_at = fault_at
        self.fault_kill = fault_kill
        self.fault_policy = fault_policy
        self.max_restarts = max_restarts
        # Non-abort policies need in-run checkpoints to recover from; default
        # to every iteration.  0 (the abort default) sends nothing, keeping
        # the no-fault message flow byte-identical to the legacy protocol.
        if snapshot_every is None:
            snapshot_every = 1 if fault_policy != "abort" else 0
        self.snapshot_every = snapshot_every
        self.restart_grace_s = restart_grace_s
        self.allow_failures = allow_failures
        self.heartbeat_interval_s = heartbeat_interval_s
        self.miss_limit = miss_limit
        self.timeout_s = timeout_s
        self.dataset = dataset
        self.dataset_spec = dataset_spec
        self.hosts = hosts
        self.bind = bind
        self.token = token
        self.transport_options = dict(transport_options or {})

    # -- wiring ----------------------------------------------------------------

    @staticmethod
    def _check_fault_kill_isolation(config: ExperimentConfig,
                                    fault_at: dict[int, int] | None,
                                    hosts: Any) -> None:
        """Faulted ranks must be the sole occupant of their socket worker."""
        from repro.mpi.socket_transport import parse_host_spec

        if not fault_at:
            return
        size = config.coevolution.cells + 1
        victim_ranks = {cell + 1 for cell in fault_at}
        lonely: set[int] = set()
        rank = 0
        for _host, slots in parse_host_spec(hosts, size):  # None -> 1 worker
            if slots == 1:
                lonely.add(rank)
            rank += slots
        stranded = victim_ranks - lonely
        if stranded:
            raise ValueError(
                f"fault_kill on the socket backend requires each faulted "
                f"rank to be alone on its worker (os._exit kills every "
                f"co-hosted rank); rank(s) {sorted(stranded)} share a "
                "worker — isolate them in hosts, e.g. "
                "'127.0.0.1:4,127.0.0.1:1' to kill rank 4 of a 2x2 grid")

    def _dataset_payload(self) -> tuple:
        """How the training data travels to the slaves (see module docstring)."""
        if self.dataset is not None:
            return ("inline", self.dataset)
        if self.remote:
            if self.dataset_spec is not None:
                name, options = self.dataset_spec
                return ("registry", name, dict(options))
            return ("render", None)
        # Fork/thread substrates: render once here, share by reference/COW.
        return ("inline", build_training_dataset(self.config))

    def _placement_and_platform(self) -> tuple[PlacementPlan | None, ClusterPlatform | None]:
        """The master's placement inputs.

        With a socket host spec, rank-to-host assignment is decided by the
        transport (contiguous blocks in spec order) — the plan derived here
        reports that real mapping, and the platform models the attached
        machines instead of the simulated Cluster-UY.
        """
        plan, platform = self.placement, self.platform
        if self.backend == "socket" and plan is None:
            from repro.mpi.socket_transport import parse_host_spec

            size = self.config.coevolution.cells + 1
            hosts = parse_host_spec(self.hosts, size)  # None -> one local worker
            plan = plan_from_hosts(hosts)
            if platform is None:
                platform = platform_from_hosts(hosts)
        # Other remote transports: no placement assumption is safe, so the
        # master falls back to its simulated-platform strategy unless the
        # caller provides an explicit plan.
        return plan, platform

    def _forks_local_workers(self, size: int, transport_options: dict[str, Any]) -> bool:
        """Will the transport fork workers from this process at launch?"""
        if self.backend != "socket":
            return False
        from repro.mpi.socket_transport import LOCAL_HOSTNAMES, parse_host_spec

        hosts = parse_host_spec(transport_options.get("hosts"), size)
        return any(host in LOCAL_HOSTNAMES for host, _slots in hosts)

    def _transport_options(self) -> dict[str, Any]:
        options = dict(self.transport_options)
        if self.remote:
            if self.hosts is not None:
                options.setdefault("hosts", self.hosts)
            if self.bind is not None:
                options.setdefault("bind", self.bind)
        if self.backend == "socket":
            # The socket handshake advertises the run's dtype policy so
            # mixed-dtype peers are rejected at rendezvous, not after they
            # corrupt a genome exchange.
            options.setdefault("dtype", self.config.network.dtype)
            if self.token is not None:
                # A caller-fixed rendezvous token: lets operators join
                # workers (`repro worker --join`) or drain ranks
                # (`repro drain`) without scraping the generated one.
                options.setdefault("token", self.token)
            if self.fault_policy == "recover" and self.max_restarts > 0:
                # The coordinator respawns a replacement worker for a dead
                # connection; the reborn rank re-introduces itself and the
                # master resumes it from checkpoint.
                options.setdefault("max_restarts", self.max_restarts)
        return options

    def run(self) -> DistributedResult:
        # One rank = one core (paper Table II).  Forked ranks and forked
        # socket workers inherit the pin; `repro worker` processes re-pin
        # inside _distributed_entry.
        pin_blas_threads(1)
        config = self.config
        size = config.coevolution.cells + 1
        plan, platform = self._placement_and_platform()

        master_options = dict(
            platform=platform,
            placement_plan=plan,
            exchange_mode=self.exchange_mode,
            fault_at=self.fault_at,
            fault_kill=self.fault_kill,
            fault_policy=self.fault_policy,
            snapshot_every=self.snapshot_every,
            max_restarts=self.max_restarts,
            restart_grace_s=self.restart_grace_s,
            # Only the socket transport can put a new process under a dead
            # rank; elsewhere "recover" falls back to in-grid adoption.
            respawn_expected=(self.backend == "socket"
                              and self.fault_policy == "recover"
                              and self.max_restarts > 0),
            heartbeat_interval_s=self.heartbeat_interval_s,
            miss_limit=self.miss_limit,
            # In-band propagation: the master rank (and through its RunTask
            # every slave) adopts the launcher's level even when it runs in
            # a remote worker without the launcher's environment.
            telemetry_level=telemetry.level_name() if telemetry.enabled() else None,
        )

        start = time.perf_counter()
        fault_tolerant = (self.allow_failures if self.allow_failures is not None
                          else bool(self.fault_at) or self.fault_policy != "abort")
        payload = self._dataset_payload()
        transport_options = self._transport_options()
        # Local socket workers are forked from this process: load the
        # dataset they will ask for once, here, instead of once per worker.
        preload = (_node_dataset_preloaded(config, payload)
                   if payload[0] != "inline"
                   and self._forks_local_workers(size, transport_options)
                   else contextlib.nullcontext())
        with preload:
            outcomes = run_mpi(
                size, _distributed_entry,
                args=(config, payload, master_options),
                backend=self.backend, timeout=self.timeout_s,
                allow_failures=fault_tolerant,
                transport_options=transport_options,
            )
        master_outcome: MasterOutcome | None = outcomes[0]
        if master_outcome is None:
            raise MpiWorkerError(getattr(outcomes, "failures", {0: "master failed"}))
        wall = time.perf_counter() - start
        stats = list(getattr(outcomes, "transport_stats", []))
        rank_telemetry = list(getattr(outcomes, "telemetry", []))
        return self._reduce(master_outcome, wall, stats, rank_telemetry)

    # -- reduction phase -------------------------------------------------------------

    def _reduce(self, outcome: MasterOutcome, wall_time_s: float,
                transport_stats: list[TransportStats] | None = None,
                rank_telemetry: list[Any] | None = None) -> DistributedResult:
        """The paper's reduction: merge per-slave results into one artifact."""
        cells = self.config.coevolution.cells
        genomes: list[tuple[Genome, Genome] | None] = [None] * cells
        mixtures: list[np.ndarray | None] = [None] * cells
        reports: list[list[CellReport]] = [[] for _ in range(cells)]
        for cell_index, result in sorted(outcome.results.items()):
            genomes[cell_index] = (result.generator_genome, result.discriminator_genome)
            mixtures[cell_index] = result.mixture_weights
            reports[cell_index] = result.reports

        present = [g for g in genomes if g is not None]
        if not present:
            raise RuntimeError("no slave delivered results; nothing to reduce")
        # Fill holes (dead slaves) with the best available center so the
        # result object stays rectangular; holes are recorded in dead_ranks.
        filler = present[0]
        # A hole's uniform mixture filler must match *that cell's*
        # neighborhood size (per-cell on custom grids; wraparound 2x2
        # grids have s=4) or it mismatches the cell's generator list.
        from repro.parallel.grid import Grid

        grid = Grid(self.config.coevolution.grid_rows,
                    self.config.coevolution.grid_cols)
        training = TrainingResult(
            config=self.config,
            center_genomes=[g if g is not None else filler for g in genomes],
            mixture_weights=[
                m if m is not None else np.full(
                    grid.neighborhood_size(cell), 1.0 / grid.neighborhood_size(cell))
                for cell, m in enumerate(mixtures)
            ],
            cell_reports=reports,
            wall_time_s=wall_time_s,
        )
        # Telemetry merge: prefer the transport-level per-rank snapshots,
        # add the in-band SlaveResult copies (the fallback path) and the
        # launcher's own buffer; merge_telemetry dedupes rank collisions
        # keeping the richer snapshot.
        snapshots = [s for s in (rank_telemetry or []) if s is not None]
        for _cell, result in sorted(outcome.results.items()):
            snap = getattr(result, "telemetry", None)
            if snap is not None:
                snapshots.append(snap)
        if telemetry.enabled():
            launcher_snap = telemetry.snapshot(None)
            if not launcher_snap.empty:
                snapshots.append(launcher_snap)
        merged = telemetry.merge_telemetry(snapshots) if snapshots else None
        return DistributedResult(
            training=training,
            outcome_placement=outcome.placement,
            dead_ranks=outcome.dead_ranks,
            master_wall_time_s=outcome.wall_time_s,
            transport_stats=list(transport_stats or []),
            telemetry=merged,
            fault_policy=self.fault_policy,
            degraded_ranks=outcome.degraded_ranks,
            recovered_ranks=outcome.recovered_ranks,
            drained_ranks=outcome.drained_ranks,
            joined_ranks=outcome.joined_ranks,
            membership=outcome.membership,
        )
