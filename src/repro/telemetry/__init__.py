"""``repro.telemetry`` — one span/mark/counter/gauge bus for every layer.

The only recorder in the system: nothing else reads a clock during a run.
A process-local, thread-safe, rank-aware telemetry bus
(:mod:`repro.telemetry.bus`) with near-zero cost when disabled, exporters
to Perfetto trace JSON / Prometheus text / JSONL
(:mod:`repro.telemetry.export`), and the read-side views over it — Table IV,
Fig. 3/4 and ``repro trace`` (:mod:`repro.telemetry.summary`).  Enable with
``REPRO_TELEMETRY=basic`` (totals and counters) or ``trace`` (full
timeline), or through ``Experiment.telemetry(...)`` / ``repro run --trace
out.json``.

Instrumentation map — which subsystem emits what
================================================

Spans (``telemetry.span``):

====================  =========================================  ==========================================
span                  emitted by                                 meaning
====================  =========================================  ==========================================
``cell.update_genomes``  ``coevolution.cell.Cell.step``          slot binding + copy-on-select (Table IV row 3)
``cell.train``        ``coevolution.cell.Cell.step``             selection + GAN training + promotion (row 2)
``cell.mutate``       ``coevolution.cell.Cell.step``             lr mutation + (1+1)-ES mixture update (row 4)
``train.d_step``      ``gan.pair.GANPair``                       one discriminator batch (fused or tape)
``train.g_step``      ``gan.pair.GANPair``                       one generator batch (fused or tape)
``exchange.gather``   ``parallel.comm_manager``, ``coevolution.  genome exchange / neighborhood snapshot
                      sequential``                               (the paper's ``gather`` routine, row 1)
``socket.rendezvous`` ``mpi.socket_transport``                   master waiting for workers to connect
``serving.batch``     ``serving.engine.BatchingEngine``          one coalesced fused forward batch
====================  =========================================  ==========================================

Marks (``telemetry.mark``; ``trace`` level only): the protocol, fault and
membership steps of ``parallel.master.MasterProcess`` and
``parallel.slave.SlaveProcess`` — "run tasks sent", "train one iteration",
"slave failure detected", "cell migrated", ... — as instants on the
recording rank's timeline.  Rank 0's are the master lane of the paper's
Fig. 3, rank ``r``'s the ``slave-r`` lane.

Counters (``telemetry.count``):

==========================  =========================================
counter                     emitted by
==========================  =========================================
``optim.steps``             ``nn.optim.Optimizer``
``kernels.forward``         ``nn.kernels.FusedStepKernel.forward``
``kernels.backward``        ``nn.kernels.FusedStepKernel.backward``
``exchange.genomes_sent``   ``parallel.comm_manager``
``exchange.bytes_sent``     ``parallel.comm_manager``
``mpi.messages_sent``       ``mpi.stats.TransportStats`` (absorbed)
``mpi.messages_received``   ``mpi.stats.TransportStats`` (absorbed)
``mpi.bytes_sent``          ``mpi.stats.TransportStats`` (absorbed)
``mpi.bytes_received``      ``mpi.stats.TransportStats`` (absorbed)
``socket.workers_admitted`` ``mpi.socket_transport`` rendezvous
``socket.hello_rejected``   ``mpi.socket_transport`` rendezvous
``serving.requests``        ``serving.server.GeneratorServer``
``serving.batches``         ``serving.engine.BatchingEngine``
``serving.batch_requests``  ``serving.engine.BatchingEngine``
==========================  =========================================

Gauges (``telemetry.gauge``; current value + peak):

=======================  =========================================
gauge                    emitted by
=======================  =========================================
``serving.queue_depth``  ``serving.engine.BatchingEngine``
``serving.batch_size``   ``serving.engine.BatchingEngine``
=======================  =========================================

Rank flow: each rank's buffer is snapshotted in ``mpi.transport.
execute_rank`` (and, for remote socket workers, inside ``SlaveResult``),
ships over the existing transport, and is merged time-aligned on the
master into ``RunResult.telemetry``.  Table IV / Fig. 4
(``RunResult.profile``), Fig. 3 (:func:`mark_timeline`) and ``repro trace``
(:func:`summarize`) are computed from that one object.
"""

from repro.telemetry.bus import (
    BASIC,
    LEVELS,
    OFF,
    TRACE,
    MergedTelemetry,
    SpanEvent,
    TelemetrySnapshot,
    all_snapshots,
    bind_rank,
    count,
    enabled,
    gauge,
    level_name,
    mark,
    merge_telemetry,
    reset,
    set_level,
    snapshot,
    span,
    tracing,
    unbind_rank,
)
from repro.telemetry.export import (
    JsonlWriter,
    parse_prometheus,
    to_perfetto,
    to_prometheus,
    write_trace,
)
from repro.telemetry.summary import (
    ProfileRow,
    TimerSnapshot,
    format_fig4_series,
    format_mark_timeline,
    format_summary,
    format_table4,
    mark_timeline,
    profile_rows,
    routine_profile,
    summarize,
)

__all__ = [
    "OFF",
    "BASIC",
    "TRACE",
    "LEVELS",
    "SpanEvent",
    "TelemetrySnapshot",
    "MergedTelemetry",
    "set_level",
    "level_name",
    "enabled",
    "tracing",
    "span",
    "mark",
    "count",
    "gauge",
    "bind_rank",
    "unbind_rank",
    "snapshot",
    "all_snapshots",
    "reset",
    "merge_telemetry",
    "to_perfetto",
    "write_trace",
    "to_prometheus",
    "parse_prometheus",
    "JsonlWriter",
    "summarize",
    "format_summary",
    "TimerSnapshot",
    "ProfileRow",
    "routine_profile",
    "profile_rows",
    "format_table4",
    "format_fig4_series",
    "mark_timeline",
    "format_mark_timeline",
]
