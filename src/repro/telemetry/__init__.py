"""``repro.telemetry`` — one span/counter/gauge bus for every layer.

A process-local, thread-safe, rank-aware telemetry bus
(:mod:`repro.telemetry.bus`) with near-zero cost when disabled, exporters
to Perfetto trace JSON / Prometheus text / JSONL
(:mod:`repro.telemetry.export`), and trace analysis for ``repro trace``
(:mod:`repro.telemetry.summary`).  Enable with ``REPRO_TELEMETRY=basic``
(totals and counters) or ``trace`` (full timeline), or through
``Experiment.telemetry(...)`` / ``repro run --trace out.json``.

Instrumentation map — which subsystem emits what
================================================

Spans (``telemetry.span``):

====================  =========================================  ==========================================
span                  emitted by                                 meaning
====================  =========================================  ==========================================
``cell.update_genomes``  ``coevolution.cell.Cell.step``          slot binding + copy-on-select (Table IV)
``cell.train``        ``coevolution.cell.Cell.step``             selection + GAN training + promotion
``cell.mutate``       ``coevolution.cell.Cell.step``             lr mutation + (1+1)-ES mixture update
``train.d_step``      ``gan.pair.GANPair``                       one discriminator batch (fused or tape)
``train.g_step``      ``gan.pair.GANPair``                       one generator batch (fused or tape)
``exchange.gather``   ``parallel.comm_manager``, ``coevolution.  genome exchange / neighborhood snapshot
                      sequential``                               (the paper's ``gather`` routine)
``socket.rendezvous`` ``mpi.socket_transport``                   master waiting for workers to connect
``serving.batch``     ``serving.engine.BatchingEngine``          one coalesced fused forward batch
====================  =========================================  ==========================================

Counters (``telemetry.count``):

==========================  =========================================
counter                     emitted by
==========================  =========================================
``optim.steps``             ``nn.optim.Optimizer`` + tape fallback
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
master into ``RunResult.telemetry`` — superseding the three earlier
fragments (``profiling.timer`` aggregation, ``parallel.tracing`` merge,
``mpi.stats`` reduction), which remain as thin views/adapters.
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
from repro.telemetry.summary import format_summary, summarize

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
]
