"""One benchmark run in a fresh process.

``python child.py '<json spec>'`` builds the workload's experiment, runs it
through ``repro.api.Experiment(...).run()`` and prints one JSON line: wall
clock of the run, CPU and peak memory of this process and its descendants,
the digest of what was trained and the checks the parent counts failures by.
The parent (``run.py``) sets the environment: ``src`` on ``PYTHONPATH``,
BLAS pinned to one thread, telemetry off, dataset cache inside the checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time


def genome_digest(result) -> str:
    """SHA-256 over final center genomes and mixture weights, cell order."""
    import numpy as np

    digest = hashlib.sha256()
    for generator, discriminator in result.center_genomes:
        digest.update(np.ascontiguousarray(generator.parameters).tobytes())
        digest.update(np.ascontiguousarray(discriminator.parameters).tobytes())
    for weights in result.mixture_weights:
        digest.update(np.ascontiguousarray(weights).tobytes())
    return digest.hexdigest()


def own_peak_rss_kib() -> int:
    """Peak resident set of this program.

    Linux carries a parent's ``ru_maxrss`` across fork and exec, so
    ``RUSAGE_SELF`` would report the benchmark process's memory whenever
    that is larger; ``VmHWM`` belongs to the address space exec created.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    from workloads import Workload, build_experiment

    experiment = build_experiment(
        Workload(**spec["workload"]), spec["seed"], spec["iterations"],
        backend=spec.get("backend"), telemetry=spec.get("telemetry"))
    # Users render a dataset once and load it from the disk cache ever
    # after; fill the cache before timing so every run measures that path.
    experiment.build_dataset()
    start = time.perf_counter()
    result = experiment.run()
    wall = time.perf_counter() - start

    own = resource.getrusage(resource.RUSAGE_SELF)
    descendants = resource.getrusage(resource.RUSAGE_CHILDREN)
    stats = result.transport_stats
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": (own.ru_utime + own.ru_stime
                  + descendants.ru_utime + descendants.ru_stime),
        # KiB; the larger of this process and its largest waited-for
        # descendant (forked ranks, socket workers).
        "peak_rss_mb": max(own_peak_rss_kib(), descendants.ru_maxrss) / 1024.0,
        "digest": genome_digest(result),
        "complete": bool(result.complete),
        "ok": bool(result.ok),
        "iterations_run": result.iterations_run,
        "finite": all(math.isfinite(report.d_loss) and math.isfinite(report.g_loss)
                      for reports in result.cell_reports for report in reports),
        "bytes_sent": sum(s.bytes_sent for s in stats),
        "msgs_sent": sum(s.messages_sent for s in stats),
        "send_retries": sum(s.send_retries for s in stats),
        "ranks_lost": sum(s.ranks_lost for s in stats),
    }))


if __name__ == "__main__":
    main()
