"""Transport overhead: per-iteration exchange latency, process vs. socket.

Both transports move the same wire frames (pickle 5, genome vectors out of
band); the process transport writes each one straight into the destination
rank's Unix socket pair, while the socket transport adds a TCP hop through
the coordinator relay (and, within one worker, hands messages over by
reference).  This bench measures what that costs where it matters — the
per-iteration neighbor exchange of genome-sized arrays — and records the
baseline in ``BENCH_transport.json`` so future transport work (direct
worker-to-worker connections) has a number to beat.

Pattern: every rank sendrecv's a genome-sized vector around a ring, one
round per iteration, like the LOCAL exchange of the training loop.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.mpi import run_mpi

# Wall-clock-sensitive multi-process measurement: slow lane, like every
# other bench that spawns ranks (the CI socket-smoke job covers the fast
# lane's rendezvous/exchange/shutdown coverage).
pytestmark = pytest.mark.slow

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE = RESULTS_DIR / "BENCH_transport.json"

#: Roughly one generator genome (float64) — the unit the exchange moves.
PAYLOAD_FLOATS = 120_000
ITERATIONS = 40
RANKS = 5  # 2x2 grid: one master-sized rank plus four slaves


def exchange_program(world, payload_floats, iterations):
    """Timed ring exchange; returns this rank's mean seconds per iteration."""
    rank, size = world.Get_rank(), world.Get_size()
    own = np.full(payload_floats, float(rank))
    dest, source = (rank + 1) % size, (rank - 1) % size
    world.barrier(timeout=60)  # start the clock together
    start = time.perf_counter()
    for iteration in range(iterations):
        incoming = world.sendrecv(own, dest=dest, source=source,
                                  sendtag=1, recvtag=1, timeout=60)
        assert incoming.shape == own.shape
    elapsed = time.perf_counter() - start
    world.barrier(timeout=60)
    return elapsed / iterations


def _measure(backend: str, transport_options=None) -> dict:
    wall_start = time.perf_counter()
    per_rank = run_mpi(RANKS, exchange_program,
                       args=(PAYLOAD_FLOATS, ITERATIONS),
                       backend=backend, timeout=300,
                       transport_options=transport_options)
    wall = time.perf_counter() - wall_start
    stats = per_rank.transport_stats
    return {
        "mean_iteration_latency_s": float(np.mean(per_rank)),
        "max_iteration_latency_s": float(np.max(per_rank)),
        "startup_plus_run_wall_s": wall,
        "messages_per_rank": stats[0].messages_sent,
        "payload_bytes_per_rank": stats[0].bytes_sent,
    }


def test_transport_overhead_process_vs_socket(results_dir):
    process = _measure("process")
    socket_one = _measure("socket")
    socket_two = _measure("socket",
                          {"hosts": f"127.0.0.1:{RANKS - 2},127.0.0.1:2"})

    baseline = {
        "bench": "transport_overhead",
        "ranks": RANKS,
        "iterations": ITERATIONS,
        "payload_bytes": PAYLOAD_FLOATS * 8,
        "pattern": "ring sendrecv (one round per iteration)",
        "backends": {
            "process": process,
            "socket-1worker": socket_one,
            "socket-2workers": socket_two,
        },
        "socket_overhead_factor": (
            socket_two["mean_iteration_latency_s"]
            / max(process["mean_iteration_latency_s"], 1e-9)
        ),
    }
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"\n{json.dumps(baseline, indent=2)}\n"
          f"[saved to benchmarks/results/{BASELINE.name}]")

    # Correctness-shaped assertions only — absolute timings are machine
    # noise, but every backend must have moved the same traffic.
    for record in (process, socket_one, socket_two):
        assert record["mean_iteration_latency_s"] > 0
        assert record["messages_per_rank"] >= ITERATIONS
        assert record["payload_bytes_per_rank"] >= ITERATIONS * PAYLOAD_FLOATS * 8
    assert BASELINE.exists()
