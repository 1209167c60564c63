#!/usr/bin/env python3
"""Heartbeat-based failure detection: a slave dies mid-run, the master
notices through missing heartbeats and aborts the survivors gracefully.

This exercises the control protocol of Section III-B.  The paper's
heartbeat thread is a tick of the master's one receive loop here: every
heartbeat interval it requests each slave's state, and a slave that stops
answering is declared dead.  The master then sends the abort to the
survivors and to the rank it declared dead (silence is not proof of death:
a live but slow rank must not be left waiting).  The surviving slaves
deliver partial results instead of hanging on the dead neighbor's genome
exchange.

Run:  python examples/fault_tolerance.py
"""

from repro import Experiment, default_config


def main() -> None:
    config = default_config(2, 2, seed=13)
    # Give the run enough iterations that the failure happens mid-flight.
    import dataclasses

    coev = dataclasses.replace(config.coevolution, iterations=60)
    config = dataclasses.replace(config, coevolution=coev)

    print("injecting a crash into the slave of cell 0 at iteration 2...")
    result = (Experiment(config)
              .backend("process",
                       fault_at={0: 2},           # cell 0 dies at iteration 2
                       heartbeat_interval_s=0.1,  # 10 Hz monitoring
                       miss_limit=5,              # dead after 0.5s of silence
                       timeout_s=300)
              .run())

    print(f"\ncomplete: {result.complete}")
    print(f"dead ranks detected by the heartbeat monitor: {result.dead_ranks}")
    survivors = [
        cell for cell, reports in enumerate(result.cell_reports) if reports
    ]
    print(f"cells that delivered (partial) results: {survivors}")
    for cell in survivors:
        reports = result.cell_reports[cell]
        print(f"  cell {cell}: reached iteration {reports[-1].iteration} "
              f"before the abort")


if __name__ == "__main__":
    main()
