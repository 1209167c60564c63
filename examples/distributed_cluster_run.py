#!/usr/bin/env python3
"""The paper's distributed execution, instrumented: placement, heartbeats,
profiling, transport counters, and the master/slave event trace — the last
two read from the one telemetry record of the run.

Runs a 3x3 grid.  By default the ranks are forked processes (10 ranks:
1 master + 9 slaves, one cell each) and the master places them on the
simulated Cluster-UY platform.  With ``--hosts`` the same job runs over the
TCP transport on *real* machines instead, one rank per worker training the
worker's block of cells: localhost entries are spawned automatically,
remote entries print the ``repro worker`` command to start over there, and
the placement report shows the hosts the ranks actually ran on.

Run:  python examples/distributed_cluster_run.py
      python examples/distributed_cluster_run.py --hosts 127.0.0.1:5,127.0.0.1:5
      python examples/distributed_cluster_run.py --hosts nodeA:5,nodeB:5 \\
          --bind 0.0.0.0:5555   # then start `repro worker` on nodeB
"""

import argparse

from repro import Experiment, default_config
from repro.cluster import cluster_uy
from repro.mpi import merge_transport_stats
from repro.telemetry import format_mark_timeline, format_table4, profile_rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hosts", metavar="HOST:SLOTS,...", default=None,
                        help="run over the socket transport on these hosts "
                             "(slots must sum to 10 for the 3x3 grid)")
    parser.add_argument("--bind", metavar="HOST:PORT", default=None,
                        help="coordinator listen address for remote workers")
    args = parser.parse_args()

    config = default_config(3, 3, seed=11)
    if args.hosts is not None:
        # Real hosts: the placement below is the transport's actual
        # rank-to-host assignment, not a simulation.
        options = {"hosts": args.hosts}
        if args.bind:
            options["bind"] = args.bind
        experiment = Experiment(config).backend("socket", **options)
    else:
        # A busy best-effort cluster: ~30% of every node is already occupied.
        platform = cluster_uy(busy_fraction=0.3)
        experiment = Experiment(config).backend("process", platform=platform)

    # "trace" level: span totals for the profile plus the protocol marks.
    result = experiment.telemetry("trace").run()

    print(f"complete: {result.complete}; wall time {result.wall_time_s:.1f}s")

    print("\nplacement (rank -> node):")
    placement = result.outcome_placement
    for rank in sorted(placement):
        role = "master" if rank == 0 else "slave"
        print(f"  rank {rank:>2} -> {placement[rank]}  [{role}]")

    if result.transport_stats:
        total = merge_transport_stats(result.transport_stats)
        print(f"\ntransport traffic ({total.messages_sent} messages, "
              f"{total.bytes_sent / 2**20:.1f} MiB payload):")
        for record in result.transport_stats:
            print(f"  {record.summary()}")

    print("\nper-routine profile (distributed column = slowest slave):")
    rows = profile_rows(result.profile(parallel=False), result.profile(parallel=True))
    print(format_table4(rows))

    print("\nfirst 12 events of the merged master/slave trace (Fig. 3):")
    merged = format_mark_timeline(result.telemetry).splitlines()
    print("\n".join(merged[:12]))
    print(f"... ({len(merged)} events total)")


if __name__ == "__main__":
    main()
