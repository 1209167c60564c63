"""Simulated HPC platform (the Cluster-UY substitute).

The paper runs on Cluster-UY: up to 30 servers with 40-core Xeon Gold 6138
processors and 128 GB RAM, scheduled by slurm with a best-effort queue
(resource availability is *not* guaranteed).  The master process gathers
information about the platform, decides which node runs each slave, and
balances load (paper Section III-B).  This package models exactly the parts
of that infrastructure the master interacts with — not the slurm queue,
which no run and no table reads:

* :mod:`repro.cluster.platform` — nodes and their resources, with optional
  background occupancy;
* :mod:`repro.cluster.placement` — the master's load-balancing placement
  strategy and the Table II resource accounting.
"""

from repro.cluster.platform import ClusterPlatform, ComputeNode, cluster_uy
from repro.cluster.placement import (
    PlacementPlan,
    place_tasks,
    plan_from_hosts,
    platform_from_hosts,
    table2_resources,
)

__all__ = [
    "ComputeNode",
    "ClusterPlatform",
    "cluster_uy",
    "PlacementPlan",
    "place_tasks",
    "plan_from_hosts",
    "platform_from_hosts",
    "table2_resources",
]
