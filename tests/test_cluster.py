"""Tests for the simulated platform and placement."""

import numpy as np
import pytest

from repro.cluster import ComputeNode, cluster_uy, place_tasks, table2_resources


class TestComputeNode:
    def test_occupancy_accounting(self):
        node = ComputeNode("n", cores=4, memory_mb=1000, storage_gb=10)
        node.occupy(2, 500)
        assert node.free_cores == 2 and node.free_memory_mb == 500
        node.release(2, 500)
        assert node.free_cores == 4

    def test_over_occupancy_rejected(self):
        node = ComputeNode("n", cores=2, memory_mb=100, storage_gb=10)
        with pytest.raises(ValueError):
            node.occupy(3, 10)
        with pytest.raises(ValueError):
            node.occupy(1, 200)

    def test_over_release_rejected(self):
        node = ComputeNode("n", cores=2, memory_mb=100, storage_gb=10)
        with pytest.raises(ValueError):
            node.release(1, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeNode("n", cores=0, memory_mb=100, storage_gb=1)


class TestClusterUy:
    def test_paper_specs(self):
        platform = cluster_uy()
        assert len(platform.nodes) == 30
        assert all(n.cores == 40 for n in platform.nodes)
        assert all(n.memory_mb == 128 * 1024 for n in platform.nodes)
        assert all(n.storage_gb == 300 for n in platform.nodes)
        assert platform.total_cores == 1200

    def test_busy_fraction(self):
        platform = cluster_uy(busy_fraction=0.5)
        assert all(n.busy_cores == 20 for n in platform.nodes)

    def test_busy_fraction_randomized(self):
        platform = cluster_uy(busy_fraction=0.5, rng=np.random.default_rng(0))
        busies = {n.busy_cores for n in platform.nodes}
        assert len(busies) > 1  # not all identical

    def test_unique_names_enforced(self):
        platform = cluster_uy(servers=3)
        names = [n.name for n in platform.nodes]
        assert len(set(names)) == 3

    def test_node_lookup(self):
        platform = cluster_uy(servers=2)
        assert platform.node("node01").name == "node01"
        with pytest.raises(KeyError):
            platform.node("nodeXX")


class TestPlacement:
    def test_balanced_round_robin(self):
        platform = cluster_uy(servers=5)
        plan = place_tasks(platform, tasks=10)
        # Emptiest-first round robin over 5 equal nodes -> 2 tasks each.
        assert plan.max_load() == 2
        assert len(plan.tasks_per_node()) == 5

    def test_prefers_empty_nodes(self):
        platform = cluster_uy(servers=3)
        platform.nodes[0].occupy(39, 0)
        platform.nodes[1].occupy(20, 0)
        plan = place_tasks(platform, tasks=3)
        counts = plan.tasks_per_node()
        # node2 (empty) must get at least as many as the others.
        assert counts.get("node02", 0) >= counts.get("node00", 0)

    def test_respects_memory_capacity(self):
        platform = cluster_uy(servers=1)
        # Each task wants 64 GB -> node fits only 2.
        with pytest.raises(ValueError):
            place_tasks(platform, tasks=3, memory_mb_per_task=64 * 1024)

    def test_insufficient_capacity_raises(self):
        platform = cluster_uy(servers=1)
        with pytest.raises(ValueError):
            place_tasks(platform, tasks=41)

    def test_table2_paper_cores(self):
        assert table2_resources(2, 2)["cores"] == 5
        assert table2_resources(3, 3)["cores"] == 10
        assert table2_resources(4, 4)["cores"] == 17

    def test_table2_paper_memory(self):
        assert table2_resources(2, 2)["memory_mb"] == 9216
        assert table2_resources(3, 3)["memory_mb"] == 18432
        # The paper rounds the 4x4 request up to 32 GB; the formula gives
        # the exact ceil-to-GB figure just below it.
        assert abs(table2_resources(4, 4)["memory_mb"] - 32768) <= 1024
