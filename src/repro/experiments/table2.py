"""Table II — resources used per grid size.

Regenerates the cores/memory accounting from the placement model and
compares against the paper's numbers (5/10/17 cores; 9216/18432/32768 MB),
placing each job on the simulated Cluster-UY.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import cluster_uy, place_tasks, table2_resources
from repro.experiments.workloads import PAPER_GRIDS

__all__ = ["Table2Row", "run", "format_table"]

#: The paper's Table II values, keyed by grid size.
PAPER_VALUES = {
    (2, 2): {"cores": 5, "memory_mb": 9216},
    (3, 3): {"cores": 10, "memory_mb": 18432},
    (4, 4): {"cores": 17, "memory_mb": 32768},
}


@dataclass(frozen=True)
class Table2Row:
    grid: tuple[int, int]
    cores: int
    memory_mb: int
    paper_cores: int
    paper_memory_mb: int
    nodes_used: int
    max_node_load: int

    @property
    def cores_match(self) -> bool:
        return self.cores == self.paper_cores


def run(busy_fraction: float = 0.0) -> list[Table2Row]:
    """Compute the table, placing each job on a fresh simulated platform."""
    rows = []
    for grid in PAPER_GRIDS:
        resources = table2_resources(*grid)
        platform = cluster_uy(busy_fraction=busy_fraction)
        plan = place_tasks(platform, tasks=resources["cores"])
        rows.append(
            Table2Row(
                grid=grid,
                cores=resources["cores"],
                memory_mb=resources["memory_mb"],
                paper_cores=PAPER_VALUES[grid]["cores"],
                paper_memory_mb=PAPER_VALUES[grid]["memory_mb"],
                nodes_used=len(plan.tasks_per_node()),
                max_node_load=plan.max_load(),
            )
        )
    return rows


def format_table(rows: list[Table2Row]) -> str:
    header = (
        f"{'grid':<6} {'cores':>6} {'paper':>6} {'memory (MB)':>12} "
        f"{'paper (MB)':>11} {'nodes':>6} {'max load':>9}"
    )
    lines = ["TABLE II — RESOURCES USED ON EACH EXECUTION", header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.grid[0]}x{row.grid[1]:<4} {row.cores:>6} {row.paper_cores:>6} "
            f"{row.memory_mb:>12} {row.paper_memory_mb:>11} {row.nodes_used:>6} "
            f"{row.max_node_load:>9}"
        )
    return "\n".join(lines)
