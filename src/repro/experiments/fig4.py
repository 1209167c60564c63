"""Fig. 4 — execution-time comparison of the main routines (bar chart).

Fig. 4 plots the same data as Table IV: one bar pair (single-node vs
parallel) per routine.  The regenerator reuses the Table IV measurement and
emits the two series plus an ASCII bar rendering.
"""

from __future__ import annotations

from repro.config import ExperimentConfig
from repro.experiments import table4
from repro.telemetry import ProfileRow, format_fig4_series

__all__ = ["run", "format_figure"]


def run(config: ExperimentConfig | None = None, backend: str = "process",
        rows: list[ProfileRow] | None = None) -> dict:
    """Build the Fig. 4 series (reusing precomputed Table IV rows if given)."""
    if rows is None:
        rows = table4.run(config, backend)
    series = format_fig4_series(rows)
    series["rows"] = rows
    return series


def _bar(value: float, maximum: float, width: int = 46) -> str:
    filled = 0 if maximum <= 0 else int(round(width * value / maximum))
    return "#" * filled


def format_figure(data: dict) -> str:
    maximum = max(data["single_core"] + data["distributed"]) or 1.0
    lines = ["FIG. 4 — EXECUTION TIME COMPARISON, SINGLE-NODE VS PARALLEL", ""]
    for routine, single, dist in zip(
            data["routines"], data["single_core"], data["distributed"]):
        lines.append(f"{routine:<16} single {single:8.2f}s |{_bar(single, maximum)}")
        lines.append(f"{'':<16} parall {dist:8.2f}s |{_bar(dist, maximum)}")
        lines.append("")
    return "\n".join(lines)
