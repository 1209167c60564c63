"""Fig. 3 — flow of processing and communications, master vs slave.

The paper's flow diagram shows the master (main thread + heartbeat thread)
and a representative slave (main thread + execution thread) with their MPI
interactions.  Here the master is single-threaded: the paper's heartbeat
thread is the heartbeat tick of the master's one receive loop, and its
"Create heartbeat thread" box is the ``start heartbeat`` mark, where the
launched ranks go under that tick's watch.  The regenerator runs a small distributed job at telemetry
level ``trace`` and prints its protocol marks as one merged, time-ordered
event log (rank 0 is the master lane, rank r the ``slave-r`` lane); the
expected event sequence of the figure (node info -> run task -> grid
assembly -> per-iteration exchange+train -> results -> reduction) is
checked programmatically.
"""

from __future__ import annotations

from repro.experiments.workloads import quick_config
from repro.api import Experiment
from repro.telemetry import format_mark_timeline, mark_timeline

__all__ = ["run", "format_figure", "EXPECTED_SLAVE_SEQUENCE"]

#: Event order every slave must exhibit (the right-hand lane of Fig. 3).
EXPECTED_SLAVE_SEQUENCE = (
    "run task received",
    "assemble execution grid",
    "start training",
    "get results from neighbours",
    "train one iteration",
    "send results to master",
)

#: Event order of the master (the left-hand lane of Fig. 3).
EXPECTED_MASTER_SEQUENCE = (
    "node info gathered",
    "placement decided",
    "run tasks sent",
    "start heartbeat",
    "result received",
    "final results gathered",
)


def _subsequence(events: list[str], expected: tuple[str, ...]) -> bool:
    """True when ``expected`` appears within ``events`` in order."""
    position = 0
    for event in events:
        if position < len(expected) and event == expected[position]:
            position += 1
    return position == len(expected)


def run(rows: int = 2, cols: int = 2, backend: str = "threaded") -> dict:
    """Run a traced job and validate both lanes of the flow diagram."""
    config = quick_config(rows, cols, iterations=2)
    result = Experiment(config).backend(backend).telemetry("trace").run()

    lanes: dict[str, list[str]] = {}
    for _at, actor, event in mark_timeline(result.telemetry):
        lanes.setdefault(actor, []).append(event.name)

    master_ok = _subsequence(lanes.get("master", []), EXPECTED_MASTER_SEQUENCE)
    slaves_ok = {
        actor: _subsequence(events, EXPECTED_SLAVE_SEQUENCE)
        for actor, events in lanes.items()
        if actor.startswith("slave-")
    }
    return {
        "lanes": lanes,
        "master_sequence_ok": master_ok,
        "slave_sequences_ok": slaves_ok,
        "merged": format_mark_timeline(result.telemetry),
    }


def format_figure(data: dict) -> str:
    lines = [
        "FIG. 3 — FLOW OF PROCESSING AND COMMUNICATIONS (MERGED EVENT TRACE)",
        "",
        data["merged"],
        "",
        f"master lane matches Fig. 3: {data['master_sequence_ok']}",
        f"slave lanes matching Fig. 3: "
        f"{sum(data['slave_sequences_ok'].values())}/{len(data['slave_sequences_ok'])}",
    ]
    return "\n".join(lines)
