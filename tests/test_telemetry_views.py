"""The paper's evidence as views over one record: Table IV and Fig. 3 from
``RunResult.telemetry`` on every backend, and the guarantee that recording
them does not change the program being measured."""

import gc
import hashlib
import tracemalloc

import pytest

from repro.api import Experiment
from repro.experiments import fig3
from repro.telemetry import mark_timeline, profile_rows
from repro.telemetry.summary import PAPER_ROUTINES
from tests.conftest import make_quick_config

BACKENDS = ("sequential", "threaded", "process", "socket")
CELLS, ITERATIONS = 4, 2


@pytest.mark.parametrize("backend", BACKENDS)
class TestViewsOnEveryBackend:
    def test_table4_view_from_a_basic_run(self, backend, telemetry_bus, cache_dir):
        config = make_quick_config(2, 2, iterations=ITERATIONS)
        result = Experiment(config).backend(backend).telemetry("basic").run()
        total = result.profile(parallel=False)
        parallel = result.profile(parallel=True)
        for routine in PAPER_ROUTINES:
            # Once per cell per iteration, wherever the cell ran and in
            # however many stretches the routine ran.
            assert total.calls(routine) == parallel.calls(routine) == CELLS * ITERATIONS
            assert 0 < parallel.seconds(routine) <= total.seconds(routine)
        *routines, overall = profile_rows(total, parallel)
        assert overall.routine == "overall"
        assert overall.single_core_s == pytest.approx(total.overall)
        assert overall.distributed_s == pytest.approx(
            sum(row.distributed_s for row in routines))
        assert mark_timeline(result.telemetry) == []  # marks need trace level

    def test_fig3_lanes_from_a_trace_run(self, backend, telemetry_bus, cache_dir):
        if backend == "sequential":
            config = make_quick_config(2, 2, iterations=1)
            result = Experiment(config).backend(backend).telemetry("trace").run()
            assert result.telemetry.events > 0
            assert mark_timeline(result.telemetry) == []  # no master, no slaves
            return
        data = fig3.run(2, 2, backend)
        # One rank per cell; the socket backend without hosts runs one
        # worker, which trains all four cells as one block rank.
        slaves = (1,) if backend == "socket" else (1, 2, 3, 4)
        assert set(data["lanes"]) == {"master"} | {f"slave-{rank}" for rank in slaves}
        assert data["master_sequence_ok"]
        assert data["slave_sequences_ok"] == {
            f"slave-{rank}": True for rank in slaves}
        assert data["merged"].splitlines()[0].startswith("[   0.0000s] ")


class TestObservationLeavesTheProgramAlone:
    @staticmethod
    def _measured_run(level, dataset):
        """(genome digest, peak traced bytes) of one sequential run."""
        experiment = (Experiment(make_quick_config(2, 2, iterations=2))
                      .dataset(dataset).backend("sequential"))
        if level is not None:
            experiment.telemetry(level)
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            result = experiment.run()
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        digest = hashlib.sha256()
        for g_genome, d_genome in result.center_genomes:
            digest.update(g_genome.parameters.tobytes())
            digest.update(d_genome.parameters.tobytes())
        return digest.hexdigest(), peak

    def test_basic_run_has_the_digest_and_memory_ceiling_of_an_off_run(
            self, telemetry_bus, small_dataset):
        """Table IV used to be recorded on a branch of its own that copied
        every neighbour snapshot (four genome pairs per cell step); the bus
        records the same routines on the one zero-copy path."""
        self._measured_run(None, small_dataset)  # warm caches and workspaces
        off_digest, off_peak = self._measured_run(None, small_dataset)
        basic_digest, basic_peak = self._measured_run("basic", small_dataset)
        assert basic_digest == off_digest
        assert basic_peak <= off_peak + 64 * 1024  # span totals, not genomes
