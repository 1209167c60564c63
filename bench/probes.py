"""The probe pass: per-layer timings taken from outside the program.

Each probe times calls into one layer's public functions, with inputs built
from the workload's own config, and keeps the durations by metric name —
the spans of this benchmark live here, not in ``src/``.  Layer names are
the package names.  ``rank_program`` and ``noop`` are module-level because
socket workers unpickle them by import path.
"""

from __future__ import annotations

import itertools
import statistics
import time
import warnings


def timed(fn, calls: int, warmup: int = 1) -> list[float]:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def noop(world) -> None:
    return None


def rank_program(world, config, rounds: int):
    """The slaves' exchange loop with the training taken out.

    Every rank builds the LOCAL/GLOBAL contexts like a real run; each slave
    then times ``exchange_genomes`` of Table I genomes with its grid
    neighbours, and a ring ``sendrecv`` of one genome-sized array.  A
    barrier before each round starts all ranks together, so a round's time
    is the exchange itself under full contention; the first round (which
    opens the connections) is dropped.
    """
    import numpy as np

    from repro.coevolution.genome import genome_from_network
    from repro.gan.networks import Discriminator, Generator
    from repro.parallel.comm_manager import MpiCommManager
    from repro.parallel.grid import Grid
    from repro.parallel.messages import ExchangePayload

    comm = MpiCommManager(world)
    rank = world.Get_rank()
    comm.build_contexts(is_active_slave=rank != 0)
    if rank == 0:
        return None
    grid = Grid(config.coevolution.grid_rows, config.coevolution.grid_cols)
    cell = grid.cell_of_rank(rank)
    rng = np.random.default_rng(rank)
    rate = config.mutation.initial_learning_rate
    generator = genome_from_network(Generator(config.network, rng), rate, "bce")
    discriminator = genome_from_network(Discriminator(config.network, rng), rate, "bce")
    local = comm.local
    me, size = local.Get_rank(), local.Get_size()

    exchange, ring = [], []
    for iteration in range(1, rounds + 2):
        payload = ExchangePayload(cell, iteration, generator, discriminator)
        local.barrier()
        start = time.perf_counter()
        comm.exchange_genomes(grid, cell, payload, "neighbors")
        exchange.append(time.perf_counter() - start)
    for _ in range(rounds + 1):
        local.barrier()
        start = time.perf_counter()
        local.sendrecv(generator.parameters, dest=(me + 1) % size, source=(me - 1) % size)
        ring.append(time.perf_counter() - start)
    return exchange[1:], ring[1:]


def mpi_probes(config, world_size: int, hosts: str, calls: int) -> dict[str, list[float]]:
    """Launch, exchange-round and sendrecv timings on both transports."""
    from repro.mpi import run_mpi

    spans: dict[str, list[float]] = {}
    for transport, options in (("process", None), ("socket", {"hosts": hosts})):
        def launch():
            run_mpi(world_size, noop, backend=transport, transport_options=options)

        spans[f"mpi.launch_s.{transport}"] = timed(launch, min(calls, 3), warmup=0)
        per_rank = [r for r in run_mpi(world_size, rank_program, args=(config, calls),
                                       backend=transport, transport_options=options)
                    if r is not None]
        rounds = [statistics.median(exchange) for exchange, _ in per_rank]
        # Median over ranks is the typical rank; the slowest rank is what
        # the next iteration waits for, so the waterfall charges the max.
        spans[f"parallel.exchange_round_s.{transport}"] = rounds
        spans[f"parallel.exchange_round_max_s.{transport}"] = [max(rounds)]
        # A ring shift is as slow as its slowest hop (co-hosted socket ranks
        # hand over by reference; the hop between workers crosses TCP).
        spans[f"mpi.sendrecv_s.{transport}"] = [
            max(statistics.median(ring) for _, ring in per_rank)]
    return spans


def layer_probes(config, calls: int) -> dict[str, list[float]]:
    """In-process timings of data, gan, nn, coevolution and the wire codec.

    ``calls`` is the count for the cheap probes; the ones that cost a whole
    cell step, iteration or dataset render get fewer so the pass stays
    inside the driver's time cap.
    """
    import numpy as np

    from repro.api import Experiment
    from repro.coevolution.checkpoint import CellCheckpointStore, CellSnapshot
    from repro.coevolution.fitness import evaluate_subpopulations
    from repro.coevolution.sequential import SequentialTrainer
    from repro.gan.networks import Discriminator, Generator
    from repro.gan.pair import build_gan_pair
    from repro.mpi import wire
    from repro.mpi.stats import payload_nbytes
    from repro.nn.serialize import parameters_to_vector, vector_to_parameters
    from repro.parallel.messages import ExchangePayload

    few = max(1, calls // 4)
    spans: dict[str, list[float]] = {}
    experiment = Experiment(config)
    dataset = experiment.build_dataset()            # fills the disk cache
    spans["data.load_cached_s"] = timed(experiment.build_dataset, few)
    uncached = Experiment(config).dataset("synthetic-mnist", cache=False)
    spans["data.render_s"] = timed(uncached.build_dataset, 1, warmup=0)

    rng = np.random.default_rng(config.seed)
    batch_size = config.training.batch_size
    batch = dataset.images[:batch_size]
    pair = build_gan_pair(config, rng)
    spans["gan.d_step_s"] = timed(lambda: pair.train_discriminator_step(batch, rng), calls)
    spans["gan.g_step_s"] = timed(lambda: pair.train_generator_step(batch_size, rng), calls)
    spans["nn.genome_roundtrip_s"] = timed(
        lambda: vector_to_parameters(parameters_to_vector(pair.generator), pair.generator),
        calls)

    generators = [Generator(config.network, rng) for _ in range(5)]
    discriminators = [Discriminator(config.network, rng) for _ in range(5)]
    spans["coevolution.fitness_table_s"] = timed(
        lambda: evaluate_subpopulations(generators, discriminators, pair.loss, batch, rng),
        calls)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # the facade's trainer, used directly
        trainer = SequentialTrainer(config, dataset)
    cell = trainer.cells[0]
    neighbors = [trainer.cells[j].center_genomes() for j in trainer.grid.neighbors_of(0)]
    spans["coevolution.snapshot_s"] = timed(cell.center_genomes, calls)
    spans["coevolution.cell_step_s"] = timed(lambda: cell.step(neighbors), few)
    spans["coevolution.seq_iter_s"] = timed(trainer.step_iteration, min(few, 3))

    store = CellCheckpointStore()
    iteration = itertools.count(1)          # the store keeps only newer snapshots
    spans["coevolution.cell_snapshot_s"] = timed(
        lambda: store.update(CellSnapshot(0, next(iteration), *cell.center_genomes(),
                                          cell.mixture.weights.copy())),
        calls)

    payload = ExchangePayload(0, 1, *cell.center_genomes())
    spans["mpi.wire_encode_s"] = timed(lambda: wire.pack_frame_parts(wire.MSG, 1, payload), calls)
    body = wire.encode_body(payload)
    spans["mpi.wire_decode_s"] = timed(lambda: wire.decode_body(body), calls)
    framed = sum(memoryview(part).nbytes
                 for part in wire.pack_frame_parts(wire.MSG, 1, payload))
    spans["mpi.frame_overhead_frac"] = [framed / payload_nbytes(payload) - 1.0]
    return spans
