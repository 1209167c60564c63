"""One grid cell: sub-populations, selection, mutation and training.

:class:`Cell` implements the per-iteration algorithm of Lipizzaner/Mustangs
(Section II-B) for a single cell.  The *identical* object runs inside the
single-core sequential trainer and inside every distributed slave — only the
source of ``neighbor_genomes`` differs (in-memory snapshot vs MPI allgather).

Per iteration (one call to :meth:`step`):

1. **update genomes** — point the sub-population slots at the center and at
   the gathered neighbor genomes (profiled, Table IV row 3).
2. evaluate all s x s pairings on a batch (fitness table);
   tournament-select (k=2) the generator and discriminator to train, and
   copy those two into the cell's trainee pair (the copies are charged to
   "update genomes" as well).
3. **mutate** — Gaussian learning-rate mutation (Table I) and the
   (1+1)-ES step on the mixture weights (profiled, Table IV row 4).
4. **train** — for every batch of the iteration: one discriminator step
   against a randomly drawn generator opponent and one generator step
   against a randomly drawn discriminator opponent (profiled, Table IV
   row 2; the ``skip N disc. steps`` setting thins discriminator updates).
5. re-evaluate and promote the fittest individuals to be the new center.

Who owns which bytes
--------------------
A cell only ever *trains* two networks per iteration and only *reads* the
other 2·s − 2, so it owns storage for two individuals per kind and borrows
the rest:

* Each **slot** (``s`` generators, ``s`` discriminators) is a permanent
  network object that owns no parameters.  Every step rebinds it
  (:meth:`repro.nn.arena.ParameterArena.rebind`) onto a *read-only view*
  of some flat vector: slot 0 onto the center's, slots 1.. onto the
  ``parameters`` arrays of the genomes :meth:`step` was handed.  No bytes
  move — unless the genome is in a narrower storage dtype (``mixed16``'s
  float16), which is widened into a buffer that the slot owns and reuses.
  The vectors handed to :meth:`step` are shared (the sequential trainer
  gives one snapshot to four cells; thread and co-hosted socket ranks
  receive payloads by reference), stay referenced by the slots until the
  next step replaces them, and are **never written**: NumPy rejects a
  write through the read-only views.  A slot whose neighbor is missing
  keeps whatever it was bound to (Lipizzaner's stale-entry tolerance).
* The cell owns **two slabs per kind**.  At any time one of them may hold
  the center; the other is free and becomes the *work slab*: the selected
  individual is copied into it (the only genome memcpy of the step), the
  persistent **trainee** :class:`~repro.gan.pair.GANPair` — one gradient
  slab and one set of optimizer moments per kind, reset in place — trains
  there, and the selected slot is re-pointed at it so opponents and the
  final fitness table see the individual as it trains.
* **Promotion is a pointer move.**  The center is never trained in place,
  so it is just "the vector of the current best": :meth:`_promote` rebinds
  the center networks onto the winner's vector — the work slab when the
  trainee won (the other slab is then next step's work slab), a
  neighbor's vector when a neighbor won (both slabs are then free).
  Nothing is written, so slot 0 still shows the pre-promotion center and
  the other slots what they showed during the step, which is what
  :meth:`subpopulation_generators` and :meth:`sample_from_mixture` report
  after a run.  A vector the center adopted stays alive until the center
  moves on.
* A stale slot can still be looking at a slab that is about to become the
  work slab (it was trained in an earlier step and its neighbor never
  answered since); it is given a private copy first.
* :meth:`center_genomes` copies: what leaves the cell never aliases it.

Resident per cell, in genome pairs: two parameter slabs, one gradient
slab and the optimizer moments (two under Adam) — five, plus one optimizer
scratch block; down from ten-plus (center, its never-stepped optimizers,
``s`` owning slots and a gradient slab on every slot ever trained).

Table IV row 2 ("train") dominates the single-core budget (~85% of the
wall time in ``benchmarks/results/table4.txt``); steps 2, 4 and 5 — the
fitness tables and the gradient steps — therefore run on the graph-free
kernels of :mod:`repro.nn.kernels`: one batched forward per discriminator
for the s x s table, hand-derived backward straight into the arena
gradient slabs, and cache-blocked optimizer sweeps — the same code on every
backend, dtype and loss.

The RNG discipline matters: a cell consumes randomness only from its own
``rng`` (seeded from the experiment seed and the cell index), so the same
seed produces the same training trajectory no matter which backend runs the
cell or in which order cells execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.config import ExperimentConfig
from repro.coevolution.fitness import evaluate_subpopulations
from repro.coevolution.genome import Genome, genome_from_network
from repro.coevolution.mixture import MixtureWeights, sample_mixture
from repro.coevolution.mutation import mutate_learning_rate
from repro.coevolution.selection import tournament_select
from repro.data.dataset import ArrayDataset, DataLoader
from repro.gan.networks import Discriminator, Generator
from repro.gan.pair import GANPair
from repro.nn import arena_of, kernel_for, loss_by_name
from repro.nn.kernels import loss_kernel_for
from repro.nn.losses import MUSTANGS_LOSSES
from repro.registry import dtype_policy
from repro.telemetry import bus as telemetry

__all__ = ["Cell", "CellReport", "NEIGHBORHOOD_SIZE", "step_block"]

#: s = 5: the cell itself plus W, N, E, S (paper Fig. 1).
NEIGHBORHOOD_SIZE = 5


@dataclass
class CellReport:
    """Per-iteration statistics a cell reports upward."""

    iteration: int
    best_generator_fitness: float
    best_discriminator_fitness: float
    selected_generator: int
    selected_discriminator: int
    learning_rate: float
    mixture_weights: np.ndarray = field(repr=False)
    d_loss: float = float("nan")
    g_loss: float = float("nan")


def _cell_rng(seed: int, cell_index: int, stream: int) -> np.random.Generator:
    """Independent, order-insensitive RNG stream for one cell."""
    return np.random.default_rng(np.random.SeedSequence([seed, cell_index, stream]))


def _bind(network, vector: np.ndarray) -> None:
    """Make ``network`` a read-only window onto ``vector`` (no copy)."""
    window = vector.view()
    window.flags.writeable = False
    arena_of(network).rebind(window)


def _window(network_class, settings, vector: np.ndarray):
    """A network of ``network_class`` that owns no weights: a window onto ``vector``."""
    network = network_class(settings, None)
    _bind(network, vector)
    return network


class Cell:
    """State and per-iteration logic of one grid cell."""

    def __init__(self, config: ExperimentConfig, cell_index: int, dataset: ArrayDataset,
                 neighborhood_size: int = NEIGHBORHOOD_SIZE):
        if neighborhood_size < 1:
            raise ValueError("neighborhood must contain at least the center")
        self.config = config
        self.cell_index = cell_index
        self.neighborhood_size = neighborhood_size
        self.rng = _cell_rng(config.seed, cell_index, stream=0)
        loader_rng = _cell_rng(config.seed, cell_index, stream=1)
        self.loader = DataLoader(dataset, config.training.batch_size, loader_rng)
        self._batches = iter(())

        # Mustangs: each cell draws its loss from the pool; Lipizzaner uses
        # the configured loss everywhere.
        if config.training.loss_function == "mustangs":
            loss_cls = MUSTANGS_LOSSES[int(self.rng.integers(len(MUSTANGS_LOSSES)))]
            self.loss_name = loss_cls.name
        else:
            self.loss_name = config.training.loss_function
        self.loss = loss_by_name(self.loss_name)

        # Center pair, freshly initialized per cell.  It is only ever read
        # and re-pointed (see "Who owns which bytes"), so it builds no
        # optimizers and, once drawn, holds its weights read-only.
        init_rng = _cell_rng(config.seed, cell_index, stream=2)
        self.center = GANPair(
            Generator(config.network, init_rng),
            Discriminator(config.network, init_rng),
            self.loss,
            config.mutation.optimizer,
            config.mutation.initial_learning_rate,
        )
        # The one pair this cell trains; its networks move between the
        # cell's two slabs per kind, its optimizers are reset in place.
        self._trainee = GANPair(
            Generator(config.network, None),
            Discriminator(config.network, None),
            self.loss,
            config.mutation.optimizer,
            config.mutation.initial_learning_rate,
        )
        self._g_slabs = [arena_of(pair.generator).data
                         for pair in (self.center, self._trainee)]
        self._d_slabs = [arena_of(pair.discriminator).data
                         for pair in (self.center, self._trainee)]
        _bind(self.center.generator, self._g_slabs[0])
        _bind(self.center.discriminator, self._d_slabs[0])

        # Sub-population slots: parameterless windows, index 0 on the
        # center.  Until the first "update genomes" (which normally binds
        # every slot) or _define_subpopulations() (which draws stream-3
        # weights for a slot that would otherwise be read unbound) they
        # all look at the center, so that nothing is allocated for them.
        self._sub_generators = [_window(Generator, config.network, self._g_slabs[0])
                                for _ in range(neighborhood_size)]
        self._sub_discriminators = [_window(Discriminator, config.network, self._d_slabs[0])
                                    for _ in range(neighborhood_size)]
        self._sub_defined = False
        #: id(slot) -> the buffer its narrower-dtype genomes are widened into.
        self._widened: dict[int, np.ndarray] = {}
        #: learning rate travelling with each sub-population member.
        self._sub_lr = [config.mutation.initial_learning_rate] * neighborhood_size

        #: dtype that exchange snapshots (and hence wire payloads and
        #: checkpoints) are stored in — float16 under ``mixed16``, the
        #: compute dtype otherwise.
        self._storage_dtype = np.dtype(
            dtype_policy(getattr(config.network, "dtype", "float64")).storage)

        self.mixture = MixtureWeights.uniform(neighborhood_size)
        self.iteration = 0
        self.reports: list[CellReport] = []
        # Preallocated so the telemetry-off span() calls stay allocation-free.
        self._span_attrs = {"cell": cell_index}

    # -- genome exchange -------------------------------------------------------

    def center_genomes(self, *, alias: bool = False) -> tuple[Genome, Genome]:
        """Snapshot the center pair for exchange with neighbors.

        Default: one contiguous copy per network (safe to queue on any
        transport), quantized to the dtype policy's **storage** dtype —
        under ``mixed16`` a float16 snapshot of the float32 arena.  The
        quantization happens here, at the snapshot boundary, so every
        backend (sequential's in-memory snapshots and the wire payloads of
        the process/socket transports) exchanges bit-identical vectors.

        ``alias=True`` borrows the center vectors themselves (read-only,
        zero copies, no quantization) — for handing this cell's own
        :meth:`step` a stand-in for a neighbor that did not answer; never
        for payloads handed to a transport or to another cell.
        """
        lr = self.center.learning_rate
        g = genome_from_network(self.center.generator, lr, self.loss_name, alias=alias)
        d = genome_from_network(self.center.discriminator, lr, self.loss_name, alias=alias)
        if not alias and g.parameters.dtype != self._storage_dtype:
            g = Genome(g.parameters.astype(self._storage_dtype), lr, self.loss_name)
            d = Genome(d.parameters.astype(self._storage_dtype), lr, self.loss_name)
        return g, d

    def _define_subpopulations(self) -> None:
        """Give every sub-population slot its initial weights, once.

        The draws (stream 3: all generators, then all discriminators) are
        the ones an eager construction would have made, so a trajectory
        does not depend on when — or whether — this runs.  Each slot owns
        the vector drawn for it until a genome is bound over it.
        """
        if self._sub_defined:
            return
        build_rng = _cell_rng(self.config.seed, self.cell_index, stream=3)
        for network in self._sub_generators + self._sub_discriminators:
            arena = arena_of(network)
            arena.rebind(np.empty_like(arena.data))
            network.initialize(build_rng)
            _bind(network, arena.data)
        self._sub_defined = True

    def _update_subpopulations(self, neighbor_genomes: list[tuple[Genome, Genome]]) -> None:
        """Point the slots at the center and the neighbor genomes.

        This is the paper's profiled "update genomes" routine.  Excess
        neighbors are ignored; missing neighbors leave the slot on its
        (stale) previous vector — mirroring the asynchronous tolerance of
        the original Lipizzaner.
        """
        neighbors = list(neighbor_genomes)[: self.neighborhood_size - 1]
        if len(neighbors) == self.neighborhood_size - 1:
            self._sub_defined = True  # every slot is bound below
        self._define_subpopulations()
        _bind(self._sub_generators[0], arena_of(self.center.generator).data)
        _bind(self._sub_discriminators[0], arena_of(self.center.discriminator).data)
        self._sub_lr[0] = self.center.learning_rate
        for i, (g_genome, d_genome) in enumerate(neighbors, start=1):
            self._bind_genome(self._sub_generators[i], self.center.generator, g_genome)
            self._bind_genome(self._sub_discriminators[i], self.center.discriminator, d_genome)
            self._sub_lr[i] = g_genome.learning_rate

    def _bind_genome(self, slot, center, genome: Genome) -> None:
        """Point ``slot`` at ``genome``'s vector; widen it first if narrower.

        A float16 ``mixed16`` vector cannot be computed on in place: it is
        widened into a buffer the slot keeps from step to step.  Should the
        center have been promoted onto that buffer, the center keeps it and
        the slot gets a new one.
        """
        vector = genome.parameters
        dtype = arena_of(slot).data.dtype
        if vector.dtype != dtype:
            widened = self._widened.get(id(slot))
            if widened is None or np.may_share_memory(widened, arena_of(center).data):
                widened = self._widened[id(slot)] = np.empty(vector.shape, dtype)
            np.copyto(widened, vector)
            vector = widened
        _bind(slot, vector)

    def _load_trainee(self, g_idx: int, d_idx: int) -> None:
        """Copy the selected individuals into the trainee pair's networks.

        Per kind: take the slab the center is not using, copy the selected
        slot's vector into it, bind the trainee network to it (writable)
        and re-point the slot at it, so that every later read of that slot
        this step sees the individual as it trains.
        """
        for slots, index, trainee, center, slabs in (
                (self._sub_generators, g_idx, self._trainee.generator,
                 self.center.generator, self._g_slabs),
                (self._sub_discriminators, d_idx, self._trainee.discriminator,
                 self.center.discriminator, self._d_slabs)):
            held = arena_of(center).data
            work = next(slab for slab in slabs if not np.may_share_memory(slab, held))
            selected = arena_of(slots[index])
            for slot in slots:
                arena = arena_of(slot)
                if arena is not selected and np.may_share_memory(arena.data, work):
                    # A stale slot still shows what was trained here in an
                    # earlier step: it keeps that, in a copy of its own.
                    _bind(slot, arena.data.copy())
            np.copyto(work, selected.data)
            arena_of(trainee).rebind(work)
            _bind(slots[index], work)

    # -- batching -----------------------------------------------------------------

    def _next_batch(self) -> np.ndarray:
        try:
            return next(self._batches)
        except StopIteration:
            self._batches = iter(self.loader)
            return next(self._batches)

    def _iteration_batches(self) -> list[np.ndarray]:
        count = self.config.training.batches_per_iteration or len(self.loader)
        return [self._next_batch() for _ in range(count)]

    # -- mixture fitness (cheap proxy used during evolution) -----------------------

    def _mixture_fitness(self, weights: MixtureWeights, batch_size: int) -> float:
        """Generator-loss of mixture samples under the center discriminator.

        A cheap stand-in for the end-of-run quality metric: low when the
        blended samples fool the current discriminator.
        """
        samples = sample_mixture(self._sub_generators, weights, batch_size, self.rng)
        d_kernel = kernel_for(self.center.discriminator)
        return loss_kernel_for(self.loss).g_value(
            d_kernel.forward(d_kernel.as_compute(samples)))

    # -- the per-iteration algorithm ------------------------------------------------

    def step(self, neighbor_genomes: list[tuple[Genome, Genome]]) -> CellReport:
        """Run one coevolutionary iteration; returns the iteration report.

        Invariant the Table IV view relies on: each routine span
        (``cell.update_genomes``, ``cell.train``, ``cell.mutate`` here,
        ``exchange.gather`` in whoever supplies ``neighbor_genomes``) is
        *counted* exactly once per cell per iteration.  A routine that runs
        in two stretches opens its second span with ``calls=0``, which adds
        the time to the call already counted.
        """
        config = self.config

        with telemetry.span("cell.update_genomes", attrs=self._span_attrs):
            self._update_subpopulations(neighbor_genomes)

        # Selection batch + fitness table.
        with telemetry.span("cell.train", attrs=self._span_attrs):
            selection_batch = self._next_batch()
            table = evaluate_subpopulations(
                self._sub_generators, self._sub_discriminators,
                self.loss, selection_batch, self.rng,
            )
            g_idx = tournament_select(
                table.generator_fitness, self.rng, config.coevolution.tournament_size
            )
            d_idx = tournament_select(
                table.discriminator_fitness, self.rng, config.coevolution.tournament_size
            )

        # Copy-on-select: the two individuals about to be trained are the
        # only genomes this step copies — the rest of this step's one
        # "update genomes" call.
        with telemetry.span("cell.update_genomes", attrs=self._span_attrs, calls=0):
            self._load_trainee(g_idx, d_idx)

        with telemetry.span("cell.mutate", attrs=self._span_attrs):
            mutated_lr = mutate_learning_rate(
                self._sub_lr[g_idx], self.rng,
                mutation_rate=config.mutation.mutation_rate,
                mutation_probability=config.mutation.mutation_probability,
            )
            self._sub_lr[g_idx] = mutated_lr
            # (1+1)-ES on the mixture weights with the cheap proxy fitness.
            parent_fitness = self._mixture_fitness(self.mixture, config.training.batch_size)
            offspring = self.mixture.mutated(self.rng, config.coevolution.mixture_mutation_scale)
            offspring_fitness = self._mixture_fitness(offspring, config.training.batch_size)
            if offspring_fitness <= parent_fitness:
                self.mixture = offspring

        # Train the selected pair against randomly drawn opponents.
        with telemetry.span("cell.train", attrs=self._span_attrs, calls=0):
            pair = self._trainee
            pair.learning_rate = mutated_lr
            pair.reset_optimizers()
            pair.d_optimizer.learning_rate = self._sub_lr[d_idx]
            skip = max(1, config.training.skip_discriminator_steps)
            d_loss = g_loss = float("nan")
            for batch_no, batch in enumerate(self._iteration_batches()):
                if batch_no % skip == 0:
                    opponent_g = self._sub_generators[
                        int(self.rng.integers(self.neighborhood_size))
                    ]
                    d_loss = pair.train_discriminator_step(batch, self.rng, generator=opponent_g)
                opponent_d = self._sub_discriminators[
                    int(self.rng.integers(self.neighborhood_size))
                ]
                g_loss = pair.train_generator_step(batch.shape[0], self.rng,
                                                   discriminator=opponent_d)

            # Re-evaluate and promote the fittest members to center.
            replacement_batch = self._next_batch()
            final_table = evaluate_subpopulations(
                self._sub_generators, self._sub_discriminators,
                self.loss, replacement_batch, self.rng,
            )
            best_g = final_table.best_generator
            best_d = final_table.best_discriminator
            self._promote(best_g, best_d)

        self.iteration += 1
        report = CellReport(
            iteration=self.iteration,
            best_generator_fitness=float(final_table.generator_fitness[best_g]),
            best_discriminator_fitness=float(final_table.discriminator_fitness[best_d]),
            selected_generator=g_idx,
            selected_discriminator=d_idx,
            learning_rate=self.center.learning_rate,
            mixture_weights=self.mixture.weights.copy(),
            d_loss=d_loss,
            g_loss=g_loss,
        )
        self.reports.append(report)
        return report

    def _promote(self, g_idx: int, d_idx: int) -> None:
        """Make the winning sub-population members the center pair.

        A pointer move: the center networks are re-pointed at the winners'
        vectors and nothing is written, so every slot — slot 0 on the old
        center included — still shows what it showed during the step.
        """
        _bind(self.center.generator, arena_of(self._sub_generators[g_idx]).data)
        _bind(self.center.discriminator, arena_of(self._sub_discriminators[d_idx]).data)
        self.center.learning_rate = self._sub_lr[g_idx]

    # -- checkpoint restore ------------------------------------------------------

    def restore(self, generator_genome: Genome, discriminator_genome: Genome,
                mixture_weights: np.ndarray, iteration: int) -> None:
        """Restore this cell from checkpointed state (resume after a kill).

        Adopts the genomes' loss and learning rate, resets the iteration
        counter, and re-derives the RNG stream from ``(seed, cell,
        iteration)`` so the resumed run is deterministic per checkpoint.
        """
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        # Private copies (widened from the storage dtype if need be): the
        # checkpoint's arrays stay the caller's.
        for network, genome in ((self.center.generator, generator_genome),
                                (self.center.discriminator, discriminator_genome)):
            _bind(network, genome.parameters.astype(arena_of(network).data.dtype))
        self.loss_name = generator_genome.loss_name
        self.loss = loss_by_name(self.loss_name)
        self.center.loss = self._trainee.loss = self.loss
        self.center.learning_rate = generator_genome.learning_rate
        self.mixture = MixtureWeights(np.asarray(mixture_weights, dtype=np.float64))
        self.iteration = iteration
        self.rng = _cell_rng(self.config.seed, self.cell_index, stream=4 + iteration)

    # -- final artifacts ---------------------------------------------------------

    def subpopulation_generators(self) -> list[Generator]:
        """The s generators backing this cell's mixture (center first)."""
        self._define_subpopulations()
        return list(self._sub_generators)

    def sample_from_mixture(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw ``n`` images from this cell's generator mixture."""
        self._define_subpopulations()
        return sample_mixture(self._sub_generators, self.mixture, n, rng or self.rng)


def step_block(cells: Mapping[int, Cell], neighbors_of: Callable[[int], Iterable[int]],
               genomes: Mapping[int, Mapping[int, tuple[Genome, Genome]]]) -> list[CellReport]:
    """Step a block of cells one iteration, in cell-index order.

    The one step every trainer runs: the sequential trainer's block is the
    whole grid, a slave's is the cells its rank hosts.  ``genomes[i]`` maps
    neighbour cell -> center pair as cell ``i`` sees it this iteration; a
    neighbour missing from it (a communication-free catch-up, a resync
    timeout) falls back to ``i``'s own center, borrowed without a copy —
    safe because the slot only reads it and a center vector is never
    written, only replaced.
    """
    reports = []
    for index in sorted(cells):
        cell = cells[index]
        seen = genomes.get(index, {})
        reports.append(cell.step([seen.get(neighbor) or cell.center_genomes(alias=True)
                                  for neighbor in neighbors_of(index)]))
    return reports
