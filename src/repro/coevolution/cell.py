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
   copy those two into the trainee pair's networks (the copies are charged
   to "update genomes" as well).
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
  float16), which is widened once per distinct vector into a buffer the
  cell keeps from step to step, shared by every slot handed that vector.
  The vectors handed to :meth:`step` are shared (the sequential trainer
  gives each neighbor's center vector itself to four cells; thread and
  co-hosted socket ranks receive payloads by reference), stay referenced
  by the slots until :meth:`release_neighbors` or the next step replaces
  them, and are **never written**: NumPy rejects a write through the
  read-only views.  A slot whose neighbor is missing keeps whatever it was
  bound to (Lipizzaner's stale-entry tolerance).
* The cell owns **two slabs per kind**: the one its center was drawn into
  and a spare it allocates itself.  At any time one of them may hold the
  center; the other becomes the *work slab*: the selected individual is
  copied into it (the only genome memcpy of the step), the **trainee**
  :class:`~repro.gan.pair.GANPair` trains there, and the selected slot is
  re-pointed at it so opponents and the final fitness table see the
  individual as it trains.
* The trainee is not the cell's.  Its gradient slabs and optimizer moments
  are reset at every step, so they are scratch of the execution thread
  (:func:`~repro.gan.pair.thread_trainee`): every cell a thread steps
  borrows the same pair, hands it its loss, rebinds it onto its own
  work slabs and releases it from them when the step ends (so a dropped
  cell's slabs are freed though the thread lives on).  One thread steps
  one block, so a block — the whole grid of the sequential trainer, a
  slave's cells — holds one trainee.
* **Promotion is a pointer move.**  The center is never trained in place,
  so it is just "the vector of the current best": :meth:`_promote` rebinds
  the center networks onto the winner's vector — the work slab when the
  trainee won (the other slab is then next step's work slab), a
  neighbor's vector when a neighbor won.  Nothing is written, so slot 0
  still shows the pre-promotion center and the other slots what they
  showed during the step, which is what :meth:`subpopulation_generators`
  and :meth:`sample_from_mixture` report after a run.
* **An adopted vector is re-homed.**  :meth:`release_neighbors` copies a
  center that lies outside the cell's slabs into the work slab, which
  only the cell itself has seen.  (Not "whichever slab slot 0 does not
  show": a step that selects slot 0 re-points it at the work slab, so that
  rule would overwrite the gathered center, which another cell may have
  adopted.)
* **An exported vector is immutable.**  What leaves the cell is its
  center, and a center's slab is written again only once the center has
  moved off it, been released and stepped past — after every in-process
  consumer of that round is done with it.  So the sequential gather hands
  out :meth:`center_genomes` by reference (``alias=True``), and a run's
  result takes :meth:`export_center`, which also retires the buffers it
  hands out, so that no later step trains in them.
* **A lent vector holds still while anyone can reach it.**  A slave's
  exchange payload may sit in a send queue, or in a neighbour's slots,
  past the round it was made for.  :meth:`lend_center` hands the center
  out by reference as a *lease* (an array the cell holds a weak reference
  to), and :meth:`_work_slab` never trains in a slab under a live lease —
  it takes a fresh slab instead.  Only checkpoints and ``mixed16``'s
  quantized snapshots are copies.
* A stale slot can still be looking at a slab that is about to become the
  work slab (it was trained in an earlier step and its neighbor never
  answered since); it is given a private copy first.

Resident per cell, in genome pairs: two parameter slabs, and nothing else
once released — the cells of a sequential float64/float32 grid of ``c``
cells reach exactly ``2c`` parameter buffers per kind (``mixed16`` adds
one widened buffer per distinct neighbour vector).  Per execution thread:
one trainee — a gradient slab and the optimizer moments (two under Adam)
— and one optimizer scratch block.

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

import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.analysis import lockcheck
from repro.config import ExperimentConfig
from repro.coevolution.checkpoint import CellSnapshot
from repro.coevolution.fitness import evaluate_subpopulations
from repro.coevolution.genome import Genome, genome_from_network
from repro.coevolution.mixture import MixtureWeights, sample_mixture
from repro.coevolution.mutation import mutate_learning_rate
from repro.coevolution.selection import tournament_select
from repro.data.dataset import ArrayDataset, DataLoader
from repro.gan.networks import Discriminator, Generator
from repro.gan.pair import GANPair, thread_trainee
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

    def __init__(self, config: ExperimentConfig, cell_index: int, dataset: ArrayDataset | None,
                 neighborhood_size: int = NEIGHBORHOOD_SIZE):
        if neighborhood_size < 1:
            raise ValueError("neighborhood must contain at least the center")
        self.config = config
        self.cell_index = cell_index
        self.neighborhood_size = neighborhood_size
        self.rng = _cell_rng(config.seed, cell_index, stream=0)
        self.dataset = dataset
        self.loader: DataLoader | None = None  # built on the first batch drawn
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
        # Two slabs per kind: the center's and a spare.  The thread's
        # trainee moves between them; the center only ever points at one.
        # ``slabs[1]`` is the work slab: the one the last step trained in
        # (the spare before the first step).
        g_slab = arena_of(self.center.generator).data
        d_slab = arena_of(self.center.discriminator).data
        self._g_slabs = [g_slab, np.empty_like(g_slab)]
        self._d_slabs = [d_slab, np.empty_like(d_slab)]
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
        #: Buffers narrower-dtype genomes are widened into, reused per step.
        self._widened: list[np.ndarray] = []
        #: Weak references to the vectors :meth:`lend_center` handed out.
        self._leases: list[weakref.ref] = []
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
        zero copies, no quantization).  A center is never trained in place,
        so the borrowed bytes hold still until this cell has been released
        and stepped once more — long enough for every in-process consumer
        of one round: this cell's own :meth:`step` (a stand-in for a
        neighbor that did not answer) and the sequential trainer's gather.
        Never for payloads handed to a transport: a queued frame or a
        neighbour on another thread can outlive the round, so those take
        :meth:`lend_center`.
        """
        lr = self.center.learning_rate
        g = genome_from_network(self.center.generator, lr, self.loss_name, alias=alias)
        d = genome_from_network(self.center.discriminator, lr, self.loss_name, alias=alias)
        if not alias and g.parameters.dtype != self._storage_dtype:
            g = Genome(g.parameters.astype(self._storage_dtype), lr, self.loss_name)
            d = Genome(d.parameters.astype(self._storage_dtype), lr, self.loss_name)
        return g, d

    def export_center(self) -> tuple[Genome, Genome]:
        """The center pair for a consumer that keeps it (a run's result).

        The center vectors leave by reference, and the buffers they lie in
        are *retired*: made read-only, so no later step trains in them.  A
        cell whose work slab was retired allocates a fresh one
        (:meth:`_work_slab`) — this cell, or the neighbor whose slab a
        not yet re-homed center adopted.  Under a narrower storage dtype
        (``mixed16``) the center leaves as a quantized
        :meth:`center_genomes` copy.
        """
        if arena_of(self.center.generator).data.dtype != self._storage_dtype:
            return self.center_genomes()
        genomes = []
        for center in (self.center.generator, self.center.discriminator):
            held = arena_of(center).data       # a view: its base is the buffer
            if isinstance(held.base, np.ndarray):
                held.base.flags.writeable = False
            # A view of its own: the window may be a registered borrow
            # (center_genomes(alias=True)), the retired vector is not.
            genomes.append(Genome(held.view(), self.center.learning_rate, self.loss_name))
        return genomes[0], genomes[1]

    def lend_center(self) -> tuple[Genome, Genome]:
        """The center pair for one round's exchange payload, by reference.

        Each vector is a new read-only array over the center's memory,
        built on a ``memoryview`` so that whatever reads it — a receiving
        slot's view, the pickle buffer of a frame waiting in a send queue —
        keeps *that array* alive: the cell's weak reference to it is the
        *lease*.  While a lease lives, the slab under it is not written
        (:meth:`_work_slab` takes a fresh one), so the bytes hold still
        until the last frame carrying them is sent and the last consumer
        has let go, however late that is.  Under a narrower storage dtype
        (``mixed16``) the center leaves as a quantized
        :meth:`center_genomes` copy.
        """
        if arena_of(self.center.generator).data.dtype != self._storage_dtype:
            return self.center_genomes()
        self._leases = [lease for lease in self._leases if lease() is not None]
        genomes = []
        for center in (self.center.generator, self.center.discriminator):
            held = arena_of(center).data
            lent = np.frombuffer(memoryview(held), dtype=held.dtype)
            lockcheck.register_lent(lent, f"center of cell {self.cell_index}")
            self._leases.append(weakref.ref(lent))
            genomes.append(Genome(lent, self.center.learning_rate, self.loss_name))
        return genomes[0], genomes[1]

    def _lent(self, slab: np.ndarray) -> bool:
        """True while a vector :meth:`lend_center` handed out lies in ``slab``."""
        for lease in self._leases:
            lent = lease()
            if lent is not None and np.may_share_memory(lent, slab):
                return True
        return False

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
        # What the buffers widened this step must not overwrite: the
        # center's vectors and the slots that keep their binding.
        kept = [arena_of(network).data for network in (
            self.center.generator, self.center.discriminator,
            *self._sub_generators[len(neighbors) + 1:],
            *self._sub_discriminators[len(neighbors) + 1:])]
        widened: dict[int, np.ndarray] = {}
        for i, (g_genome, d_genome) in enumerate(neighbors, start=1):
            self._bind_genome(self._sub_generators[i], g_genome, widened, kept)
            self._bind_genome(self._sub_discriminators[i], d_genome, widened, kept)
            self._sub_lr[i] = g_genome.learning_rate

    def _bind_genome(self, slot, genome: Genome, widened: dict[int, np.ndarray],
                     kept: list[np.ndarray]) -> None:
        """Point ``slot`` at ``genome``'s vector; widen it first if narrower.

        A float16 ``mixed16`` vector cannot be computed on in place: it is
        widened once per step into a buffer of the cell's (``widened`` maps
        each vector already widened this step to its buffer), so slots
        handed one vector share one buffer, as they share the vector itself
        under float64/float32.  A buffer the center was promoted onto, or a
        slot that keeps its binding looks at, is left alone.
        """
        vector = genome.parameters
        dtype = arena_of(slot).data.dtype
        if vector.dtype != dtype:
            if id(vector) not in widened:
                busy = kept + list(widened.values())
                buffer = next((spare for spare in self._widened
                               if spare.shape == vector.shape and spare.dtype == dtype
                               and not any(np.may_share_memory(spare, held)
                                           for held in busy)), None)
                if buffer is None:
                    buffer = np.empty(vector.shape, dtype)
                    self._widened.append(buffer)
                np.copyto(buffer, vector)
                widened[id(vector)] = buffer
            vector = widened[id(vector)]
        _bind(slot, vector)

    def _load_trainee(self, g_idx: int, d_idx: int) -> GANPair:
        """Copy the selected individuals into the thread's trainee pair.

        The pair is :func:`~repro.gan.pair.thread_trainee`'s, given this
        cell's loss.  Per kind: take the slab the center is not using as the
        work slab, copy the selected slot's vector into it, bind the trainee
        network to it (writable) and re-point the slot at it, so that every
        later read of that slot this step sees the individual as it trains.
        """
        pair = thread_trainee(self.config)
        pair.loss = self.loss
        for slots, index, trainee, center, slabs in (
                (self._sub_generators, g_idx, pair.generator,
                 self.center.generator, self._g_slabs),
                (self._sub_discriminators, d_idx, pair.discriminator,
                 self.center.discriminator, self._d_slabs)):
            if np.may_share_memory(slabs[1], arena_of(center).data):
                slabs.reverse()     # the center was promoted or re-homed there
            work = self._work_slab(slabs)
            lockcheck.check_unlent(work, f"cell {self.cell_index} trains")
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
        return pair

    def _work_slab(self, slabs: list[np.ndarray]) -> np.ndarray:
        """``slabs[1]``, replaced by a fresh slab if it may not be written:
        :meth:`export_center` retired it, or a lease of :meth:`lend_center`
        over it is still alive."""
        if not slabs[1].flags.writeable or self._lent(slabs[1]):
            slabs[1] = np.empty_like(slabs[1])
        return slabs[1]

    def _unload_trainee(self, pair: GANPair) -> None:
        """Release the trainee from this cell's work slabs after the step.

        The thread keeps its pair after this cell — and its trainer — are
        gone; released, the pair keeps none of their memory alive.
        """
        arena_of(pair.generator).release()
        arena_of(pair.discriminator).release()

    def release_neighbors(self) -> None:
        """Let go of the neighbor vectors the last step was handed.

        A center that adopted a neighbor's vector is first *re-homed*: copied
        into the work slab, the slab the last step trained in — which no
        other cell has seen, since what leaves a cell is its center — and
        re-pointed there.  Then every slot is rebound onto the center — slot
        0 too, which still shows the pre-promotion center.  So the payloads
        and borrowed centers the slots and the center held are let go
        before the next gather hands out new ones, and a center is always
        in one of its cell's own slabs when it is gathered.  Every trainer
        calls this just before each gather; the next :meth:`step` binds
        every slot again, since a trainer always hands a cell all ``s − 1``
        neighbors (a missing one is stood in for by the center itself).
        Between a step and the next release the slots are untouched, so
        callbacks and post-run sampling see what the step saw.
        """
        for slots, center, slabs in (
                (self._sub_generators, self.center.generator, self._g_slabs),
                (self._sub_discriminators, self.center.discriminator, self._d_slabs)):
            vector = arena_of(center).data
            if not any(np.may_share_memory(slab, vector) for slab in slabs):
                vector = self._work_slab(slabs)
                np.copyto(vector, arena_of(center).data)
                _bind(center, vector)
            for slot in slots:
                _bind(slot, vector)

    # -- batching -----------------------------------------------------------------

    def _next_batch(self) -> np.ndarray:
        try:
            return next(self._batches)
        except StopIteration:
            if self.loader is None:
                # Its stream (seed, cell, 1) is its own, so building it late
                # moves no draw, and a cell that never trains needs no data.
                self.loader = DataLoader(self.dataset, self.config.training.batch_size,
                                         _cell_rng(self.config.seed, self.cell_index, stream=1))
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
            pair = self._load_trainee(g_idx, d_idx)

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
            self._unload_trainee(pair)

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

    # -- the cell's record ---------------------------------------------------------

    def snapshot(self, *, export: bool = False) -> CellSnapshot:
        """This cell's record at an iteration boundary: the center pair, a
        copy of the mixture weights and the iteration.

        The center is a :meth:`center_genomes` copy, or with ``export`` the
        vectors themselves, retired by :meth:`export_center` — for a record
        whose cell trains no more (a slave's result).  Either may be kept
        for good: neither is ever written again.
        """
        g_genome, d_genome = self.export_center() if export else self.center_genomes()
        return CellSnapshot(self.cell_index, self.iteration, g_genome, d_genome,
                            self.mixture.weights.copy())

    def restore(self, snapshot: CellSnapshot) -> None:
        """Restore this cell from its record (resume after a kill); its
        :meth:`snapshot` is then that record, bit for bit.

        Adopts the genomes' loss and learning rate and the record's
        iteration, and re-derives the RNG stream from ``(seed, cell,
        iteration)`` so the resumed run is deterministic per checkpoint.
        """
        if snapshot.cell_index != self.cell_index:
            raise ValueError(f"cell {self.cell_index} cannot restore the "
                             f"record of cell {snapshot.cell_index}")
        if snapshot.iteration < 0:
            raise ValueError("iteration must be >= 0")
        # Private copies (widened from the storage dtype if need be): the
        # record's arrays stay the caller's.
        for network, genome in ((self.center.generator, snapshot.generator_genome),
                                (self.center.discriminator, snapshot.discriminator_genome)):
            _bind(network, genome.parameters.astype(arena_of(network).data.dtype))
        self.loss_name = snapshot.generator_genome.loss_name
        self.loss = loss_by_name(self.loss_name)
        self.center.loss = self.loss
        self.center.learning_rate = snapshot.generator_genome.learning_rate
        self.mixture = MixtureWeights(snapshot.mixture_weights)
        # Verbatim: renormalising a normalised vector can move its last bits.
        np.copyto(self.mixture.weights, snapshot.mixture_weights)
        self.iteration = snapshot.iteration
        self.rng = _cell_rng(self.config.seed, self.cell_index, stream=4 + self.iteration)

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
