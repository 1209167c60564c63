"""Genomes: the unit of exchange between grid cells.

A :class:`Genome` is one network's flat parameter vector plus the evolvable
hyperparameters that travel with it (learning rate, loss name).  Cells
exchange *pairs* of genomes (generator + discriminator) — the "center" of
the paper's Fig. 1 — through the communication layer, and materialize them
back into networks with :func:`pair_from_genomes`.

The paper's Table IV profiles "update genomes" as one of the four dominant
routines.  Here a cell does not copy the gathered vectors at all: it binds
its sub-population slots onto them, read-only, and copies only the two
individuals it selects for training (see :mod:`repro.coevolution.cell`).
:meth:`Genome.write_into` remains the way to load a genome into a network
that owns its weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.gan.networks import Discriminator, Generator
from repro.gan.pair import GANPair
from repro.nn import loss_by_name
from repro.nn.modules import Module
from repro.nn.serialize import parameters_to_vector, vector_to_parameters

__all__ = ["Genome", "genome_from_network", "genome_from_pair", "pair_from_genomes"]


@dataclass
class Genome:
    """Flat parameters + evolvable hyperparameters of one network.

    Picklable (NumPy vector + plain scalars) so it can cross process
    boundaries through the MPI layer unchanged.

    Aliasing/ownership contract: a **contiguous float vector is adopted
    as-is, in its own dtype** — the genome aliases the caller's buffer,
    never copies it, and never re-promotes it (a float32 arena snapshot
    stays float32 through exchange, wire, and checkpoint).  That is what
    makes the zero-copy exchange path work (a genome borrowing a network's
    live :class:`~repro.nn.arena.ParameterArena` slab costs nothing to
    build), but it also means a caller that keeps training the source
    network must either pass a copy or consume the genome before the next
    update.  Non-contiguous or non-float input is normalized with exactly
    one copy (non-arrays and non-float dtypes become float64);
    :meth:`copy` always deep copies.  Contiguity is required so the vector
    rides the wire as a single out-of-band pickle-5 buffer instead of
    being escaped (and re-copied) inside the pickle stream.

    **A genome that has been exchanged is immutable.**  The consumer side
    is zero-copy too: ``Cell.step`` binds its slots straight onto the
    ``parameters`` arrays it is handed and keeps reading them until its
    next step, and one array reaches several readers — the sequential
    trainer hands one snapshot to four cells, thread and co-hosted socket
    ranks receive payloads by reference, a socket frame's arrays are
    windows onto its receive buffer.  So: whoever hands a genome to a cell
    or a transport gives up writing ``parameters``; a cell never writes
    what it was handed (its bindings are read-only views, and
    ``write_into`` a network bound that way is refused by NumPy); anyone
    who wants to change a received genome copies it first.
    """

    #: dtypes a genome vector may carry (the storage dtypes of the
    #: registered policies: float64/float32 arenas, float16 mixed16
    #: snapshots).
    FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32), np.dtype(np.float16))

    parameters: np.ndarray
    learning_rate: float
    loss_name: str

    def __post_init__(self) -> None:
        parameters = self.parameters
        if not isinstance(parameters, np.ndarray) or parameters.dtype not in self.FLOAT_DTYPES:
            parameters = np.asarray(parameters, dtype=np.float64)
        if not parameters.flags.c_contiguous:
            # One normalizing copy, only when actually needed — contiguous
            # float input keeps aliasing the caller's buffer (dtype intact).
            parameters = np.ascontiguousarray(parameters)
        self.parameters = parameters
        if self.parameters.ndim != 1:
            raise ValueError("genome parameters must be a flat vector")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")

    def copy(self) -> "Genome":
        return Genome(self.parameters.copy(), self.learning_rate, self.loss_name)

    def write_into(self, network: Module) -> None:
        """Copy this genome's parameters into ``network`` (in place)."""
        vector_to_parameters(self.parameters, network)

    def distance_to(self, other: "Genome") -> float:
        """L2 distance between parameter vectors (diversity diagnostics)."""
        if self.parameters.shape != other.parameters.shape:
            raise ValueError("genomes of different architectures")
        return float(np.linalg.norm(self.parameters - other.parameters))

    @property
    def size(self) -> int:
        return self.parameters.shape[0]


def genome_from_network(network: Module, learning_rate: float, loss_name: str,
                        out: np.ndarray | None = None, *,
                        alias: bool = False) -> Genome:
    """Snapshot a network into a genome (optionally into a reused buffer).

    ``alias=True`` borrows the network's live parameter arena with zero
    copies — legal only when the genome is consumed (written or copied)
    before the network trains again; see the contract on :class:`Genome`.
    """
    return Genome(parameters_to_vector(network, out=out, alias=alias),
                  learning_rate, loss_name)


def genome_from_pair(pair: GANPair) -> tuple[Genome, Genome]:
    """Snapshot a GAN pair into ``(generator_genome, discriminator_genome)``."""
    lr = pair.learning_rate
    name = pair.loss.name
    return (
        genome_from_network(pair.generator, lr, name),
        genome_from_network(pair.discriminator, lr, name),
    )


def pair_from_genomes(generator_genome: Genome, discriminator_genome: Genome,
                      config: ExperimentConfig, rng: np.random.Generator) -> GANPair:
    """Materialize a GAN pair from two genomes.

    Optimizer state starts fresh (Lipizzaner does not migrate moments with
    genomes); the learning rate and loss travel with the generator genome.
    """
    generator = Generator(config.network, rng)
    discriminator = Discriminator(config.network, rng)
    generator_genome.write_into(generator)
    discriminator_genome.write_into(discriminator)
    pair = GANPair(
        generator,
        discriminator,
        loss_by_name(generator_genome.loss_name),
        config.mutation.optimizer,
        generator_genome.learning_rate,
    )
    return pair
