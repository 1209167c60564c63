"""The cellular competitive-coevolution core (Lipizzaner/Mustangs).

Two populations — generators and discriminators — live on a toroidal grid,
one pair per cell.  Every cell trains its pair against the sub-population
formed by its Moore-5 neighborhood (itself + W/N/E/S), with tournament
selection, Gaussian learning-rate mutation and (1+1)-ES mixture-weight
evolution (paper Section II-B, Table I).

The block step in :mod:`repro.coevolution.cell` (``step_block``) is *the
same code object* executed by the single-core baseline
(:mod:`repro.coevolution.sequential`, one block: the whole grid) and by
every slave of the distributed implementation (:mod:`repro.parallel`, one
block: the cells its rank hosts); only the neighbor-exchange transport
differs.
That is precisely the structure of the paper's system, and it is what makes
the Table III single-core-vs-distributed comparison apples-to-apples.
"""

from repro.coevolution.grid import ToroidalGrid, moore_neighborhood, von_neumann_neighborhood
from repro.coevolution.genome import Genome, genome_from_pair, pair_from_genomes
from repro.coevolution.selection import tournament_select
from repro.coevolution.mutation import mutate_learning_rate
from repro.coevolution.mixture import MixtureWeights, evolve_mixture, sample_mixture
from repro.coevolution.fitness import FitnessTable, evaluate_subpopulations
from repro.coevolution.cell import Cell, CellReport, step_block
from repro.coevolution.checkpoint import TrainingCheckpoint, load_checkpoint, save_checkpoint
from repro.coevolution.sequential import SequentialTrainer

__all__ = [
    "ToroidalGrid",
    "moore_neighborhood",
    "von_neumann_neighborhood",
    "Genome",
    "genome_from_pair",
    "pair_from_genomes",
    "tournament_select",
    "mutate_learning_rate",
    "MixtureWeights",
    "evolve_mixture",
    "sample_mixture",
    "FitnessTable",
    "evaluate_subpopulations",
    "Cell",
    "CellReport",
    "step_block",
    "TrainingCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "SequentialTrainer",
]
