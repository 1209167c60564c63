"""Flattening module parameters to/from genome vectors.

Grid cells exchange *genomes*: the flat parameter vector of a network plus
its hyperparameters.  The paper's profiling (Table IV) has a dedicated
"update genomes" routine — getting neighbor parameters into the local
sub-population.  A cell does that by *binding* networks onto the gathered
arrays (:meth:`repro.nn.arena.ParameterArena.rebind`) and copies, with
these functions, only what it snapshots, trains or restores.

Flattening order is the deterministic ``named_parameters()`` order, so two
structurally identical networks round-trip bit-exactly.

Every module's parameters live in a :class:`~repro.nn.arena.ParameterArena`,
so flattening and un-flattening are **one contiguous slice copy** (or no
copy at all with ``alias=True``).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import lockcheck
from repro.nn.arena import arena_of
from repro.nn.modules import Module

__all__ = [
    "parameters_to_vector",
    "vector_to_parameters",
    "state_dict",
    "load_state_dict",
    "count_parameters",
]


def count_parameters(module: Module) -> int:
    """Total number of scalar parameters in ``module``."""
    return arena_of(module).size


def parameters_to_vector(module: Module, out: np.ndarray | None = None, *,
                         alias: bool = False) -> np.ndarray:
    """Copy all parameters into one flat vector (the module's dtype).

    ``out`` may be a preallocated buffer of the right size (the distributed
    runner reuses one buffer per neighbor to avoid per-iteration allocation).

    ``alias=True`` (``out=None`` only) returns the arena's **live** parameter
    memory with zero copies.  The caller owns the aliasing hazard: copy
    before the network trains again, or hand the vector only to consumers
    that copy immediately (see the contract on
    :class:`~repro.coevolution.genome.Genome`).
    """
    data = arena_of(module).data
    if out is None:
        if alias:
            # Under REPRO_LOCKCHECK the borrow is tracked: use from
            # another thread or inside an outgoing payload is reported.
            lockcheck.register_alias(
                data, f"arena[{type(module).__name__}]")
            return data
        return data.copy()
    if out.shape != data.shape:
        raise ValueError(f"buffer shape {out.shape} != {data.shape}")
    np.copyto(out, data)
    return out


def vector_to_parameters(vector: np.ndarray, module: Module) -> None:
    """Write a flat vector back into the module's parameters (in place).

    The incoming vector may be in a *storage* dtype narrower than the
    module's parameters (a float16 ``mixed16`` genome into a float32
    arena): the in-place copy widens it.  The cast is explicit and local —
    the arena's own dtype never changes.

    The module must own its weights: one whose arena was rebound onto a
    read-only view of somebody else's vector (a cell's sub-population
    slot) raises ``ValueError`` instead of writing through.
    """
    vector = np.asarray(vector)
    arena = arena_of(module)
    if vector.shape != (arena.size,):
        raise ValueError(f"vector shape {vector.shape} != ({arena.size},)")
    if vector is not arena.data:  # self-assignment: already in place
        np.copyto(arena.data, vector, casting="unsafe")


def state_dict(module: Module) -> dict[str, np.ndarray]:
    """Name → copied array mapping, mirroring ``torch.nn.Module.state_dict``.

    Always deep copies — a state dict must never alias a live arena slab
    (checkpoints written from it would otherwise mutate under training).
    """
    return {name: p.data.copy() for name, p in module.named_parameters()}


def load_state_dict(module: Module, state: dict[str, np.ndarray]) -> None:
    """Load arrays produced by :func:`state_dict` (strict: names must match).

    Writes are in place (``param.data[...] = value``), so arena backing —
    and any optimizer holding the arena — survives a state-dict load.
    """
    own = dict(module.named_parameters())
    missing = set(own) - set(state)
    unexpected = set(state) - set(own)
    if missing or unexpected:
        raise KeyError(f"state dict mismatch; missing={sorted(missing)} unexpected={sorted(unexpected)}")
    for name, param in own.items():
        value = np.asarray(state[name], dtype=param.data.dtype)
        if value.shape != param.data.shape:
            raise ValueError(f"shape mismatch for {name}: {value.shape} != {param.data.shape}")
        param.data[...] = value
