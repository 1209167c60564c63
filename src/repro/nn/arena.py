"""Arena-backed parameters: one contiguous slab per network.

The hot loop of the whole system moves *flat parameter vectors*: every
iteration snapshots each network into a genome (``parameters_to_vector``),
ships it to neighbors, and makes the gathered genomes the weights of the
sub-population networks (the paper's profiled "update genomes" routine).
With parameters stored tensor-by-tensor those operations are Python loops
of small copies; with an arena a snapshot is **one contiguous slice copy
per network**, a gathered vector becomes a network's weights with **no copy
at all** (:meth:`ParameterArena.rebind`), and the optimizer update becomes
a fused vectorized sweep instead of a per-tensor loop.

:class:`ParameterArena` re-homes a module's parameters into a single
contiguous slab in the module's parameter dtype (the configured dtype
policy's compute dtype — float64 under the reference policy, float32 under
``float32``/``mixed16``): each parameter's ``.data`` becomes a reshaped view
into the slab (bit-identical values, same ``named_parameters()`` order the
genome layout already relies on).  A parallel *gradient slab* — allocated
lazily, because inference-only networks (e.g. serving ensembles) never need
it — gives ``.grad`` the same layout, which is what lets
:class:`~repro.nn.optim.Optimizer` fuse its update over the whole network.

Invariants the rest of the system depends on:

* **In-place discipline.** Arena-backed tensors must never have ``.data``
  or ``.grad`` rebound one by one; all writes go *through* the views
  (``p.data[...] = ...``).  :mod:`repro.nn.serialize` and
  :mod:`repro.nn.optim` honor this; so does autograd's gradient
  accumulation.  The one sanctioned rebinding is :meth:`ParameterArena.
  rebind`, which moves *all* parameters onto another flat vector at once.
* **Aliasing.** :attr:`ParameterArena.data` *is* the live parameter
  memory.  Callers that borrow it (``parameters_to_vector(alias=True)``)
  must copy before the network trains again, or hand it only to consumers
  that copy immediately (the zero-copy genome exchange path).
* **Rebinding.** After ``rebind(flat)`` the network *is* a window onto
  ``flat``: nothing was copied, ``flat`` stays alive for as long as the
  binding lasts, and every forward pass reads whatever ``flat`` holds at
  that moment.  A network bound to memory it does not own (a neighbour's
  genome vector, shared with other cells and threads) must be bound to a
  **read-only** view of it — then NumPy itself refuses the optimizer, a
  ``vector_to_parameters`` or a stray ``p.data[...] =`` that would write
  through.  Whoever trains a network binds it to a slab nobody else reads.
* **Pickling.** A module owns its arena (``module._arena``), so the arena
  crosses ``pickle``/``copy.deepcopy`` with it and re-homes the copied
  parameters into the copied slabs on arrival (:meth:`__setstate__`).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["ParameterArena", "attach_arena", "arena_of"]

#: serializes the first-request attach; every later lookup is lock-free.
_ATTACH_LOCK = threading.Lock()


class ParameterArena:
    """One contiguous slab backing all parameters of one module.

    The slab adopts the parameters' own dtype (all of a module's parameters
    must share one — a mixed-dtype module is a configuration bug and fails
    loudly here).  The gradient slab always matches the parameter slab.

    ``adopt_values=False`` re-homes the parameters without copying their
    current values into the slab — for modules allocated with undefined
    parameters (``rng=None``), whose values are written afterwards.
    """

    __slots__ = ("_data", "_grad", "_tensors", "_names", "_spans", "_shapes")

    def __init__(self, module, *, adopt_values: bool = True) -> None:
        named = list(module.named_parameters())
        if not named:
            raise ValueError("cannot build an arena for a module without parameters")
        total = sum(p.data.size for _, p in named)
        dtypes = {p.data.dtype for _, p in named}
        if len(dtypes) != 1:
            raise ValueError(
                f"module parameters span multiple dtypes {sorted(map(str, dtypes))}; "
                "an arena needs exactly one")
        if any(isinstance(p.data.base, np.ndarray) for _, p in named):
            raise ValueError(
                f"parameters of {type(module).__name__} are already views of "
                "another buffer (a sub-module of an arena-backed network?); "
                "ask the network that owns them")
        slab = np.empty(total, dtype=dtypes.pop())
        names: list[str] = []
        spans: list[tuple[int, int]] = []
        shapes: list[tuple[int, ...]] = []
        tensors = []
        offset = 0
        for name, param in named:
            n = param.data.size
            view = slab[offset:offset + n].reshape(param.data.shape)
            if adopt_values:
                view[...] = param.data  # adopt the initial values bit-exactly
            param.data = view
            names.append(name)
            spans.append((offset, offset + n))
            shapes.append(param.data.shape)
            tensors.append(param)
            offset += n
        self._data = slab
        self._grad: np.ndarray | None = None
        self._tensors = tensors
        self._names = tuple(names)
        self._spans = tuple(spans)
        self._shapes = tuple(shapes)

    # -- layout ----------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The live flat parameter vector (aliases every ``p.data``)."""
        return self._data

    @property
    def grad(self) -> np.ndarray | None:
        """The flat gradient vector, or ``None`` before :meth:`ensure_grads`."""
        return self._grad

    @property
    def size(self) -> int:
        return self._data.shape[0]

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def tensors(self) -> list:
        return list(self._tensors)

    def views_of(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter reshaped views of an external flat buffer.

        Used by the optimizers to snapshot their flat moment slabs in the
        per-parameter structure of ``state_arrays()``.
        """
        if flat.shape != (self.size,):
            raise ValueError(f"buffer shape {flat.shape} != ({self.size},)")
        return [flat[lo:hi].reshape(shape)
                for (lo, hi), shape in zip(self._spans, self._shapes)]

    def rebind(self, flat: np.ndarray) -> None:
        """Point every parameter at ``flat`` instead of the current slab.

        No copy: from here on the network reads (and, if ``flat`` is
        writable, the optimizer updates) ``flat`` itself, and
        :attr:`data` returns it.  The previous slab is simply released.
        ``flat`` must be a contiguous vector of this arena's size and
        dtype — the fused kernels and the gradient slab were built for
        that dtype, so a storage-dtype vector (``mixed16``'s float16) has
        to be widened by the caller first.  See the module docstring for
        who may bind what: pass a read-only view of anything borrowed.
        """
        if flat.shape != (self.size,):
            raise ValueError(f"vector shape {flat.shape} != ({self.size},)")
        if flat.dtype != self._data.dtype or not flat.flags.c_contiguous:
            raise ValueError(
                f"cannot bind a {flat.dtype} vector"
                f"{'' if flat.flags.c_contiguous else ' (non-contiguous)'} "
                f"to a {self._data.dtype} arena")
        for tensor, view in zip(self._tensors, self.views_of(flat)):
            tensor.data = view
        self._data = flat

    def release(self) -> None:
        """Let go of the current slab without binding another.

        Every parameter becomes a read-only view of one shared zero, so
        the network holds no weight memory until the next :meth:`rebind`
        — for a network that trains on borrowed slabs and must not keep
        them alive between uses.  The gradient slab is kept.
        """
        zero = np.zeros((), dtype=self._data.dtype)
        for tensor, shape in zip(self._tensors, self._shapes):
            tensor.data = np.broadcast_to(zero, shape)
        self._data = np.broadcast_to(zero, (self.size,))

    # -- gradients ---------------------------------------------------------------

    def ensure_grads(self) -> np.ndarray:
        """Allocate the gradient slab and re-home every ``p.grad`` into it.

        Lazy on purpose: only networks that actually train (an optimizer is
        constructed over them) pay for the second slab.  Gradients already
        accumulated into per-tensor buffers are adopted bit-exactly.
        """
        if self._grad is None:
            grad = np.zeros(self.size, dtype=self._data.dtype)
            for tensor, view in zip(self._tensors, self.views_of(grad)):
                if tensor.grad is not None:
                    view[...] = tensor.grad
                tensor.grad = view
            self._grad = grad
        return self._grad

    def zero_grads(self) -> None:
        """Reset every gradient with one fused fill (no-op before allocation)."""
        if self._grad is not None:
            self._grad.fill(0.0)
        else:
            for tensor in self._tensors:
                tensor.zero_grad()

    # -- integrity ----------------------------------------------------------------

    def backs(self, parameters) -> bool:
        """True when ``parameters`` is exactly this arena's tensor list.

        Identity comparison, in order — the guarantee the fused optimizer
        step needs before it may treat ``data``/``grad`` as *the* parameter
        and gradient vectors.
        """
        params = list(parameters)
        return len(params) == len(self._tensors) and all(
            p is t for p, t in zip(params, self._tensors)
        )

    # -- pickle / deepcopy ------------------------------------------------------

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        # Views arrive as standalone copies: make the parameters (and
        # gradients) windows onto the slabs that travelled with them again.
        self.rebind(self._data)
        if self._grad is not None:
            for tensor, view in zip(self._tensors, self.views_of(self._grad)):
                tensor.grad = view

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        grads = "with grads" if self._grad is not None else "no grads"
        return f"ParameterArena({len(self._tensors)} tensors, {self.size} params, {grads})"


def attach_arena(module, *, adopt_values: bool = True) -> ParameterArena:
    """Re-home ``module``'s parameters into a fresh arena (idempotent)."""
    with _ATTACH_LOCK:
        arena = module.__dict__.get("_arena")
        if arena is None:
            arena = module._arena = ParameterArena(module, adopt_values=adopt_values)
    return arena


def arena_of(module) -> ParameterArena:
    """The arena backing ``module``, attached on first request."""
    return module.__dict__.get("_arena") or attach_arena(module)
