"""Gradient-descent optimizers: Adam (Table I default), SGD, RMSprop.

Optimizers hold per-parameter state in preallocated buffers and update
parameters **in place** (``param.data`` is mutated) so that no reallocation
happens inside the training loop — the hot path of the whole system.

Fused path: constructed with the :class:`~repro.nn.arena.ParameterArena`
that backs its parameters, an optimizer performs its whole update as
vectorized sweeps over cache-sized spans of the flat parameter/gradient
slabs — no per-tensor Python loop, no per-step temporaries (the scratch is
one span long and preallocated).  The fused update applies exactly the same
elementwise operations in the same order as the per-tensor loop, so
trajectories are bit-identical; the per-tensor loop remains for arena-less
parameter lists and as the measured "before" path of
``benchmarks/test_genome_path.py``.

An optimizer follows its arena: it reads ``arena.data`` on every step, so
after :meth:`~repro.nn.arena.ParameterArena.rebind` it updates the newly
bound slab, and :meth:`Optimizer.reset` clears its moments in place — one
long-lived optimizer serves every individual a cell trains in turn.

The learning rate is a mutable attribute: the coevolutionary algorithm's
hyperparameter mutation (Table I: Gaussian noise, rate 1e-4, probability
0.5) adjusts ``optimizer.learning_rate`` between epochs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.arena import ParameterArena
from repro.nn.autograd import Tensor
from repro.telemetry import bus as telemetry

__all__ = ["Optimizer", "SGD", "Adam", "RMSprop", "optimizer_by_name"]


class Optimizer:
    """Base class storing the parameter list and the mutable learning rate.

    ``arena`` opts into the fused slab update; it must be exactly the arena
    backing ``parameters`` (validated here, loudly) and implies eager
    gradient-slab allocation so ``step()`` can read one flat vector.
    """

    #: scratch vectors (one span long) the subclass's span update needs.
    _SCRATCH = 1

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float,
                 arena: ParameterArena | None = None):
        self.parameters: list[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = float(learning_rate)
        if arena is not None and not arena.backs(self.parameters):
            raise ValueError(
                "arena does not back this parameter list; pass "
                "arena_of(module) together with module.parameters()")
        self.arena = arena
        if arena is not None:
            arena.ensure_grads()
            span = min(self.BLOCK_ELEMS, arena.size)
            self._scratch = np.empty((self._SCRATCH, span), dtype=arena.data.dtype)

    #: span length (elements) of the fused update; ~256 KiB per slab
    #: slice at float64 (half that at float32) keeps one span's working
    #: set cache-resident.
    BLOCK_ELEMS = 32_768

    def zero_grad(self) -> None:
        if self.arena is not None:
            self.arena.zero_grads()
            return
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self.step_blocked()

    def step_blocked(self, block: int | None = None) -> None:
        """The fused slab update, swept in cache-sized spans.

        The update is purely elementwise, so processing the slabs span by
        span performs exactly the same scalar operations per element as one
        whole-slab sweep (or the per-tensor loop, which is what runs
        without an arena) — it only changes memory traffic: each span's
        slabs are touched while still cache-hot instead of streaming the
        whole network through every pass.  ``block`` (at most
        :attr:`BLOCK_ELEMS`, the scratch length) is for tests that want an
        odd span.
        """
        if telemetry.enabled():
            telemetry.count("optim.steps")
        if self.arena is None:
            self._step_per_tensor()
            return
        scalars = self._prepare_update()
        size = self.arena.size
        block = min(block or self.BLOCK_ELEMS, self.BLOCK_ELEMS)
        for lo in range(0, size, block):
            self._span_update(lo, min(lo + block, size), scalars)

    def reset(self, learning_rate: float) -> None:
        """Forget every moment, in place, and take a new learning rate.

        Equivalent to constructing a fresh optimizer over the same
        parameters — what a cell needs each time it starts training another
        individual — without reallocating the state slabs.
        """
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = float(learning_rate)
        for state in self._state_arrays():
            state.fill(0.0)

    def _state_arrays(self) -> list[np.ndarray]:
        """The moment buffers :meth:`reset` clears (flat slabs when fused)."""
        return []

    def _step_per_tensor(self) -> None:
        """The arena-less update: one Python loop turn per parameter."""
        raise NotImplementedError

    # -- fused update pieces (arena path only) -------------------------------

    def _prepare_update(self):
        """Advance per-step state (e.g. Adam's ``t``) and return the scalars
        the span update needs.  Called exactly once per step."""
        raise NotImplementedError

    def _span_update(self, lo: int, hi: int, scalars) -> None:
        """Apply the elementwise update to slab span ``[lo, hi)``."""
        raise NotImplementedError

    # -- fused-state helpers ---------------------------------------------------

    def _flat_state(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """A zeroed slab sized like the arena plus its per-parameter views.

        The views give fused state the same per-parameter structure as the
        legacy buffers, keeping :meth:`state_arrays` snapshots (used when
        genomes migrate between cells) format-compatible either way.
        """
        assert self.arena is not None
        flat = np.zeros(self.arena.size, dtype=self.arena.data.dtype)
        return flat, self.arena.views_of(flat)

    # -- state (de)serialization; used when genomes migrate between cells ----

    def state_arrays(self) -> dict[str, list[np.ndarray] | float | int]:
        """Return a picklable snapshot of the optimizer state."""
        return {"learning_rate": self.learning_rate}

    def load_state_arrays(self, state: dict) -> None:
        self.learning_rate = float(state["learning_rate"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    name = "sgd"

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float,
                 momentum: float = 0.0, arena: ParameterArena | None = None):
        super().__init__(parameters, learning_rate, arena=arena)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity_flat: np.ndarray | None = None
        if not momentum:
            self._velocity = None
        elif self.arena is not None:
            self._velocity_flat, self._velocity = self._flat_state()
        else:
            self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def _prepare_update(self):
        return self.learning_rate

    def _span_update(self, lo: int, hi: int, lr: float) -> None:
        # Each line mirrors one elementwise op of the per-tensor loop below,
        # in the same order, so the update is bit-identical.
        g = self.arena.grad[lo:hi]
        s = self._scratch[0, :hi - lo]
        data = self.arena.data[lo:hi]
        if self._velocity_flat is None:
            np.multiply(g, lr, out=s)           # == lr * grad elementwise
            data -= s
            return
        v = self._velocity_flat[lo:hi]
        v *= self.momentum
        v += g
        np.multiply(v, lr, out=s)
        data -= s

    def _state_arrays(self) -> list[np.ndarray]:
        if self._velocity_flat is not None:
            return [self._velocity_flat]
        return self._velocity or []

    def _step_per_tensor(self) -> None:
        lr = self.learning_rate
        if self._velocity is None:
            for p in self.parameters:
                if p.grad is not None:
                    p.data -= lr * p.grad
            return
        mu = self.momentum
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            v *= mu
            v += p.grad
            p.data -= lr * v

    def state_arrays(self) -> dict:
        state = super().state_arrays()
        state["momentum"] = self.momentum
        if self._velocity is not None:
            state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_arrays(self, state: dict) -> None:
        super().load_state_arrays(state)
        if "velocity" in state and self._velocity is not None:
            for v, saved in zip(self._velocity, state["velocity"]):
                v[...] = saved


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015) — the paper's optimizer."""

    name = "adam"
    _SCRATCH = 2

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 arena: ParameterArena | None = None):
        super().__init__(parameters, learning_rate, arena=arena)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.t = 0
        if self.arena is not None:
            self._m_flat, self._m = self._flat_state()
            self._v_flat, self._v = self._flat_state()
        else:
            self._m = [np.zeros_like(p.data) for p in self.parameters]
            self._v = [np.zeros_like(p.data) for p in self.parameters]

    def _prepare_update(self):
        self.t += 1
        # Fold both bias corrections into one scalar step size.
        return self.learning_rate * np.sqrt(1.0 - self.beta2 ** self.t) \
            / (1.0 - self.beta1 ** self.t)

    def _span_update(self, lo: int, hi: int, corrected_lr: float) -> None:
        # The fused sweep over one slab span; each line mirrors one
        # elementwise operation of the per-tensor loop below, in the
        # same order, so the update is bit-identical.
        b1, b2, eps = self.beta1, self.beta2, self.eps
        g = self.arena.grad[lo:hi]
        m, v = self._m_flat[lo:hi], self._v_flat[lo:hi]
        s, s2 = self._scratch[:, :hi - lo]
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)         # == (1 - b1) * g
        m += s
        v *= b2
        np.multiply(g, g, out=s)
        s *= 1.0 - b2                           # == (1 - b2) * (g * g)
        v += s
        np.sqrt(v, out=s)
        s += eps                                # == sqrt(v) + eps
        np.multiply(m, corrected_lr, out=s2)
        s2 /= s                                 # == corrected_lr * m / (...)
        data = self.arena.data[lo:hi]
        data -= s2

    def reset(self, learning_rate: float) -> None:
        super().reset(learning_rate)
        self.t = 0

    def _state_arrays(self) -> list[np.ndarray]:
        if self.arena is not None:
            return [self._m_flat, self._v_flat]
        return self._m + self._v

    def _step_per_tensor(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corrected_lr = self.learning_rate * np.sqrt(1.0 - b2 ** self.t) / (1.0 - b1 ** self.t)
        eps = self.eps
        for p, m, v in zip(self.parameters, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= corrected_lr * m / (np.sqrt(v) + eps)

    def state_arrays(self) -> dict:
        state = super().state_arrays()
        state.update(
            t=self.t,
            m=[m.copy() for m in self._m],
            v=[v.copy() for v in self._v],
            betas=(self.beta1, self.beta2),
            eps=self.eps,
        )
        return state

    def load_state_arrays(self, state: dict) -> None:
        super().load_state_arrays(state)
        self.t = int(state["t"])
        for m, saved in zip(self._m, state["m"]):
            m[...] = saved
        for v, saved in zip(self._v, state["v"]):
            v[...] = saved


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton), the optimizer used by the original Lipizzaner code."""

    name = "rmsprop"
    _SCRATCH = 2

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float,
                 alpha: float = 0.99, eps: float = 1e-8,
                 arena: ParameterArena | None = None):
        super().__init__(parameters, learning_rate, arena=arena)
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        self.alpha = alpha
        self.eps = eps
        if self.arena is not None:
            self._sq_flat, self._sq = self._flat_state()
        else:
            self._sq = [np.zeros_like(p.data) for p in self.parameters]

    def _prepare_update(self):
        return self.learning_rate

    def _span_update(self, lo: int, hi: int, lr: float) -> None:
        # Mirrors the per-tensor loop below op for op (bit-identical).
        alpha, eps = self.alpha, self.eps
        g = self.arena.grad[lo:hi]
        sq = self._sq_flat[lo:hi]
        s, s2 = self._scratch[:, :hi - lo]
        sq *= alpha
        np.multiply(g, g, out=s)
        s *= 1.0 - alpha                        # == (1 - alpha) * (g * g)
        sq += s
        np.sqrt(sq, out=s)
        s += eps                                # == sqrt(sq) + eps
        np.multiply(g, lr, out=s2)              # == lr * g
        s2 /= s
        data = self.arena.data[lo:hi]
        data -= s2

    def _state_arrays(self) -> list[np.ndarray]:
        return [self._sq_flat] if self.arena is not None else self._sq

    def _step_per_tensor(self) -> None:
        lr, alpha, eps = self.learning_rate, self.alpha, self.eps
        for p, sq in zip(self.parameters, self._sq):
            g = p.grad
            if g is None:
                continue
            sq *= alpha
            sq += (1.0 - alpha) * (g * g)
            p.data -= lr * g / (np.sqrt(sq) + eps)

    def state_arrays(self) -> dict:
        state = super().state_arrays()
        state["sq"] = [s.copy() for s in self._sq]
        return state

    def load_state_arrays(self, state: dict) -> None:
        super().load_state_arrays(state)
        for s, saved in zip(self._sq, state["sq"]):
            s[...] = saved


_OPTIMIZERS = {"sgd": SGD, "adam": Adam, "rmsprop": RMSprop}


def optimizer_by_name(name: str, parameters: Sequence[Tensor], learning_rate: float,
                      arena: ParameterArena | None = None) -> Optimizer:
    """Instantiate the optimizer named in the configuration (Table I).

    Pass the :class:`~repro.nn.arena.ParameterArena` backing ``parameters``
    to get the fused slab update (bit-identical, one vectorized sweep).
    """
    try:
        cls = _OPTIMIZERS[name]
    except KeyError:
        raise ValueError(f"unknown optimizer {name!r}; known: {sorted(_OPTIMIZERS)}") from None
    return cls(parameters, learning_rate, arena=arena)
