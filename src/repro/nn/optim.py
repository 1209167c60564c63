"""Gradient-descent optimizers: Adam (Table I default), SGD, RMSprop.

Optimizers hold per-parameter state in preallocated buffers and update
parameters **in place** (``param.data`` is mutated) so that no reallocation
happens inside the training loop — the hot path of the whole system.

An optimizer is constructed over a *module* and updates the module's
:class:`~repro.nn.arena.ParameterArena`: the whole update is vectorized
sweeps over cache-sized spans of the flat parameter/gradient slabs, with no
per-step temporaries (the scratch is one span long and preallocated).

An optimizer follows its arena: it reads ``arena.data`` on every step, so
after :meth:`~repro.nn.arena.ParameterArena.rebind` it updates the newly
bound slab, and :meth:`Optimizer.reset` clears its moments in place — one
long-lived optimizer serves every individual a cell trains in turn.

The learning rate is a mutable attribute: the coevolutionary algorithm's
hyperparameter mutation (Table I: Gaussian noise, rate 1e-4, probability
0.5) adjusts ``optimizer.learning_rate`` between epochs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.arena import arena_of
from repro.nn.modules import Module
from repro.telemetry import bus as telemetry

__all__ = ["Optimizer", "SGD", "Adam", "RMSprop", "optimizer_by_name"]


class Optimizer:
    """Base class holding the module's arena and the mutable learning rate.

    Construction allocates the arena's gradient slab, so ``step()`` reads
    one flat gradient vector.
    """

    #: scratch vectors (one span long) the subclass's span update needs.
    _SCRATCH = 1

    def __init__(self, module: Module, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = float(learning_rate)
        self.arena = arena = arena_of(module)
        arena.ensure_grads()
        span = min(self.BLOCK_ELEMS, arena.size)
        self._scratch = np.empty((self._SCRATCH, span), dtype=arena.data.dtype)

    #: span length (elements) of the update; ~256 KiB per slab
    #: slice at float64 (half that at float32) keeps one span's working
    #: set cache-resident.
    BLOCK_ELEMS = 32_768

    def zero_grad(self) -> None:
        self.arena.zero_grads()

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self.step_blocked()

    def step_blocked(self, block: int | None = None) -> None:
        """The slab update, swept in cache-sized spans.

        The update is purely elementwise, so processing the slabs span by
        span performs exactly the same scalar operations per element as one
        whole-slab sweep — it only changes memory traffic: each span's
        slabs are touched while still cache-hot instead of streaming the
        whole network through every pass.  ``block`` (at most
        :attr:`BLOCK_ELEMS`, the scratch length) is for tests that want an
        odd span.
        """
        if telemetry.enabled():
            telemetry.count("optim.steps")
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
        """The flat moment slabs :meth:`reset` clears."""
        return []

    # -- update pieces ---------------------------------------------------------

    def _prepare_update(self):
        """Advance per-step state (e.g. Adam's ``t``) and return the scalars
        the span update needs.  Called exactly once per step."""
        raise NotImplementedError

    def _span_update(self, lo: int, hi: int, scalars) -> None:
        """Apply the elementwise update to slab span ``[lo, hi)``."""
        raise NotImplementedError

    # -- moment slabs and their per-parameter snapshots --------------------------

    def _flat_state(self) -> np.ndarray:
        """A zeroed moment slab sized and typed like the arena."""
        return np.zeros(self.arena.size, dtype=self.arena.data.dtype)

    def _snapshot(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter copies of a moment slab (the snapshot format)."""
        return [view.copy() for view in self.arena.views_of(flat)]

    def _restore(self, flat: np.ndarray, saved: list[np.ndarray]) -> None:
        for view, value in zip(self.arena.views_of(flat), saved):
            view[...] = value

    def state_arrays(self) -> dict[str, list[np.ndarray] | float | int]:
        """Return a picklable snapshot of the optimizer state."""
        return {"learning_rate": self.learning_rate}

    def load_state_arrays(self, state: dict) -> None:
        self.learning_rate = float(state["learning_rate"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    name = "sgd"

    def __init__(self, module: Module, learning_rate: float,
                 momentum: float = 0.0):
        super().__init__(module, learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity_flat = self._flat_state() if momentum else None

    def _prepare_update(self):
        return self.learning_rate

    def _span_update(self, lo: int, hi: int, lr: float) -> None:
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
        return [] if self._velocity_flat is None else [self._velocity_flat]

    def state_arrays(self) -> dict:
        state = super().state_arrays()
        state["momentum"] = self.momentum
        if self._velocity_flat is not None:
            state["velocity"] = self._snapshot(self._velocity_flat)
        return state

    def load_state_arrays(self, state: dict) -> None:
        super().load_state_arrays(state)
        if "velocity" in state and self._velocity_flat is not None:
            self._restore(self._velocity_flat, state["velocity"])


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015) — the paper's optimizer."""

    name = "adam"
    _SCRATCH = 2

    def __init__(self, module: Module, learning_rate: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        super().__init__(module, learning_rate)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.t = 0
        self._m_flat = self._flat_state()
        self._v_flat = self._flat_state()

    def _prepare_update(self):
        self.t += 1
        # Fold both bias corrections into one scalar step size.
        return self.learning_rate * np.sqrt(1.0 - self.beta2 ** self.t) \
            / (1.0 - self.beta1 ** self.t)

    def _span_update(self, lo: int, hi: int, corrected_lr: float) -> None:
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
        return [self._m_flat, self._v_flat]

    def state_arrays(self) -> dict:
        state = super().state_arrays()
        state.update(
            t=self.t,
            m=self._snapshot(self._m_flat),
            v=self._snapshot(self._v_flat),
            betas=(self.beta1, self.beta2),
            eps=self.eps,
        )
        return state

    def load_state_arrays(self, state: dict) -> None:
        super().load_state_arrays(state)
        self.t = int(state["t"])
        self._restore(self._m_flat, state["m"])
        self._restore(self._v_flat, state["v"])


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton), the optimizer used by the original Lipizzaner code."""

    name = "rmsprop"
    _SCRATCH = 2

    def __init__(self, module: Module, learning_rate: float,
                 alpha: float = 0.99, eps: float = 1e-8):
        super().__init__(module, learning_rate)
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        self.alpha = alpha
        self.eps = eps
        self._sq_flat = self._flat_state()

    def _prepare_update(self):
        return self.learning_rate

    def _span_update(self, lo: int, hi: int, lr: float) -> None:
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
        return [self._sq_flat]

    def state_arrays(self) -> dict:
        state = super().state_arrays()
        state["sq"] = self._snapshot(self._sq_flat)
        return state

    def load_state_arrays(self, state: dict) -> None:
        super().load_state_arrays(state)
        self._restore(self._sq_flat, state["sq"])


_OPTIMIZERS = {"sgd": SGD, "adam": Adam, "rmsprop": RMSprop}


def optimizer_by_name(name: str, module: Module, learning_rate: float) -> Optimizer:
    """Instantiate the optimizer named in the configuration (Table I)."""
    try:
        cls = _OPTIMIZERS[name]
    except KeyError:
        raise ValueError(f"unknown optimizer {name!r}; known: {sorted(_OPTIMIZERS)}") from None
    return cls(module, learning_rate)
