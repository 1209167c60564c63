"""Graph-free train-step kernels: how every Linear+activation network runs.

An autograd :class:`~repro.nn.autograd.Tensor` forward/backward builds, per
batch, a tape of ~100 nodes (one heap allocation plus a closure pair per
op) for networks whose structure never changes: the paper's Table I stacks
are plain ``Linear -> activation`` chains.  A :class:`FusedStepKernel` is
built once per network from its :func:`layer_recipe`: it preallocates
activation/gradient workspaces sized to the batch, runs the forward with
``np.matmul(..., out=)`` and in-place activations, and runs the
hand-derived backward writing gradients *directly into the arena's gradient
slab* — no graph, no per-op allocation.

Bit-identity contract
---------------------
The kernels replay **exactly the same NumPy operations in the same order**
as the autograd tape (the oracle ``tests/conftest.py`` builds its
reference steps from), so with the same seed they produce the same genome
bytes (asserted by ``tests/test_nn_kernels.py`` down to a 50-iteration
training trajectory).  The rules that make this work:

* every elementwise/GEMM op mirrors one autograd forward op or one recorded
  VJP closure, operand order included (``out=`` buffers do not change
  result bits — verified for this BLAS by the test suite);
* row-blocking stability: with a contiguous weight operand and an output
  width >= 8, GEMM results are bitwise row-independent of the batch
  dimension (probed across this BLAS's kernel-dispatch regimes and
  asserted by the tests), so the real and fake batches of a discriminator
  step may ride one stacked forward; narrow (GEMV-path) output layers,
  every transposed-operand backward GEMM (``g @ W.T``), and the reduction
  GEMMs (``x.T @ g``) run per branch — exactly as the tape did — because
  there stability either fails empirically or would merge sums;
* gradient accumulation replays autograd's leaf order (real-branch
  contribution first, then fake) writing straight into the arena grad slab;
* the optimizer update runs through :meth:`repro.nn.optim.Optimizer.
  step_blocked` — the same elementwise pipeline, cache-blocked (elementwise
  ops have no cross-element interaction, so blocking cannot change bits).

Precision: kernels inherit the network's compute dtype from its arena slab
(the configured dtype policy; see :data:`repro.registry.DTYPES`).  The
tape-vs-kernel bit-identity above is asserted for the float64 reference
policy; float32/``mixed16`` runs instead pin *per-dtype determinism* —
same seed, same dtype, same trajectory across all backends — with their
own golden hashes.  Workspaces are keyed by dtype (it is part of the
kernel signature), so same-topology networks under different policies
never share buffers.

One path
--------
:func:`kernel_for` returns a network's kernel or raises ``ValueError``
naming what it cannot run; a loss outside the Mustangs trio differentiates
its own ``discriminator_loss``/``generator_loss`` on the logits alone
(:class:`_TapeLossKernel`) and enters the same hand-derived backward.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nn.arena import arena_of
from repro.nn.autograd import Tensor, no_grad
from repro.nn.losses import BCELoss, GANLoss, HeuristicLoss, LeastSquaresLoss
from repro.nn.modules import (
    Identity,
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.telemetry import bus as telemetry

__all__ = [
    "FusedStepKernel",
    "kernel_for",
    "loss_kernel_for",
    "layer_recipe",
]

# ---------------------------------------------------------------------------
# Layer recipes
# ---------------------------------------------------------------------------

#: activation tag per module type; the tag drives the in-place forward and
#: the hand-derived VJP in the backward sweep.
_ACTIVATION_TAGS = {
    Tanh: "tanh",
    Sigmoid: "sigmoid",
    ReLU: "relu",
    LeakyReLU: "leaky_relu",
    Identity: None,
}


def layer_recipe(module: Module) -> list[tuple[Linear, str | None, float | None]]:
    """Flatten a network into ``(linear, activation, slope)`` steps.

    A network *is* its leaf layers in registration order (what
    ``Sequential`` applies, however deeply nested).  Each must be a
    ``Linear`` with bias or a known activation, which folds onto the
    preceding linear step (``Identity`` is dropped); anything else is a
    ``ValueError`` naming the layer.
    """
    steps: list[tuple[Linear, str | None, float | None]] = []

    def unsupported(layer: Module, why: str) -> ValueError:
        return ValueError(f"{type(module).__name__} cannot run on the kernels: "
                          f"layer {type(layer).__name__} {why}")

    for layer in (m for m in module.modules() if not m._modules):
        if type(layer) is Linear:
            if layer.bias is None:
                raise unsupported(layer, f"({layer!r}) has no bias")
            steps.append((layer, None, None))
            continue
        if type(layer) not in _ACTIVATION_TAGS:
            raise unsupported(layer, "is neither Linear nor a known activation")
        tag = _ACTIVATION_TAGS[type(layer)]
        if tag is None:  # Identity: nothing to apply
            continue
        if not steps or steps[-1][1] is not None:
            raise unsupported(layer, "has no Linear of its own to fold onto")
        slope = float(layer.negative_slope) if tag == "leaky_relu" else None
        steps[-1] = (steps[-1][0], tag, slope)
    if not steps:
        raise ValueError(f"{type(module).__name__} has no Linear layer")
    return steps


# ---------------------------------------------------------------------------
# Workspaces (thread-local: the threaded backend steps cells concurrently)
# ---------------------------------------------------------------------------


class _WorkspaceStore(threading.local):
    def __init__(self) -> None:
        from collections import OrderedDict

        self.pools: "OrderedDict[tuple, _Workspace]" = OrderedDict()


_WORKSPACES = _WorkspaceStore()

#: LRU cap on cached workspaces per thread.  The training hot path cycles
#: through a handful of ``(topology, batch)`` keys per cell, but callers
#: like ``sample_mixture`` request *data-dependent* batch sizes (multinomial
#: counts), so an unbounded cache would grow a new multi-MB workspace for
#: every distinct size a long-lived process ever sees.
_WORKSPACE_CACHE_LIMIT = 32


class _Workspace:
    """Per-(topology, batch) activation/gradient buffers, shared by all
    same-shaped networks on one thread (buffers only live within one call).

    Only the forward activations are allocated eagerly; the backward-only
    buffers (gradients, the input stack, the reduction scratch) appear on
    first access so forward-only consumers — sampling, serving, the
    batched fitness table — pay half the footprint.
    """

    __slots__ = ("_in_dim", "_dims", "_n", "_dtype", "acts", "_grads",
                 "_x_stack", "_w_scratch", "_b_scratch")

    def __init__(self, in_dim: int, dims: tuple[int, ...], n: int,
                 dtype: np.dtype) -> None:
        self._in_dim = in_dim
        self._dims = dims
        self._n = n
        self._dtype = dtype
        self.acts = [np.empty((n, d), dtype=dtype) for d in dims]
        self._grads: list[np.ndarray] | None = None
        self._x_stack: np.ndarray | None = None
        self._w_scratch: list[np.ndarray] | None = None
        self._b_scratch: list[np.ndarray] | None = None

    @property
    def grads(self) -> list[np.ndarray]:
        if self._grads is None:
            self._grads = [np.empty((self._n, d), dtype=self._dtype)
                           for d in self._dims]
        return self._grads

    @property
    def x_stack(self) -> np.ndarray:
        if self._x_stack is None:
            self._x_stack = np.empty((self._n, self._in_dim), dtype=self._dtype)
        return self._x_stack

    @property
    def w_scratch(self) -> list[np.ndarray]:
        if self._w_scratch is None:
            self._w_scratch = [
                np.empty((prev, d), dtype=self._dtype)
                for prev, d in zip((self._in_dim,) + self._dims[:-1], self._dims)
            ]
        return self._w_scratch

    @property
    def b_scratch(self) -> list[np.ndarray]:
        if self._b_scratch is None:
            self._b_scratch = [np.empty(d, dtype=self._dtype) for d in self._dims]
        return self._b_scratch


def _workspace(signature: tuple, in_dim: int, dims: tuple[int, ...], n: int,
               dtype: np.dtype) -> _Workspace:
    # The dtype rides in ``signature`` (see ``FusedStepKernel.signature``),
    # so a float32 and a float64 network with the same topology never share
    # buffers; it is still passed here for the allocation itself.
    pools = _WORKSPACES.pools
    key = (signature, n)
    ws = pools.get(key)
    if ws is None:
        ws = _Workspace(in_dim, dims, n, dtype)
        pools[key] = ws
        while len(pools) > _WORKSPACE_CACHE_LIMIT:
            pools.popitem(last=False)
    else:
        pools.move_to_end(key)
    return ws


# ---------------------------------------------------------------------------
# The per-network kernel
# ---------------------------------------------------------------------------

class FusedStepKernel:
    """Graph-free forward/backward for one fixed Linear+activation stack.

    Holds references to the parameter tensors and the arena itself;
    workspaces are fetched per batch size on first use.  Every call reads
    ``tensor.data`` afresh, so the kernel stays valid across genome writes
    (``vector_to_parameters`` mutates the slab in place) and across
    :meth:`~repro.nn.arena.ParameterArena.rebind` (which swaps every
    tensor's ``data`` for a view of another vector of the same dtype).
    It lives on its module (``module._kernel``, see :func:`kernel_for`) and
    so travels with it through ``pickle``/``copy.deepcopy``.
    """

    __slots__ = ("arena", "steps", "in_dim", "dims", "dtype", "signature")

    def __init__(self, module: Module) -> None:
        self.steps = layer_recipe(module)
        self.arena = arena = arena_of(module)
        self.in_dim = self.steps[0][0].in_features
        self.dims = tuple(linear.out_features for linear, _, _ in self.steps)
        self.dtype = arena.data.dtype
        self.signature = (self.in_dim, str(self.dtype)) + tuple(
            (linear.out_features, act, slope) for linear, act, slope in self.steps
        )
        # The recipe must cover the arena exactly: the backward writes into
        # grad-slab views of precisely these tensors.
        params = []
        for linear, _, _ in self.steps:
            params.append(linear.weight)
            params.append(linear.bias)
        if not arena.backs(params):
            raise ValueError(f"{type(module).__name__} cannot run on the kernels: "
                             "it has parameters outside its Linear layers")

    # -- forward ------------------------------------------------------------

    def workspace(self, n: int) -> _Workspace:
        return _workspace(self.signature, self.in_dim, self.dims, n, self.dtype)

    def as_compute(self, a: np.ndarray) -> np.ndarray:
        """Batches/latents are drawn float64 (RNG-stream parity across
        policies); narrow them here so every GEMM stays on the homogeneous
        BLAS path.  A no-op under the float64 reference policy."""
        return a if a.dtype == self.dtype else a.astype(self.dtype)

    def forward(self, x: np.ndarray, ws: _Workspace | None = None,
                final_out: np.ndarray | None = None,
                branches: tuple[slice, ...] | None = None) -> np.ndarray:
        """Forward ``x`` (``(n, in_dim)``) through the stack, no tape.

        Mirrors ``Linear.forward`` + the activation modules op for op:
        ``matmul``, ``+= bias``, in-place activation.  ``final_out``
        redirects the last layer's buffer (e.g. a slice of a stacked fake
        batch) so the caller avoids one copy.  Returns the output buffer —
        a workspace (or ``final_out``) that is overwritten by the next call.

        ``branches`` lists the row blocks of a *stacked* batch that the
        autograd path would forward as separate calls.  Wide GEMMs are
        bitwise row-block-stable, so they run stacked regardless; but
        narrow output layers (width < 8 — empirically width 1 and 2 on
        this BLAS) take GEMV-style paths whose per-row bits *do* depend on
        the batch size — those layers run per branch (a ~k-multiply-per-row
        triviality) to stay bit-identical.
        """
        if telemetry.enabled():
            telemetry.count("kernels.forward")
        n = x.shape[0]
        if ws is None:
            ws = self.workspace(n)
        h = x
        last = len(self.steps) - 1
        for i, (linear, act, slope) in enumerate(self.steps):
            out = ws.acts[i] if (final_out is None or i != last) else final_out
            if branches is not None and linear.out_features < 8:
                for rows in branches:
                    np.matmul(h[rows], linear.weight.data, out=out[rows])
            else:
                np.matmul(h, linear.weight.data, out=out)
            out += linear.bias.data
            _apply_activation(act, slope, out)
            h = out
        return h

    # -- backward -----------------------------------------------------------

    def backward(self, x: np.ndarray, ws: _Workspace, grad_out: np.ndarray,
                 *, param_grads: bool = True, input_grad: bool = False,
                 branches: tuple[slice, ...] | None = None) -> np.ndarray | None:
        """Hand-derived backward from ``grad_out`` = dL/d(stack output).

        ``grad_out`` is a caller-filled gradient buffer (typically
        ``ws.grads[-1]``); each step's activation VJP is applied first, so
        ``grad_out`` is for the *post*-activation output.  The activation
        buffers in ``ws.acts`` are consumed (overwritten) as scratch on the
        way down — a workspace supports exactly one backward per forward.

        ``branches`` splits the batch into row ranges whose weight/bias
        reductions must stay separate (the discriminator step stacks real
        and fake rows in one forward; autograd reduces them per branch and
        sums — merging the ``x.T @ g`` GEMMs would change summation order).
        Contributions land in the arena grad slab in autograd's leaf order:
        first branch written, later branches accumulated.  The caller must
        have the gradient slab allocated (``arena.ensure_grads()`` — any
        arena-constructed optimizer does this).

        ``param_grads=False`` skips the weight/bias reductions (adversary
        network in a generator step — autograd computes then discards them;
        the kernel never computes them).  ``input_grad=True`` returns
        dL/d input in ``ws.x_stack`` (overwritten by this workspace's next
        use).
        """
        if telemetry.enabled():
            telemetry.count("kernels.backward")
        if branches is None:
            branches = (slice(None),)
        g = grad_out
        for i in range(len(self.steps) - 1, -1, -1):
            linear, act, slope = self.steps[i]
            _activation_vjp(act, slope, ws.acts[i], g)
            if param_grads:
                # acts[i - 1] is still intact here: only step i's own
                # activation buffer has been consumed so far.
                h_in = x if i == 0 else ws.acts[i - 1]
                w_view = linear.weight.grad
                b_view = linear.bias.grad
                for b_idx, rows in enumerate(branches):
                    # VJP of ``x @ W``: x.T @ g ; of ``+ bias``: sum over
                    # the broadcast (batch) axis — same expressions, same
                    # per-branch order as the recorded closures.
                    if b_idx == 0:
                        np.matmul(h_in[rows].T, g[rows], out=w_view)
                        np.sum(g[rows], axis=0, out=b_view)
                    else:
                        np.matmul(h_in[rows].T, g[rows], out=ws.w_scratch[i])
                        w_view += ws.w_scratch[i]
                        np.sum(g[rows], axis=0, out=ws.b_scratch[i])
                        b_view += ws.b_scratch[i]
            if i == 0:
                if not input_grad:
                    return None
                for rows in branches:
                    np.matmul(g[rows], linear.weight.data.T, out=ws.x_stack[rows])
                return ws.x_stack
            # dL/d h_{i-1} = g @ W.T; the next loop turn applies act_{i-1}.
            # Per branch: ``W.T`` is a transposed (non-contiguous) BLAS
            # operand, and transposed-B GEMMs are *not* row-block-stable at
            # all shapes — running each branch exactly as the tape did makes
            # bit-identity hold by construction rather than by probing.
            g_prev = ws.grads[i - 1]
            for rows in branches:
                np.matmul(g[rows], linear.weight.data.T, out=g_prev[rows])
            g = g_prev
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FusedStepKernel({self.in_dim} -> {' -> '.join(map(str, self.dims))})"


def _apply_activation(act: str | None, slope: float | None, out: np.ndarray) -> None:
    """In-place activation mirroring the autograd forward bits-for-bits."""
    if act is None:
        return
    if act == "tanh":
        np.tanh(out, out=out)
    elif act == "sigmoid":
        _sigmoid_inplace(out)
    elif act == "relu":
        # autograd: a * (a > 0) — multiply, not clip, to keep bits equal
        out *= out > 0
    elif act == "leaky_relu":
        # autograd: a * np.where(a > 0, 1.0, slope)
        out *= np.where(out > 0, 1.0, slope)
    else:  # pragma: no cover - recipe construction filters unknown tags
        raise ValueError(f"unknown activation tag {act!r}")


def _sigmoid_inplace(a: np.ndarray) -> None:
    """The numerically stable piecewise logistic of ``Tensor.sigmoid``."""
    pos = a >= 0
    neg = ~pos
    ap = a[pos]
    a[pos] = 1.0 / (1.0 + np.exp(-ap))
    ea = np.exp(a[neg])
    a[neg] = ea / (1.0 + ea)


def _sigmoid_of(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stable logistic into ``out`` (same ops as the autograd closures)."""
    pos = a >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[neg])
    out[neg] = ea / (1.0 + ea)
    return out


def _activation_vjp(act: str | None, slope: float | None, out_act: np.ndarray,
                    g: np.ndarray) -> None:
    """Multiply ``g`` in place by d(activation)/d(pre-activation).

    Each branch replays the exact expression of the recorded VJP closure;
    ``out_act`` is the *post*-activation buffer (for every supported
    activation the VJP is recoverable from it alone) and is **consumed** —
    it doubles as the scratch buffer, because by the time a step's VJP
    runs its activation values have no further reader.
    """
    if act is None:
        return
    if act == "tanh":
        # closure: g * (1.0 - out * out)
        np.multiply(out_act, out_act, out=out_act)
        np.subtract(1.0, out_act, out=out_act)
        g *= out_act
    elif act == "sigmoid":
        # closure: g * out * (1.0 - out) — evaluated left to right
        g *= out_act
        np.subtract(1.0, out_act, out=out_act)
        g *= out_act
    elif act == "relu":
        # closure: g * mask with mask = (a > 0); out > 0 iff a > 0
        g *= out_act > 0
    elif act == "leaky_relu":
        # closure: g * np.where(a > 0, 1.0, slope); sign(out) == sign(a)
        g *= np.where(out_act > 0, 1.0, slope)
    else:  # pragma: no cover
        raise ValueError(f"unknown activation tag {act!r}")


def kernel_for(module: Module) -> FusedStepKernel:
    """The kernel that runs ``module``, built on first request.

    Raises ``ValueError`` naming the layer when the stack is not a
    Linear+activation chain.  Two threads asking first at once build two
    interchangeable kernels and one is kept: a kernel holds no state.
    """
    kernel = module.__dict__.get("_kernel")
    if kernel is None:
        kernel = module._kernel = FusedStepKernel(module)
    return kernel


# ---------------------------------------------------------------------------
# Loss kernels (hand-derived for the Mustangs trio, tape-on-logits otherwise)
# ---------------------------------------------------------------------------


class _LossKernel:
    """Scalar values and logits-gradients for one GAN loss formulation.

    What the train steps and the fitness table call is :meth:`d_step`,
    :meth:`g_step`, :meth:`g_value` and :meth:`table_column`; the
    hand-derived kernels build the first and last from the pieces below,
    each replaying the autograd ops of the corresponding
    ``GANLoss``/``functional`` code path (see the derivations in
    ``tests/test_nn_kernels.py``) and folding the constant ``1/count`` mean
    factor the way the recorded tape does.
    """

    def d_step(self, logits, n_real: int, out) -> float:
        """Discriminator loss of the stacked ``[real; fake]`` logits;
        writes dL/d logits into ``out``."""
        value = self.d_value(logits[:n_real], logits[n_real:])
        self.d_grad(logits, n_real, out)
        return value

    def g_step(self, fake_logits, out) -> float:
        """Generator loss of ``fake_logits``; writes dL/d logits into ``out``."""
        value = self.g_value(fake_logits)
        self.g_grad(fake_logits, out)
        return value

    def table_column(self, real_logits: np.ndarray,
                     fake_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One discriminator's column of the s x s table: the generator and
        discriminator losses of each of the ``s`` row blocks of ``fake_rows``
        (``(s, n)``) against ``real_logits`` (``(n, 1)``)."""
        return (self.g_value_rows(fake_rows),
                self.d_real_value(real_logits) + self.d_fake_value_rows(fake_rows))

    def d_value(self, real_logits, fake_logits) -> float:
        raise NotImplementedError

    def g_value(self, fake_logits) -> float:
        raise NotImplementedError

    def d_grad(self, logits, n_real: int, out) -> None:
        """dL/d logits for the stacked ``[real; fake]`` discriminator loss."""
        raise NotImplementedError

    def g_grad(self, fake_logits, out) -> None:
        raise NotImplementedError

    # -- batched fitness-table helpers (rows = one generator's batch) ------

    def g_value_rows(self, logits_rows: np.ndarray) -> np.ndarray:
        """Generator loss per row-block: ``logits_rows`` is ``(s, n)``."""
        raise NotImplementedError

    def d_fake_value_rows(self, logits_rows: np.ndarray) -> np.ndarray:
        """Fake-term of the discriminator loss per row-block."""
        raise NotImplementedError

    def d_real_value(self, real_logits: np.ndarray) -> float:
        """Real-term of the discriminator loss (scalar per discriminator)."""
        raise NotImplementedError


def _softplus(a: np.ndarray) -> np.ndarray:
    """``log(1 + exp(a))`` exactly as ``Tensor.softplus`` computes it."""
    return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))


def _mean_all(per_element: np.ndarray) -> np.float64:
    """``Tensor.mean()``: full pairwise sum, then one multiply by 1/count."""
    return per_element.sum() * np.float64(1.0 / per_element.size)


def _mean_rows(per_element_rows: np.ndarray, count: int) -> np.ndarray:
    """Row-block means of an ``(s, n)`` array, same reduce order as 2-D sum."""
    return per_element_rows.sum(axis=1) * np.float64(1.0 / count)


class _BceDiscMixin(_LossKernel):
    """The BCE discriminator objective shared by ``bce`` and ``heuristic``.

    ``d_loss = mean(softplus(r) - r) + mean(softplus(f))`` (targets 1 and 0
    folded: ``x*1.0 == x`` bitwise and ``softplus(x) - x*0.0 == softplus(x)``
    for finite logits).
    """

    def d_value(self, real_logits, fake_logits) -> float:
        real_term = _mean_all(_softplus(real_logits) - real_logits)
        fake_term = _mean_all(_softplus(fake_logits))
        return float(real_term + fake_term)

    def d_grad(self, logits, n_real: int, out) -> None:
        # Per branch the tape yields grad = sigmoid(x) * c + (-c) * t with
        # c = 1/count; the fake branch's t == 0 term adds a signed zero,
        # which cannot change any downstream parameter bit.
        _sigmoid_of(logits, out)
        out[:n_real] *= np.float64(1.0 / n_real)
        n_fake = logits.shape[0] - n_real
        out[n_real:] *= np.float64(1.0 / n_fake)
        out[:n_real] += -np.float64(1.0 / n_real)

    def d_fake_value_rows(self, logits_rows: np.ndarray) -> np.ndarray:
        return _mean_rows(_softplus(logits_rows), logits_rows.shape[1])

    def d_real_value(self, real_logits: np.ndarray) -> float:
        return float(_mean_all(_softplus(real_logits) - real_logits))


class _BceLossKernel(_BceDiscMixin):
    """Original minimax objective: saturating generator term."""

    def g_value(self, fake_logits) -> float:
        # -(BCE(fake, 0)) == -(mean(softplus(f)))
        return float(-(_mean_all(_softplus(fake_logits))))

    def g_grad(self, fake_logits, out) -> None:
        # Tape: seed -> neg -> mean -> softplus VJP: grad = sigmoid(f) * (-c)
        _sigmoid_of(fake_logits, out)
        out *= -np.float64(1.0 / fake_logits.size)

    def g_value_rows(self, logits_rows: np.ndarray) -> np.ndarray:
        return -(_mean_rows(_softplus(logits_rows), logits_rows.shape[1]))


class _HeuristicLossKernel(_BceDiscMixin):
    """Non-saturating heuristic generator: ``BCE(fake, 1)``."""

    def g_value(self, fake_logits) -> float:
        return float(_mean_all(_softplus(fake_logits) - fake_logits))

    def g_grad(self, fake_logits, out) -> None:
        c = np.float64(1.0 / fake_logits.size)
        _sigmoid_of(fake_logits, out)
        out *= c
        out += -c

    def g_value_rows(self, logits_rows: np.ndarray) -> np.ndarray:
        return _mean_rows(_softplus(logits_rows) - logits_rows, logits_rows.shape[1])


class _LeastSquaresLossKernel(_LossKernel):
    """LSGAN: squared error of ``sigmoid(logits)`` against the labels."""

    @staticmethod
    def _mse_grad_through_sigmoid(p: np.ndarray, diff: np.ndarray, count: int,
                                  out: np.ndarray) -> None:
        # Tape: mean -> (diff*diff) both-parent accumulation (exact doubling)
        # -> subtract -> sigmoid VJP ((g * out) * (1 - out)).
        np.multiply(diff, np.float64(1.0 / count), out=out)
        out *= 2.0
        out *= p
        out *= 1.0 - p

    def d_value(self, real_logits, fake_logits) -> float:
        rp = np.empty_like(real_logits)
        fp = np.empty_like(fake_logits)
        _sigmoid_of(real_logits, rp)
        _sigmoid_of(fake_logits, fp)
        rd = rp - 1.0
        real_term = _mean_all(rd * rd)
        fake_term = _mean_all(fp * fp)
        return float(real_term + fake_term)

    def g_value(self, fake_logits) -> float:
        fp = np.empty_like(fake_logits)
        _sigmoid_of(fake_logits, fp)
        fd = fp - 1.0
        return float(_mean_all(fd * fd))

    def d_grad(self, logits, n_real: int, out) -> None:
        p = np.empty_like(logits)
        _sigmoid_of(logits, p)
        n_fake = logits.shape[0] - n_real
        self._mse_grad_through_sigmoid(
            p[:n_real], p[:n_real] - 1.0, n_real, out[:n_real])
        self._mse_grad_through_sigmoid(
            p[n_real:], p[n_real:] - 0.0, n_fake, out[n_real:])

    def g_grad(self, fake_logits, out) -> None:
        p = np.empty_like(fake_logits)
        _sigmoid_of(fake_logits, p)
        self._mse_grad_through_sigmoid(p, p - 1.0, fake_logits.size, out)

    def g_value_rows(self, logits_rows: np.ndarray) -> np.ndarray:
        p = np.empty_like(logits_rows)
        _sigmoid_of(logits_rows, p)
        d = p - 1.0
        return _mean_rows(d * d, logits_rows.shape[1])

    def d_fake_value_rows(self, logits_rows: np.ndarray) -> np.ndarray:
        p = np.empty_like(logits_rows)
        _sigmoid_of(logits_rows, p)
        return _mean_rows(p * p, logits_rows.shape[1])

    def d_real_value(self, real_logits: np.ndarray) -> float:
        p = np.empty_like(real_logits)
        _sigmoid_of(real_logits, p)
        d = p - 1.0
        return float(_mean_all(d * d))


class _TapeLossKernel(_LossKernel):
    """Any other ``GANLoss``: its own methods, differentiated on the logits.

    The tape sees only the ``(n, 1)`` logits — never a network — and hands
    back the value and dL/d logits the hand-derived kernels would; a loss
    that ignores an input leaves that block of the gradient zero.
    """

    def __init__(self, loss: GANLoss) -> None:
        self.loss = loss

    @staticmethod
    def _grad_into(out: np.ndarray, leaf: Tensor) -> None:
        out[...] = 0.0 if leaf.grad is None else leaf.grad

    def d_step(self, logits, n_real: int, out) -> float:
        real = Tensor(logits[:n_real], requires_grad=True)
        fake = Tensor(logits[n_real:], requires_grad=True)
        value = self.loss.discriminator_loss(real, fake)
        value.backward()
        self._grad_into(out[:n_real], real)
        self._grad_into(out[n_real:], fake)
        return value.item()

    def g_step(self, fake_logits, out) -> float:
        fake = Tensor(fake_logits, requires_grad=True)
        value = self.loss.generator_loss(fake)
        value.backward()
        self._grad_into(out, fake)
        return value.item()

    def g_value(self, fake_logits) -> float:
        with no_grad():
            return self.loss.generator_loss(Tensor(fake_logits)).item()

    def table_column(self, real_logits, fake_rows):
        s, n = fake_rows.shape
        g_col, d_col = np.empty(s), np.empty(s)
        with no_grad():
            real = Tensor(real_logits)
            for i in range(s):
                fake = Tensor(fake_rows[i].reshape(n, 1))
                g_col[i] = self.loss.generator_loss(fake).item()
                d_col[i] = self.loss.discriminator_loss(real, fake).item()
        return g_col, d_col


_LOSS_KERNELS: dict[type, _LossKernel] = {
    BCELoss: _BceLossKernel(),
    HeuristicLoss: _HeuristicLossKernel(),
    LeastSquaresLoss: _LeastSquaresLossKernel(),
}


def loss_kernel_for(loss: GANLoss) -> _LossKernel:
    """The hand-derived kernel for exactly the Mustangs trio — a subclass
    may override a method — and the tape-on-logits adapter otherwise."""
    return _LOSS_KERNELS.get(type(loss)) or _TapeLossKernel(loss)
