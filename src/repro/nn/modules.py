"""Neural-network modules: ``Module``, ``Linear``, ``Sequential``, activations.

The paper's Table I networks are plain MLPs; this module provides exactly the
layer vocabulary they need with a PyTorch-like API (``parameters()``,
``named_parameters()``, ``__call__`` forwarding to ``forward``).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.nn.arena import arena_of
from repro.nn.autograd import Tensor
from repro.nn.init import PARAM_DTYPE, xavier_normal

__all__ = [
    "Module",
    "Linear",
    "Sequential",
    "Tanh",
    "Sigmoid",
    "ReLU",
    "LeakyReLU",
    "Identity",
    "activation_module",
]


class Module:
    """Base class: containers of parameters and sub-modules.

    Sub-modules and parameters are discovered through attribute assignment,
    as in PyTorch.  Parameter order is deterministic (insertion order), which
    the genome flattening in :mod:`repro.nn.serialize` relies on.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def zero_grad(self) -> None:
        arena_of(self).zero_grads()

    # -- execution ---------------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Linear(Module):
    """Affine layer ``y = x W + b`` with ``W`` of shape ``(in, out)``.

    ``rng=None`` allocates the parameters without drawing them: their
    values are undefined until :meth:`reset_parameters` runs or the owning
    network is overwritten whole (a genome written into it).
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None,
                 init: Callable[..., np.ndarray] = xavier_normal, bias: bool = True,
                 dtype=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self._init = init
        dtype = np.dtype(dtype) if dtype is not None else np.dtype(PARAM_DTYPE)
        self.weight = Tensor(np.empty((in_features, out_features), dtype=dtype),
                             requires_grad=True)
        self.bias = (Tensor(np.empty((out_features,), dtype=dtype), requires_grad=True)
                     if bias else None)
        if rng is not None:
            self.reset_parameters(rng)

    def reset_parameters(self, rng: np.random.Generator) -> None:
        """Draw the initial weights from ``rng`` and zero the bias, in place."""
        weight = self.weight.data
        # Only non-default dtypes pass the keyword, so arbitrary custom init
        # callables (the documented ``(shape, rng) -> ndarray`` contract)
        # keep working under the float64 reference policy.
        weight[...] = (self._init(weight.shape, rng) if weight.dtype == PARAM_DTYPE
                       else self._init(weight.shape, rng, dtype=weight.dtype))
        if self.bias is not None:
            self.bias.data[...] = 0.0

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Linear({self.in_features}, {self.out_features})"


class Sequential(Module):
    """Container applying modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.2):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


_ACTIVATIONS: dict[str, Callable[[], Module]] = {
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "identity": Identity,
}


def activation_module(name: str) -> Module:
    """Instantiate the activation named in the configuration (Table I)."""
    try:
        return _ACTIVATIONS[name]()
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; known: {sorted(_ACTIVATIONS)}") from None
