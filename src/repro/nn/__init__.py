"""A small, fast NumPy neural-network library (the PyTorch substitute).

The paper implements its GANs in PyTorch; this package provides the subset of
functionality the paper's networks need, built from scratch on NumPy:

* :mod:`repro.nn.arena` — :class:`ParameterArena`: one contiguous slab per
  network backing all parameters (and gradients), enabling single-memcpy
  genome flattening and fused optimizer steps.
* :mod:`repro.nn.autograd` — reverse-mode automatic differentiation on a
  dynamically built tape (:class:`Tensor`): trains the metrics classifier,
  differentiates plug-in losses on their logits, and is the oracle the
  kernels are tested against.
* :mod:`repro.nn.kernels` — graph-free train-step kernels for the fixed
  Linear+activation stacks (forward into preallocated workspaces,
  hand-derived backward straight into the arena's gradient slab): how
  every GAN network runs, bit-identical to the tape.
* :mod:`repro.nn.functional` — numerically stable composite ops
  (softplus, log-sigmoid, binary cross-entropy with logits, ...).
* :mod:`repro.nn.modules` — ``Module``/``Linear``/``Sequential`` and the
  activation layers used by Table I's MLPs.
* :mod:`repro.nn.init` — parameter initializers.
* :mod:`repro.nn.losses` — the three GAN loss formulations used by
  Lipizzaner/Mustangs (BCE, MSE/least-squares, heuristic non-saturating).
* :mod:`repro.nn.optim` — Adam (Table I), SGD and RMSprop.
* :mod:`repro.nn.serialize` — flattening parameters to/from genome vectors
  for exchange between grid cells.
"""

from repro.nn.arena import ParameterArena, arena_of, attach_arena
from repro.nn.autograd import Tensor, no_grad, tensor
from repro.nn import functional
from repro.nn import kernels
from repro.nn.kernels import FusedStepKernel, kernel_for
from repro.nn.init import (
    PARAM_DTYPE,
    kaiming_normal,
    normal_init,
    xavier_normal,
    xavier_uniform,
    zeros_init,
)
from repro.nn.modules import (
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    activation_module,
)
from repro.nn.losses import (
    BCELoss,
    GANLoss,
    HeuristicLoss,
    LeastSquaresLoss,
    MUSTANGS_LOSSES,
    loss_by_name,
)
from repro.nn.optim import SGD, Adam, Optimizer, RMSprop, optimizer_by_name
from repro.nn.serialize import (
    count_parameters,
    load_state_dict,
    parameters_to_vector,
    state_dict,
    vector_to_parameters,
)

__all__ = [
    "ParameterArena",
    "arena_of",
    "attach_arena",
    "PARAM_DTYPE",
    "Tensor",
    "tensor",
    "no_grad",
    "functional",
    "kernels",
    "FusedStepKernel",
    "kernel_for",
    "Module",
    "Linear",
    "Sequential",
    "Tanh",
    "Sigmoid",
    "ReLU",
    "LeakyReLU",
    "activation_module",
    "normal_init",
    "xavier_uniform",
    "xavier_normal",
    "kaiming_normal",
    "zeros_init",
    "GANLoss",
    "BCELoss",
    "LeastSquaresLoss",
    "HeuristicLoss",
    "MUSTANGS_LOSSES",
    "loss_by_name",
    "Optimizer",
    "Adam",
    "SGD",
    "RMSprop",
    "optimizer_by_name",
    "parameters_to_vector",
    "vector_to_parameters",
    "state_dict",
    "load_state_dict",
    "count_parameters",
]
