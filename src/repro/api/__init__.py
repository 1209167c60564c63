"""repro.api — the unified experiment layer.

One facade (:class:`Experiment`) in front of every execution substrate, with
string-keyed registries for backends/datasets/losses and a callback-driven
run loop.  See :mod:`repro.api.experiment` for the full tour::

    from repro.api import Experiment

    result = Experiment().grid(2, 2).backend("process").run()
    print(result.summary())

The engines it drives (:class:`~repro.coevolution.SequentialTrainer`,
:class:`~repro.parallel.DistributedRunner`) stay usable directly.
"""

from repro.api.backends import (
    ProcessBackend,
    RunContext,
    SequentialBackend,
    SocketBackend,
    ThreadedBackend,
    TrainerBackend,
)
from repro.api.callbacks import (
    Callback,
    CallbackList,
    EarlyStopping,
    JsonlMetrics,
    PeriodicCheckpoint,
)
from repro.api.experiment import (
    DEFAULT_DATASET,
    Experiment,
    load_ensemble,
    serve_checkpoint,
)
from repro.coevolution.sequential import RunResult
from repro.registry import (
    BACKENDS,
    DATASETS,
    LOSSES,
    BackendRegistry,
    DatasetRegistry,
    LossRegistry,
    Registry,
    RegistryError,
)

__all__ = [
    "Experiment",
    "DEFAULT_DATASET",
    "RunResult",
    "RunContext",
    "TrainerBackend",
    "SequentialBackend",
    "ProcessBackend",
    "ThreadedBackend",
    "SocketBackend",
    "Callback",
    "CallbackList",
    "PeriodicCheckpoint",
    "EarlyStopping",
    "JsonlMetrics",
    "Registry",
    "RegistryError",
    "BackendRegistry",
    "DatasetRegistry",
    "LossRegistry",
    "BACKENDS",
    "DATASETS",
    "LOSSES",
    "serve_checkpoint",
    "load_ensemble",
]
