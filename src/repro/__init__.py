"""repro — parallel/distributed cellular coevolutionary GAN training.

A from-scratch reproduction of *"Parallel/distributed implementation of
cellular training for generative adversarial neural networks"* (Perez,
Nesmachnow, Toutouh, Hemberg, O'Reilly — IEEE IPDPS Workshops / PDCO 2020,
arXiv:2004.04633), including every substrate the paper depends on:

* :mod:`repro.nn` — NumPy autograd + MLP library (PyTorch substitute);
* :mod:`repro.data` — synthetic MNIST renderer + loaders (MNIST substitute);
* :mod:`repro.gan` — the Table I generator/discriminator pairs;
* :mod:`repro.metrics` — classifier score / FID / mode coverage;
* :mod:`repro.coevolution` — the Lipizzaner/Mustangs cellular algorithm and
  the single-core baseline trainer;
* :mod:`repro.mpi` — message-passing runtime with an mpi4py-style API
  (threads or forked processes);
* :mod:`repro.cluster` — simulated HPC platform (Cluster-UY substitute);
* :mod:`repro.parallel` — **the paper's contribution**: the master-slave
  distributed implementation (CommManager, Grid, heartbeats, two-thread
  slaves);
* :mod:`repro.telemetry` — the one recorder: a span/mark/counter bus across
  train, exchange, protocol, transport and serving, with per-rank
  aggregation, Perfetto/Prometheus export and the Table IV / Fig. 3 views
  (``REPRO_TELEMETRY=off|basic|trace``, ``repro run --trace``);
* :mod:`repro.experiments` — regenerators for every table and figure;
* :mod:`repro.serving` — batched, cached inference serving trained
  generator ensembles (model registry, request-coalescing engine, sample
  pool, stats-reporting server);
* :mod:`repro.api` — **the front door**: the :class:`~repro.api.Experiment`
  facade over every execution substrate, with pluggable
  backend/dataset/loss registries and a callback-driven run loop.

Quickstart::

    from repro import Experiment

    result = (Experiment()              # laptop-scale 2x2 default config
              .grid(2, 2)
              .backend("process")       # or "sequential" / "threaded" —
              .run())                   # same seed => identical genomes
    print(result.summary())
    result.save_checkpoint("model.npz")

Serving a finished run::

    from repro import GeneratorServer

    with GeneratorServer(result.to_servable()) as server:
        images = server.request(64, seed=7).images

Custom scenarios plug in by name — register a loss, a dataset or a whole
execution backend and select it from the same facade::

    from repro.api import LOSSES

    LOSSES.register("wgan", MyWassersteinLoss)
    Experiment().loss("wgan").run()

The engines behind the facade (:class:`SequentialTrainer`,
:class:`DistributedRunner`) remain exported for direct use.
"""

# The runtime concurrency checker must patch the threading factories before
# any repro module creates a lock, so this runs first (no-op unless
# REPRO_LOCKCHECK is set — policy in repro.runtime).
from repro.analysis import lockcheck as _lockcheck

_lockcheck.install_if_enabled()

from repro.api import Experiment, RunResult
from repro.config import ExperimentConfig, default_config, paper_table1_config
from repro.coevolution import SequentialTrainer, TrainingResult
from repro.parallel import DistributedResult, DistributedRunner
from repro.registry import BACKENDS, DATASETS, LOSSES
from repro.runtime import pin_blas_threads
from repro.serving import GeneratorServer, ModelRegistry, ServableEnsemble

__version__ = "1.2.0"

__all__ = [
    "Experiment",
    "RunResult",
    "ExperimentConfig",
    "default_config",
    "paper_table1_config",
    "SequentialTrainer",
    "TrainingResult",
    "DistributedRunner",
    "DistributedResult",
    "BACKENDS",
    "DATASETS",
    "LOSSES",
    "pin_blas_threads",
    "ModelRegistry",
    "ServableEnsemble",
    "GeneratorServer",
    "__version__",
]
