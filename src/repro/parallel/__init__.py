"""The paper's contribution: master-slave distributed cellular GAN training.

This package is the reproduction of Section III of the paper — the
parallel/distributed implementation of Mustangs/Lipizzaner:

* :mod:`repro.parallel.grid` — the new ``Grid`` class (replaces
  Lipizzaner's ``neighbourhood``): each slave's view of the training grid,
  with *dynamic* neighborhood rewiring, fully decoupled from communication.
* :mod:`repro.parallel.comm_manager` — the new ``CommManager`` class
  (replaces ``node-comm``): every inter-process interaction behind an
  abstract interface, MPI underneath, including the WORLD / LOCAL / GLOBAL
  communicator split of Section III-D.
* :mod:`repro.parallel.master` / :mod:`repro.parallel.slave` — the two
  process roles of Section III-B, with the slave's two-thread design (main
  thread = master interface, execution thread = training the block of
  cells the rank hosts) and the
  ``inactive -> processing -> finished`` state machine of Fig. 2.
* :mod:`repro.parallel.heartbeat` — the master's heartbeat thread and the
  liveness protocol, including failure detection and graceful abort.
* :mod:`repro.parallel.runner` — one-call entry point running the whole
  job over any registered MPI transport: process (true parallel), threaded
  (deterministic), or socket (TCP workers on one or many machines).
"""

from repro.parallel.grid import Grid
from repro.parallel.comm_manager import CommManager, MpiCommManager
from repro.parallel.messages import (
    NodeInfo,
    RunTask,
    SlaveResult,
    StatusReply,
    Tags,
)
from repro.parallel.states import SlaveState, SlaveStateMachine
from repro.parallel.heartbeat import HeartbeatMonitor, SlaveLiveness
from repro.parallel.master import MasterProcess
from repro.parallel.slave import SlaveProcess
from repro.parallel.runner import DistributedResult, DistributedRunner

__all__ = [
    "Grid",
    "CommManager",
    "MpiCommManager",
    "Tags",
    "NodeInfo",
    "RunTask",
    "StatusReply",
    "SlaveResult",
    "SlaveState",
    "SlaveStateMachine",
    "HeartbeatMonitor",
    "SlaveLiveness",
    "MasterProcess",
    "SlaveProcess",
    "DistributedRunner",
    "DistributedResult",
]
