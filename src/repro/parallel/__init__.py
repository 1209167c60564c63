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
* :mod:`repro.parallel.messages` — the control protocol: one stream of
  typed messages each way between master and slaves, one tag each.
* :mod:`repro.parallel.master` / :mod:`repro.parallel.slave` — the two
  process roles of Section III-B: a single-threaded master whose one
  receive loop also ticks the heartbeat, and the slave's two-thread design
  (main thread = master interface, blocked in one receive; execution
  thread = training the block of cells the rank hosts) with the
  ``inactive -> processing -> finished`` state machine of Fig. 2.
* :mod:`repro.parallel.heartbeat` — the master's liveness table, advanced
  by the receive loop's heartbeat tick: failure detection from explicit
  timestamps.
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
