"""Message-passing runtime with an mpi4py-style API (the MPI substitute).

The paper parallelizes Lipizzaner with MPI (mpi4py) on a cluster.  This
package provides the MPI subset the paper's implementation uses, built from
scratch:

* point-to-point ``send``/``recv``/``isend``/``irecv``/``probe``/``iprobe``
  with tags and wildcards (pickled Python objects, like mpi4py's lowercase
  methods), plus ``send_group`` — one object to a list of ``(dest, tag)``,
  moved once per destination host (``send`` is the group of one);
* collectives: ``bcast``, ``gather``, ``allgather``, ``scatter``,
  ``reduce``, ``allreduce``, ``barrier``;
* communicator management: ``Split`` (builds the paper's LOCAL and GLOBAL
  communicators out of WORLD) and ``Create_cart`` (the Cartesian topology
  the paper suggests via ``MPI_CART_CREATE``);
* pluggable transports with identical semantics behind the
  :class:`~repro.mpi.transport.Transport` protocol: **threads** (one rank
  per thread, for fast deterministic tests), **processes** (one rank per OS
  process via ``fork``, true multi-core parallelism — the configuration
  used for all timing experiments) and **sockets** (ranks hosted by
  ``repro worker`` processes over TCP — the multi-node mode, with
  length-prefixed pickle-5 frames and out-of-band NumPy buffers).

Entry point: :func:`repro.mpi.launcher.run_mpi` — the ``mpiexec`` of this
runtime.
"""

from repro.mpi.backoff import BackoffPolicy, retry_connect, with_backoff
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, MAX_USER_TAG
from repro.mpi.comm import CartComm, Comm, Status
from repro.mpi.errors import MpiError, MpiTimeoutError, MpiWorkerError
from repro.mpi.launcher import run_mpi
from repro.mpi.stats import TransportStats, merge_transport_stats
from repro.mpi.transport import (
    Transport,
    available_transports,
    make_transport,
    register_transport,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MAX_USER_TAG",
    "BackoffPolicy",
    "retry_connect",
    "with_backoff",
    "Comm",
    "CartComm",
    "Status",
    "MpiError",
    "MpiTimeoutError",
    "MpiWorkerError",
    "run_mpi",
    "Transport",
    "TransportStats",
    "merge_transport_stats",
    "available_transports",
    "make_transport",
    "register_transport",
]
