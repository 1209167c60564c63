"""Process-level runtime controls: BLAS thread pinning.

Every rank of the distributed implementation runs one training task on one
core (paper Table II: one process per core).  NumPy's OpenBLAS, however,
defaults to one thread *per CPU per process* — with 17 ranks on a 24-core
machine that is ~400 threads fighting over 24 cores, and the "distributed"
version ends up slower than the single-core one.  Real MPI deployments hit
the same issue and pin ``OMP_NUM_THREADS=1`` in the job script; this module
does the equivalent from inside the library:

* sets the usual BLAS environment variables — inherited by forked ranks
  and forked socket workers *and* by ``repro worker`` subprocesses (the
  socket transport hands replacement workers the launcher's environment);
* additionally calls ``openblas_set_num_threads`` through ``ctypes`` on the
  already-loaded library, because environment variables are only read at
  load time.

The ctypes call only ever affects the *current* process.  Forked ranks
inherit its effect through copied memory; spawn-based remote workers do
not, which is why the distributed entry point re-pins inside every rank
(see :func:`repro.parallel.runner._distributed_entry`) instead of relying
on launcher-side pinning.

:func:`pin_blas_threads` is idempotent and called by the trainers, every
distributed rank, ``repro worker`` and the benchmark harness.
"""

from __future__ import annotations

import ctypes
import os
import re

__all__ = ["pin_blas_threads", "blas_pin_active", "lockcheck_requested",
           "lockcheck_watchdog_seconds"]

_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_SET_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)

_pinned: int | None = None


def _loaded_blas_libraries() -> list[str]:
    """Paths of OpenBLAS shared objects mapped into this process (Linux)."""
    paths: set[str] = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                match = re.search(r"(\S+openblas\S*\.so\S*)", line)
                if match:
                    paths.add(match.group(1))
    except OSError:
        pass
    return sorted(paths)


def pin_blas_threads(n: int = 1) -> bool:
    """Limit BLAS to ``n`` threads in this process and future children.

    Returns True when a loaded BLAS accepted the limit via ``ctypes`` (the
    environment variables are set regardless, covering ranks forked or
    spawned later and libraries not yet loaded).  Idempotent per value of
    ``n``; spawn-safe — call it again inside each remote worker, since a
    parent's ctypes pin never crosses a spawn boundary.
    """
    global _pinned
    if n < 1:
        raise ValueError("thread count must be >= 1")
    for var in _ENV_VARS:
        os.environ[var] = str(n)
    if _pinned == n:
        return True
    applied = False
    for path in _loaded_blas_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SET_SYMBOLS:
            fn = getattr(library, symbol, None)
            if fn is not None:
                fn(ctypes.c_int(n))
                applied = True
                break
    if applied:
        _pinned = n
    return applied


def blas_pin_active() -> int | None:
    """The thread count last pinned successfully (None if never)."""
    return _pinned


def lockcheck_requested() -> bool:
    """True when ``REPRO_LOCKCHECK`` asks for the runtime concurrency checker.

    Environment *policy* lives here (rule R8: nothing else reads the
    environment at import time); the checker itself is
    :mod:`repro.analysis.lockcheck`, installed by ``repro/__init__`` before
    any repro lock exists.  The variable propagates to forked ranks by
    inheritance and to spawned ``repro worker`` processes through the
    launcher environment, so one setting covers every backend.
    """
    value = os.environ.get("REPRO_LOCKCHECK", "").strip().lower()
    return value not in ("", "0", "off", "false", "no")


def lockcheck_watchdog_seconds() -> float:
    """Blocked-wait watchdog threshold (``REPRO_LOCKCHECK_WATCHDOG``, s)."""
    value = os.environ.get("REPRO_LOCKCHECK_WATCHDOG", "").strip()
    try:
        seconds = float(value) if value else 60.0
    except ValueError:
        seconds = 60.0
    return seconds if seconds > 0 else 60.0
