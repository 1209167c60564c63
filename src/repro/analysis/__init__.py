"""Project-invariant static analysis and runtime concurrency checking.

This package machine-checks the invariants that protect the repro's core
oracle — bit-identical equivalence across the sequential/threaded/process/
socket backends — plus the security and resource-discipline contracts its
history shows get broken by hand.  Run it as ``repro lint [paths]`` or
``python -m repro.analysis``; enable the runtime checker with
``REPRO_LOCKCHECK=1``.

The invariants
--------------

**Aliasing contract (R3, and the runtime lifetime checks).**  Arena views
are *borrows of live training memory*: ``parameters_to_vector(...,
alias=True)`` and ``center_genomes(alias=True)`` return vectors whose
owner may write them on its next step.  A borrow must stay within the
borrowing function and the borrowing thread.  What does leave by
reference obeys one lifetime rule: *a slab that left by reference is
never written while a frame holding it is unsent, or while a consumer
outside the round can reach it.*  It leaves as a copy, as a *lent*
vector (``Cell.lend_center``: the exchange payload; its cell trains in
no slab under a live lease) or as a *retired* one (``Cell.export_center``:
a result; read-only for good), and a keeper (the master, which holds
checkpoints and results past the round) gets copies or retired vectors
only.  ``REPRO_LOCKCHECK=1`` checks it at every transport send, at every
hand-over to the master and at every write into a work slab (see
:mod:`repro.analysis.lockcheck`).  Violations are the worst kind of bug
this codebase produces: silent, seed-dependent corruption of training
state.

**Determinism rules (R2).**  All randomness flows through explicitly seeded
``np.random.Generator`` objects threaded through call signatures — never
``np.random.*`` / ``random.*`` global state, which any import or thread can
perturb.  Wall clocks (``time.time``) stay off hot paths: they jump under
NTP and differ per rank (monotonic clocks + one wall anchor is the
sanctioned pattern, see ``repro.telemetry.bus``).  Sets are never iterated
where order can feed genome or fitness math.

**Security boundary (R1).**  Nothing under ``repro.mpi`` unpickles bytes
that an unauthenticated peer could have produced.  The rendezvous
authenticates a size-capped JSON hello *before* the first ``pickle.loads``
(PR 3 shipped the opposite and it was remote code execution).  Every
unpickling site in the transport layer carries an ``allow[R1]`` pragma
stating why its input is trusted.

**Resource discipline (R4).**  Weak-keyed registries must not store values
that strongly reference their keys — such entries are immortal (PR 5's
kernel registry pinned every network + arena slab, ~8 GB RSS).

**Telemetry discipline (R5).**  ``telemetry.count``/``gauge`` call sites
sit behind ``if telemetry.enabled():`` so the off-path cost stays one int
check — the contract the CI 2%-overhead ratchet enforces.

**Layer DAG (R6).**  Eager module-scope imports must respect the declared
layering (``repro.analysis.layering.LAYERS``): ``registry``/``telemetry``
are leaf-safe; ``nn`` sits below ``coevolution``, below ``parallel``/
``mpi``, below ``api``/``serving``; cycles are rejected outright.  Upward
references use lazy (function-scope) imports.

**Fork safety (R7).**  No threads or sockets at import time: forked ranks
inherit memory but not threads.

**Environment reads (R8).**  ``os.environ`` is read inside functions, at
use time; process-level env policy lives in ``repro.runtime``.  Deliberate
import-time kill switches are pragma'd.

**Retry discipline (R9).**  Transient-network retry lives in
``repro.mpi.backoff`` and nowhere else: bounded attempts, exponential
delay, jitter, counted through ``TransportStats``.  A loop that calls a
socket primitive, swallows the ``OSError``/``WireError`` and goes around
again is an unbounded invisible retry — it masks dead peers from the
heartbeat layer and un-jittered reconnects stampede the coordinator.
Timeout polls (``MpiTimeoutError``) and ``accept()`` loops are not
retries and are not flagged.

Pragma syntax
-------------

An intentional exemption is annotated inline, on the flagged line::

    payload = pickle.loads(body)  # repro: allow[R1] -- post-auth: hello verified above

The reason after ``--`` is required; a pragma without one (or naming an
unknown rule) is itself a finding.  Several rules can share one pragma:
``# repro: allow[R2,R8] -- kill switch, read once at import``.

Baseline
--------

``analysis_baseline.json`` grandfathers known findings so a new rule can
land before historical violations are fixed; CI fails only on regressions.
This repo's baseline is empty and must stay empty — fix it or pragma it.
"""

from repro.analysis.engine import LintResult, active_rules, lint_paths, lint_source, main
from repro.analysis.findings import Baseline, Finding
from repro.analysis.layering import LAYERS, LayeringRule
from repro.analysis.rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LAYERS",
    "LayeringRule",
    "LintResult",
    "Rule",
    "active_rules",
    "lint_paths",
    "lint_source",
    "main",
]
