"""The project-invariant rules (R1–R10), each grounded in a real bug class.

Every rule documents the incident or contract it machine-checks; the
history lives in ``CHANGES.md`` and the invariant statements in
``repro/analysis/__init__``.  Rules see one :class:`FileContext` at a time;
the layering rule (R6, :mod:`repro.analysis.layering`) additionally gets a
project-wide pass for cycle detection.

Adding a rule: subclass :class:`Rule`, implement :meth:`check`, append to
:data:`ALL_RULES`.  Keep rules *syntactic and local* — anything needing
whole-program dataflow belongs in the runtime checker
(:mod:`repro.analysis.lockcheck`), not here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

__all__ = [
    "FileContext",
    "Rule",
    "ALL_RULES",
    "build_context",
    "resolve_call",
]


# --------------------------------------------------------------------------
# File context: parsed tree + the cheap semantic indexes every rule needs.
# --------------------------------------------------------------------------

@dataclass
class FileContext:
    path: str
    module: str                       # dotted, e.g. "repro.mpi.wire"
    source: str
    tree: ast.Module
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)  # local name -> dotted target

    @property
    def component(self) -> str:
        """First package level under ``repro`` ("mpi", "nn", ...; "" = root)."""
        parts = self.module.split(".")
        if parts[0] != "repro":
            return parts[0]
        return parts[1] if len(parts) > 1 else ""

    def in_function(self, node: ast.AST) -> bool:
        """True when ``node`` only runs inside a function/lambda body."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return True
            current = self.parents.get(current)
        return False

    def ancestors(self, node: ast.AST):
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)


def _index_imports(tree: ast.Module) -> dict[str, str]:
    """Local-name -> dotted-origin map over *all* imports in the file.

    ``import numpy as np`` maps ``np -> numpy``; ``from repro.telemetry
    import bus as telemetry`` maps ``telemetry -> repro.telemetry.bus``.
    Function-level imports are indexed too: a lazy import does not change
    what a name means.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                table[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{node.module}.{alias.name}"
    return table


def build_context(source: str, path: str, module: str) -> FileContext:
    tree = ast.parse(source, filename=path)
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return FileContext(path=path, module=module, source=source, tree=tree,
                       parents=parents, imports=_index_imports(tree))


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call(ctx: FileContext, func: ast.AST) -> str | None:
    """Resolve a call target through the import table.

    ``np.random.rand`` -> ``numpy.random.rand`` when ``np`` was imported as
    numpy; a bare ``loads`` imported from pickle -> ``pickle.loads``.
    Unresolvable expressions (calls on locals, subscripts) return None.
    """
    dotted = _dotted(func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    origin = ctx.imports.get(root)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


# --------------------------------------------------------------------------
# Rule base.
# --------------------------------------------------------------------------

class Rule:
    id: str = "R?"
    slug: str = "unnamed"
    severity: str = "error"
    description: str = ""
    #: components the rule applies to (None = every file).
    components: frozenset[str] | None = None

    def applies(self, ctx: FileContext) -> bool:
        return self.components is None or ctx.component in self.components

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(rule=self.id, slug=self.slug, severity=self.severity,
                       path=ctx.path, line=getattr(node, "lineno", 1),
                       message=message)

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finish(self) -> list[Finding]:
        """Project-wide findings after every file was checked (R6 cycles)."""
        return []


# --------------------------------------------------------------------------
# R1: no unpickling reachable on pre-auth network paths.
# --------------------------------------------------------------------------

class PreauthPickleRule(Rule):
    """``pickle.loads`` on a routable socket before authentication is RCE.

    The PR-3 rendezvous unpickled HELLO frames before verifying the token —
    a remote-code-execution hole fixed by authenticating a size-capped JSON
    frame first.  Every unpickling site in the transport layer
    (``repro.mpi``) must therefore be *post-auth by construction* and carry
    an ``allow[R1]`` pragma saying why its input is trusted.
    """

    id = "R1"
    slug = "preauth-pickle"
    severity = "error"
    description = "unpickling in the network layer outside audited post-auth sites"
    components = frozenset({"mpi"})

    _TARGETS = ("pickle.loads", "pickle.load", "pickle.Unpickler")

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(ctx, node.func)
            if resolved in self._TARGETS:
                out.append(self.finding(
                    ctx, node,
                    f"{resolved} in the network layer: unpickling attacker-"
                    f"reachable bytes is code execution — prove this site is "
                    f"post-auth and annotate it, or parse a constrained format",
                ))
        return out


# --------------------------------------------------------------------------
# R2: determinism — the bit-identity oracle's enemies.
# --------------------------------------------------------------------------

class DeterminismRule(Rule):
    """Global RNG state, wall clocks and unordered iteration kill bit-identity.

    The repro's core oracle is that sequential == threaded == process ==
    socket, *bit for bit*.  Anything drawing from interpreter-global
    randomness (``np.random.rand``, ``random.random``), reading the wall
    clock on a hot path, or iterating a set where order feeds genome or
    fitness math can silently break that across runs, Python builds, or
    rank counts.

    Scope note — dtype-coercion sites: since dtype became a run-level
    policy (float64/float32/mixed16), a bare ``np.asarray(x)`` on a
    genome/parameter path is a determinism hazard of the same family: it
    silently adopts whatever dtype arrives, so one call site normalizing
    to float64 while another preserves float32 forks the trajectory
    between backends.  Such sites must either pass an explicit ``dtype=``
    or document that preserving the incoming dtype is the contract (see
    ``Genome.__post_init__`` and ``serialize.vector_to_parameters``).
    This rule does not auto-flag them — ``np.asarray`` without ``dtype=``
    is legitimate on shape-only and non-numeric paths — but reviewers of
    ``coevolution``/``nn``/``gan`` diffs should hold new coercion sites
    to that standard.
    """

    id = "R2"
    slug = "determinism"
    severity = "error"
    description = "global RNG / wall clock / unordered-set iteration on deterministic paths"

    _NP_GLOBAL = {
        "rand", "randn", "random", "randint", "random_integers", "normal",
        "uniform", "choice", "shuffle", "permutation", "seed",
        "standard_normal", "binomial", "multinomial", "poisson", "beta",
        "gamma", "exponential", "random_sample", "sample", "bytes",
        "get_state", "set_state",
    }
    _PY_GLOBAL = {
        "random", "randint", "seed", "choice", "shuffle", "uniform", "gauss",
        "sample", "randrange", "normalvariate", "betavariate", "getrandbits",
    }
    #: wall-clock reads are flagged only where they can sit on the train path.
    _HOT_COMPONENTS = {"nn", "coevolution", "gan", "mpi"}
    #: set iteration is flagged only where order feeds genome/fitness math.
    _ORDERED_COMPONENTS = {"coevolution", "nn", "gan"}

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                resolved = resolve_call(ctx, node.func)
                if resolved is None:
                    continue
                if (resolved.startswith("numpy.random.")
                        and resolved.rsplit(".", 1)[1] in self._NP_GLOBAL):
                    out.append(self.finding(
                        ctx, node,
                        f"{resolved} draws from numpy's global RNG — thread a "
                        f"seeded np.random.Generator through instead",
                    ))
                elif (resolved.startswith("random.")
                        and resolved.rsplit(".", 1)[1] in self._PY_GLOBAL):
                    out.append(self.finding(
                        ctx, node,
                        f"{resolved} uses Python's global RNG — thread a "
                        f"seeded np.random.Generator through instead",
                    ))
                elif (resolved == "time.time"
                        and ctx.component in self._HOT_COMPONENTS):
                    out.append(self.finding(
                        ctx, node,
                        "time.time() on a hot path: wall clocks jump (NTP) and "
                        "differ per rank — use time.perf_counter()/monotonic(), "
                        "or move the wall-clock read off the train path",
                    ))
            elif isinstance(node, (ast.For, ast.comprehension)):
                if ctx.component not in self._ORDERED_COMPONENTS:
                    continue
                iterable = node.iter
                is_set = isinstance(iterable, ast.Set) or (
                    isinstance(iterable, ast.Call)
                    and resolve_call(ctx, iterable.func) in ("set", "frozenset")
                )
                if is_set:
                    out.append(self.finding(
                        ctx, iterable,
                        "iterating a set where order can feed genome/fitness "
                        "computation — sets hash-order by id across runs; wrap "
                        "in sorted()",
                    ))
        return out


# --------------------------------------------------------------------------
# R3: live arena aliases must not cross thread/transport boundaries.
# --------------------------------------------------------------------------

class AliasEscapeRule(Rule):
    """The PR-4 aliasing contract, machine-checked at the obvious sinks.

    ``parameters_to_vector(..., alias=True)`` / ``center_genomes(alias=True)``
    borrow the *live* parameter arena: zero-copy, but the optimizer mutates
    that memory on the next step.  Transports serialize payloads on
    background sender threads, so an alias handed to a send (or parked on an
    object another thread reads) is a data race on training state.  Aliases
    must stay within the borrowing function; anything crossing a boundary
    gets ``.copy()`` first.
    """

    id = "R3"
    slug = "alias-escape"
    severity = "error"
    description = "arena alias (alias=True) passed to a send or stored cross-thread"
    components = frozenset({"nn", "gan", "coevolution", "parallel", "mpi", "serving"})

    _SEND_ATTRS = {
        "send", "send_group", "put", "put_nowait", "publish", "submit",
        "exchange_genomes",
    }

    @staticmethod
    def _is_alias_call(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and any(
            kw.arg == "alias" and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for scope in ast.walk(ctx.tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(self._check_function(ctx, scope))
        return out

    def _check_function(self, ctx: FileContext, fn: ast.AST) -> list[Finding]:
        tainted: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and self._is_alias_call(node.value):
                for target in node.targets:
                    elts = target.elts if isinstance(target, ast.Tuple) else [target]
                    for elt in elts:
                        if isinstance(elt, ast.Name):
                            tainted.add(elt.id)

        def is_tainted(node: ast.AST) -> bool:
            if self._is_alias_call(node):
                return True
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("copy", "deepcopy")):
                return False  # the sanctioned crossing: a defensive copy
            if isinstance(node, ast.Name):
                return node.id in tainted
            return any(is_tainted(child) for child in ast.iter_child_nodes(node))

        out = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                attr = node.func.attr if isinstance(node.func, ast.Attribute) else (
                    node.func.id if isinstance(node.func, ast.Name) else None)
                resolved = resolve_call(ctx, node.func)
                is_sink = attr in self._SEND_ATTRS or resolved == "threading.Thread"
                if is_sink and any(is_tainted(arg) for arg in list(node.args)
                                   + [kw.value for kw in node.keywords]):
                    out.append(self.finding(
                        ctx, node,
                        "live arena alias (alias=True) reaches a send/thread "
                        "boundary — transports serialize on background threads "
                        "while the optimizer mutates the slab; pass a .copy()",
                    ))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and is_tainted(node.value):
                        out.append(self.finding(
                            ctx, node,
                            "live arena alias stored on an object attribute — "
                            "any other thread reading it races the optimizer; "
                            "store a .copy() or keep the alias function-local",
                        ))
                        break
        return out


# --------------------------------------------------------------------------
# R4: weak-keyed mappings whose values pin their own keys.
# --------------------------------------------------------------------------

class WeakrefLeakRule(Rule):
    """The PR-5 8 GB lesson: ``WeakKeyDictionary[k] = value_referencing_k``.

    A weak-keyed registry only collects an entry when its key dies — but if
    the stored value holds a strong reference back to the key, the key can
    never die.  PR 5's kernel registry did exactly that (kernels kept their
    network module), pinning every network + arena slab for the process
    lifetime and ballooning the test suite to ~8 GB RSS.
    """

    id = "R4"
    slug = "weakref-leak"
    severity = "error"
    description = "weak-keyed mapping value strongly references its key"

    def check(self, ctx: FileContext) -> list[Finding]:
        weak_names: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                resolved = resolve_call(ctx, node.value.func)
                if resolved in ("weakref.WeakKeyDictionary",):
                    for target in node.targets:
                        name = _dotted(target)
                        if name is not None:
                            weak_names.add(name.split(".")[-1])
        if not weak_names:
            return []

        def key_root(node: ast.AST) -> str | None:
            dotted = _dotted(node)
            return dotted.split(".")[0] if dotted else None

        out = []
        for node in ast.walk(ctx.tree):
            mapping = key = value = None
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Subscript)):
                sub = node.targets[0]
                mapping, key, value = _dotted(sub.value), sub.slice, node.value
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setdefault" and len(node.args) == 2):
                mapping, key, value = (_dotted(node.func.value),
                                       node.args[0], node.args[1])
            if mapping is None or mapping.split(".")[-1] not in weak_names:
                continue
            root = key_root(key)
            if root and any(isinstance(sub, ast.Name) and sub.id == root
                            for sub in ast.walk(value)):
                out.append(self.finding(
                    ctx, node,
                    f"value stored in weak-keyed mapping "
                    f"'{mapping.split('.')[-1]}' references its key "
                    f"'{root}' — the entry can never be collected (the PR-5 "
                    f"8 GB leak); drop the back-reference or hold it weakly",
                ))
        return out


# --------------------------------------------------------------------------
# R5: telemetry sites must be guarded by the level flag.
# --------------------------------------------------------------------------

class TelemetryGuardRule(Rule):
    """``telemetry.count``/``gauge`` outside ``if telemetry.enabled():``.

    The bus's contract is one int check per instrumentation point when off —
    that is what the CI 2%-overhead ratchet measures.  An unguarded
    ``count()``/``gauge()`` still pays a full function call plus argument
    evaluation on every pass; guard the site (``span()`` needs no guard —
    it returns the shared null span after its own level check).
    """

    id = "R5"
    slug = "telemetry-guard"
    severity = "error"
    description = "telemetry count/gauge call not guarded by enabled()"

    _CALLS = {"count", "gauge"}
    _GUARDS = {"enabled", "tracing"}

    def _guarded(self, ctx: FileContext, node: ast.AST) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.If):
                for sub in ast.walk(ancestor.test):
                    if isinstance(sub, ast.Call):
                        attr = (sub.func.attr if isinstance(sub.func, ast.Attribute)
                                else sub.func.id if isinstance(sub.func, ast.Name)
                                else None)
                        if attr in self._GUARDS:
                            return True
        return False

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._CALLS):
                continue
            base = _dotted(node.func.value)
            if base is None:
                continue
            origin = ctx.imports.get(base.split(".")[0], base)
            if not (origin == "repro.telemetry"
                    or origin.startswith("repro.telemetry.")):
                continue
            if not self._guarded(ctx, node):
                out.append(self.finding(
                    ctx, node,
                    f"telemetry.{node.func.attr}() outside an "
                    f"'if telemetry.enabled():' guard — unguarded sites pay a "
                    f"call + argument evaluation when telemetry is off and "
                    f"erode the 2% CI overhead ratchet",
                ))
        return out


# --------------------------------------------------------------------------
# R7: no threads or live sockets created at import time.
# --------------------------------------------------------------------------

class ForkSafetyRule(Rule):
    """Import-time threads/sockets are invisible passengers across fork.

    The process backend forks ranks; a thread started at import time exists
    in the parent only — after fork the child inherits locked locks and
    half-initialized state but not the thread, the classic fork-safety
    hang.  Threads and sockets must be created lazily, after the fork
    boundary (the transports and serving engine all do this).
    """

    id = "R7"
    slug = "fork-safety"
    severity = "error"
    description = "thread or socket creation at module import time"

    _TARGETS = ("threading.Thread", "threading.Timer", "socket.socket",
                "socket.create_connection", "socket.create_server")

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or ctx.in_function(node):
                continue
            resolved = resolve_call(ctx, node.func)
            if resolved in self._TARGETS:
                out.append(self.finding(
                    ctx, node,
                    f"{resolved} at import time: forked ranks inherit the "
                    f"parent's memory but not its threads/sockets — create "
                    f"lazily after the fork boundary",
                ))
        return out


# --------------------------------------------------------------------------
# R8: environment reads at import time belong to repro.runtime.
# --------------------------------------------------------------------------

class EnvAtImportRule(Rule):
    """Module-scope ``os.environ`` reads freeze configuration at import order.

    A flag read at import time cannot be changed by the embedding
    application, is invisible to spawned workers whose environment differs,
    and makes behavior depend on *which module imported first*.  Process-
    level environment policy lives in :mod:`repro.runtime`; everything else
    reads the environment inside functions, at use time.  Deliberate
    import-time kill switches carry an ``allow[R8]`` pragma.
    """

    id = "R8"
    slug = "env-at-import"
    severity = "warning"
    description = "os.environ read at module import time outside repro.runtime"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module != "repro.runtime"

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if self._is_env_read(ctx, node) and not ctx.in_function(node):
                out.append(self.finding(
                    ctx, node,
                    "environment read at import time — behavior now depends "
                    "on import order and never sees later set_level()-style "
                    "updates; read inside a function (env policy lives in "
                    "repro.runtime)",
                ))
        return out

    @staticmethod
    def _is_env_read(ctx: FileContext, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            resolved = resolve_call(ctx, node.func)
            if resolved == "os.getenv":
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "pop")
                    and _dotted(node.func.value) == "os.environ"):
                return True
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            return _dotted(node.value) == "os.environ"
        return False


# --------------------------------------------------------------------------
# R9: socket retry loops belong to repro.mpi.backoff.
# --------------------------------------------------------------------------

class BareSocketRetryRule(Rule):
    """Hand-rolled socket retry loops hide real failures and stampede peers.

    The fault-tolerance PR centralized transient-network retry in
    :mod:`repro.mpi.backoff` (bounded attempts, exponential delay, jitter,
    counted in ``TransportStats.send_retries``).  A loop that calls a
    socket primitive, swallows the ``OSError``/``WireError`` it raises and
    goes around again is an unbounded, unjittered, uncounted retry — it
    masks dead peers from the heartbeat layer and synchronized reconnect
    storms are exactly what the backoff jitter exists to prevent.  Use
    :func:`repro.mpi.backoff.with_backoff` / ``retry_connect`` instead.

    Not flagged: handlers that escape the loop (``break``/``return``/
    ``raise``), polling loops catching ``MpiTimeoutError`` (a timeout poll
    is not a failure retry), and ``accept()`` loops (a server accepting the
    next client is not retrying a failed operation).
    """

    id = "R9"
    slug = "bare-socket-retry"
    severity = "error"
    description = "hand-rolled socket retry loop outside repro.mpi.backoff"

    _SOCKET_ATTRS = {"send", "sendall", "sendmsg", "recv", "recv_into",
                     "recvfrom", "connect", "connect_ex"}
    _SOCKET_CALLS = {
        "socket.create_connection",
        "repro.mpi.wire.write_frame",
        "repro.mpi.wire.read_frame",
    }
    #: resolved exception names whose swallowing makes the loop a retry.
    _SWALLOWED = {
        "OSError", "IOError", "ConnectionError", "ConnectionResetError",
        "ConnectionRefusedError", "ConnectionAbortedError",
        "BrokenPipeError", "TimeoutError", "InterruptedError",
        "socket.error", "socket.timeout", "socket.gaierror",
        "repro.mpi.wire.WireError", "repro.mpi.errors.MpiError",
        "Exception", "BaseException",
    }

    def applies(self, ctx: FileContext) -> bool:
        # The sanctioned home of retry loops is exempt by construction.
        return ctx.module != "repro.mpi.backoff"

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            if not self._in_retry_loop(ctx, node):
                continue
            if not self._try_does_socket_io(ctx, node):
                continue
            if any(self._handler_swallows(ctx, handler)
                   for handler in node.handlers):
                out.append(self.finding(
                    ctx, node,
                    "socket operation retried by a bare loop (exception "
                    "swallowed, loop continues) — unbounded, unjittered and "
                    "invisible to TransportStats; route the retry through "
                    "repro.mpi.backoff (with_backoff/retry_connect)",
                ))
        return out

    def _in_retry_loop(self, ctx: FileContext, node: ast.AST) -> bool:
        """Enclosing while loop, or a for-over-range attempt counter.

        ``for conn in connections:`` fan-outs are not retries — the loop
        visits different peers, it does not repeat a failed operation.
        The walk stops at function boundaries: a callback *defined* inside
        a loop runs once per call, not once per loop pass.
        """
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                return False
            if isinstance(ancestor, ast.While):
                return True
            if isinstance(ancestor, ast.For):
                iterable = ancestor.iter
                if (isinstance(iterable, ast.Call)
                        and resolve_call(ctx, iterable.func) == "range"):
                    return True
        return False

    def _try_does_socket_io(self, ctx: FileContext, node: ast.Try) -> bool:
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                if (isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in self._SOCKET_ATTRS):
                    return True
                if resolve_call(ctx, sub.func) in self._SOCKET_CALLS:
                    return True
        return False

    def _handler_swallows(self, ctx: FileContext, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            caught = True  # bare except: swallows everything
        else:
            types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                     else [handler.type])
            caught = any(resolve_call(ctx, t) in self._SWALLOWED for t in types)
        if not caught:
            return False
        # An escaping handler ends the loop — that is failure handling,
        # not a retry.
        return not any(isinstance(sub, (ast.Raise, ast.Break, ast.Return))
                       for stmt in handler.body for sub in ast.walk(stmt))


# --------------------------------------------------------------------------
# R10: inter-rank payloads carry a membership-epoch tag.
# --------------------------------------------------------------------------

class EpochTagRule(Rule):
    """Payload-bearing wire dataclasses must declare an ``epoch`` field.

    Elastic membership fences the exchange by epoch: when a cell changes
    hands (death, drain, live join) the membership epoch bumps, and the
    leaving rank's in-flight frames — stamped with the older epoch — are
    dropped instead of being delivered as if they came from the new owner.
    The fence only works if every payload that crosses ranks carries the
    tag.  A payload dataclass without an ``epoch`` field is invisible to
    the fence: its frames survive a hand-off and can corrupt the adopting
    rank's generation with pre-migration state.

    Checked syntactically: any ``@dataclass`` in the transport or parallel
    layers whose name ends in ``Payload`` must have a class-level ``epoch``
    annotation (a plain ``epoch: int = 0`` keeps static runs byte-stable).
    Control messages (tasks, notices, replies) are exempt — they are
    master-mediated and never raced across a hand-off.
    """

    id = "R10"
    slug = "epoch-tag"
    severity = "error"
    description = "payload-bearing wire dataclass without an epoch tag"
    components = frozenset({"mpi", "parallel"})

    _DATACLASS = {"dataclasses.dataclass", "dataclass"}

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Payload"):
                continue
            if not self._is_dataclass(ctx, node):
                continue
            if not self._declares_epoch(node):
                out.append(self.finding(
                    ctx, node,
                    f"payload dataclass {node.name} has no 'epoch' field: "
                    "frames from a rank that left survive its hand-off and "
                    "bypass the membership fence — declare 'epoch: int = 0' "
                    "and stamp it from FaultState.current_epoch()",
                ))
        return out

    def _is_dataclass(self, ctx: FileContext, node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if resolve_call(ctx, target) in self._DATACLASS:
                return True
        return False

    @staticmethod
    def _declares_epoch(node: ast.ClassDef) -> bool:
        return any(isinstance(stmt, ast.AnnAssign)
                   and isinstance(stmt.target, ast.Name)
                   and stmt.target.id == "epoch"
                   for stmt in node.body)


def ALL_RULES() -> list[Rule]:
    """Fresh instances of every per-file rule (R6 is added by the engine)."""
    return [
        PreauthPickleRule(),
        DeterminismRule(),
        AliasEscapeRule(),
        WeakrefLeakRule(),
        TelemetryGuardRule(),
        ForkSafetyRule(),
        EnvAtImportRule(),
        BareSocketRetryRule(),
        EpochTagRule(),
    ]
