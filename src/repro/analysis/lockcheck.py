"""Runtime concurrency checker: lock-order graph, blocked-wait watchdog,
guarded-mutation and by-reference lifetime assertions.

Enable with ``REPRO_LOCKCHECK=1`` (the env read lives in
:func:`repro.runtime.lockcheck_requested`; ``repro/__init__`` installs the
checker before any repro lock exists).  When off, every public entry point
is a single guarded return — the checker costs nothing in production.

What it checks
--------------

**Lock-acquisition-order graph.**  ``threading.Lock``/``RLock`` created by
repro code (creation site filtered by filename) are wrapped in counting
proxies.  Every *blocking* acquire records edges ``held -> acquiring`` into
a global digraph; an edge that closes a cycle is the ABBA pattern — two
threads interleaving those chains deadlock — and is reported immediately,
*before* any thread actually blocks.  Non-blocking (``blocking=False``)
attempts add no edges: trylock loops cannot deadlock.

**Blocked-wait watchdog.**  A blocking acquire that stalls longer than
``REPRO_LOCKCHECK_WATCHDOG`` seconds (default 60) dumps every thread's
stack, annotated with the instrumented locks each thread holds, then keeps
waiting.  This is the report that localizes distributed stalls like the
1x1-grid exchange deadlock: the dump shows who is parked and what they
hold.

**Guarded-mutation annotations.**  Structures with a documented protecting
lock call :func:`check_owned` at their mutation sites (``Endpoint``'s
receive buffer under its condition, ``BatchingEngine`` stats under its
lock, telemetry buffers under theirs).  With the checker on, a mutation
reached without holding the protecting lock is a violation; off, the call
is a no-op.

**Lifetime of what leaves by reference.**  The one rule: *a slab that
left by reference is never written while a frame holding it is unsent,
or while a consumer outside the round can reach it.*  Genome vectors leave
their owner through three doors only: a copy; a *lent* vector
(``Cell.lend_center``: the owner never trains in a slab while a lease over
it lives, see :func:`register_lent`); a *retired* one
(``Cell.export_center``: its buffer is read-only for good).  A *keeper* —
the master, which holds checkpoints, results and drain hand-offs past the
round — is handed copies or retired vectors only: its reach has no end,
so a lease it held would pin a slab for good.  Three checks enforce it:

* :func:`check_no_alias`, at every transport send
  (``Endpoint.send_group``, which is also the threaded backend's
  cross-thread hand-over): a live arena alias — a registered
  ``alias=True`` borrow, writable or not (:func:`register_alias`) — in the
  payload is reported, since nothing stops its owner writing it while the
  frame is unsent;
* :func:`check_kept`, where a keeper is handed a message
  (``MpiCommManager.send`` to the master): a live alias *or a lent vector*
  is reported;
* :func:`check_unlent`, where a cell starts training in a slab: a live
  lease over it is reported — the write the rule forbids.

:func:`check_alias_use` reports use of a live alias from a thread other
than the borrower.

Violations are recorded (:func:`violations`) and printed to stderr; the
test suite's autouse gate (``tests/conftest.py``) fails any test that
leaves new violations behind, which is how ``REPRO_LOCKCHECK=1`` CI runs
turn silent races into red builds.
"""

from __future__ import annotations

import itertools
import sys
import threading
import traceback
import weakref
from dataclasses import dataclass, field

__all__ = [
    "Violation",
    "install",
    "install_if_enabled",
    "installed",
    "uninstall",
    "reset",
    "violations",
    "violation_count",
    "clear_violations",
    "check_owned",
    "register_alias",
    "register_lent",
    "check_alias_use",
    "check_no_alias",
    "check_kept",
    "check_unlent",
    "dump_threads",
]

_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition

_installed = False
_watchdog_s = 60.0
_state = _REAL_LOCK()           # guards everything below
#: Order-graph node of each proxy.  Not ``id()``: the graph outlives the
#: locks, and a new lock at a dead one's address would inherit its edges —
#: two transports built one after the other then report a cycle between
#: their own, consistently ordered, locks.
_keys = itertools.count(1)
_edges: dict[tuple[int, int], str] = {}      # (held, acquiring) -> first site
_adj: dict[int, set[int]] = {}
_names: dict[int, str] = {}
_held: dict[int, list[int]] = {}             # thread ident -> held lock keys
_violations: list["Violation"] = []
_aliases: dict[int, tuple[int, str, object]] = {}   # id(obj) -> (ident, label, ref)
_lent: dict[int, tuple[str, object]] = {}           # id(obj) -> (label, ref)


@dataclass(frozen=True)
class Violation:
    kind: str        # lock-order | blocked-wait | unguarded-mutation | alias-escape | lent-write
    message: str
    thread: str = ""
    stack: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"[lockcheck:{self.kind}] {self.message} (thread {self.thread})"


def _record(kind: str, message: str, *, stack: str | None = None) -> None:
    violation = Violation(
        kind=kind, message=message, thread=threading.current_thread().name,
        stack=stack if stack is not None else "".join(traceback.format_stack(limit=12)),
    )
    with _state:
        _violations.append(violation)
    print(str(violation), file=sys.stderr)


# --------------------------------------------------------------------------
# Lock proxies.
# --------------------------------------------------------------------------

class _InstrumentedLock:
    """Counting proxy over a real lock; feeds the order graph."""

    _reentrant = False

    def __init__(self, inner, name: str):
        self._inner = inner
        self._name = name
        self._count = 0
        self._owner: int | None = None
        self._key = next(_keys)
        with _state:
            _names[self._key] = name

    # -- bookkeeping -------------------------------------------------------

    def _note_acquire_intent(self) -> None:
        """Record held->this edges; report a cycle the moment it closes."""
        me = self._key
        ident = threading.get_ident()
        cycles: list[str] = []
        with _state:
            held = _held.get(ident, [])
            for h in held:
                if h == me:
                    continue
                key = (h, me)
                if key in _edges:
                    continue
                site = _acquire_site()
                # Does a path me -> ... -> h already exist?  Then h -> me
                # closes a cycle: some chain acquires me before h, this
                # thread h before me — the ABBA deadlock shape.
                path = _find_path(me, h)
                _edges[key] = site
                _adj.setdefault(h, set()).add(me)
                if path is not None:
                    chain = " -> ".join(_names.get(n, hex(n))
                                        for n in [h] + path)
                    first = _edges.get((path[0], path[1]), "?") if len(path) > 1 else "?"
                    cycles.append(
                        f"lock-order cycle: acquiring "
                        f"'{_names.get(me, '?')}' while holding "
                        f"'{_names.get(h, '?')}' closes the cycle {chain}; "
                        f"opposite ordering first seen at {first}, this "
                        f"ordering at {site} — interleaved, these threads "
                        f"deadlock (ABBA)"
                    )
        for message in cycles:
            _record("lock-order", message)

    def _note_acquired(self) -> None:
        ident = threading.get_ident()
        self._owner = ident
        with _state:
            _held.setdefault(ident, []).append(self._key)

    def _note_released(self) -> None:
        ident = threading.get_ident()
        self._owner = None
        with _state:
            held = _held.get(ident)
            if held and self._key in held:
                # remove the most recent occurrence (LIFO discipline)
                for i in range(len(held) - 1, -1, -1):
                    if held[i] == self._key:
                        del held[i]
                        break

    # -- the lock protocol -------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1):
        if self._reentrant and self._owner == threading.get_ident():
            ok = self._inner.acquire(blocking, timeout)
            if ok:
                self._count += 1
            return ok
        if blocking:
            self._note_acquire_intent()
        if not blocking or timeout != -1:
            ok = self._inner.acquire(blocking, timeout)
        else:
            ok = self._inner.acquire(True, _watchdog_s)
            if not ok:
                _record(
                    "blocked-wait",
                    f"thread blocked >{_watchdog_s:.0f}s acquiring "
                    f"'{self._name}' — all-thread dump follows",
                    stack=dump_threads(),
                )
                print(dump_threads(), file=sys.stderr)
                self._inner.acquire()
                ok = True
        if ok:
            self._count += 1
            if self._count == 1:
                self._note_acquired()
        return ok

    def release(self) -> None:
        self._count -= 1
        if self._count == 0:
            self._note_released()
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()
        return False

    def _at_fork_reinit(self) -> None:
        self._inner._at_fork_reinit()
        self._count = 0
        self._owner = None

    def __repr__(self) -> str:
        return f"<lockcheck {self._name} of {self._inner!r}>"


class _InstrumentedRLock(_InstrumentedLock):
    _reentrant = True

    # Condition() binds these when present, so a Condition built on this
    # proxy keeps correct wait() semantics (full recursive release) while
    # the proxy's held-set stays truthful across the wait window.

    def _release_save(self):
        count = self._count
        self._count = 0
        self._note_released()
        return (self._inner._release_save(), count)

    def _acquire_restore(self, saved):
        inner_state, count = saved
        self._inner._acquire_restore(inner_state)
        self._count = count
        self._note_acquired()

    def _is_owned(self):
        return self._inner._is_owned()


def _acquire_site() -> str:
    frame = sys._getframe(2)
    # Walk out of lockcheck's own frames to the caller's.
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:
        return "?"
    return f"{frame.f_code.co_filename.rsplit('/', 1)[-1]}:{frame.f_lineno}"


def _find_path(start: int, goal: int) -> list[int] | None:
    """BFS in the order graph; caller holds ``_state``."""
    if start == goal:
        return [start]
    queue = [[start]]
    seen = {start}
    while queue:
        path = queue.pop(0)
        for succ in _adj.get(path[-1], ()):
            if succ == goal:
                return path + [succ]
            if succ not in seen:
                seen.add(succ)
                queue.append(path + [succ])
    return None


def _creation_site() -> tuple[str, str] | None:
    """(name, filename) of the first non-threading, non-lockcheck caller."""
    frame = sys._getframe(2)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename != __file__ and "threading" not in filename.rsplit("/", 1)[-1]:
            short = filename.rsplit("/", 1)[-1]
            return f"{short}:{frame.f_lineno}", filename
        frame = frame.f_back
    return None


def _should_instrument(filename: str) -> bool:
    return "repro" in filename or "tests" in filename


def _make_lock():
    site = _creation_site()
    if site is None or not _should_instrument(site[1]):
        return _REAL_LOCK()
    return _InstrumentedLock(_REAL_LOCK(), f"Lock@{site[0]}")


def _make_rlock():
    site = _creation_site()
    if site is None or not _should_instrument(site[1]):
        return _REAL_RLOCK()
    return _InstrumentedRLock(_REAL_RLOCK(), f"RLock@{site[0]}")


def _make_condition(lock=None):
    if lock is None:
        site = _creation_site()
        if site is not None and _should_instrument(site[1]):
            lock = _InstrumentedRLock(_REAL_RLOCK(), f"Condition@{site[0]}")
    return _REAL_CONDITION(lock)


# --------------------------------------------------------------------------
# Install / state.
# --------------------------------------------------------------------------

def install(watchdog_s: float | None = None) -> None:
    """Patch the threading factories; idempotent."""
    global _installed, _watchdog_s
    if watchdog_s is not None:
        if watchdog_s <= 0:
            raise ValueError("watchdog must be positive")
        _watchdog_s = watchdog_s
    if _installed:
        return
    threading.Lock = _make_lock
    threading.RLock = _make_rlock
    threading.Condition = _make_condition
    _installed = True


def install_if_enabled() -> bool:
    """Install when ``REPRO_LOCKCHECK`` requests it (policy in repro.runtime)."""
    from repro.runtime import lockcheck_requested, lockcheck_watchdog_seconds

    if not lockcheck_requested():
        return False
    install(watchdog_s=lockcheck_watchdog_seconds())
    return True


def installed() -> bool:
    return _installed


def uninstall() -> None:
    """Restore the real factories (existing proxies keep working)."""
    global _installed
    threading.Lock = _REAL_LOCK
    threading.RLock = _REAL_RLOCK
    threading.Condition = _REAL_CONDITION
    _installed = False


def reset() -> None:
    """Drop the order graph, held map, aliases and violations."""
    with _state:
        _edges.clear()
        _adj.clear()
        _held.clear()
        _violations.clear()
        _aliases.clear()
        _lent.clear()


def violations() -> list[Violation]:
    with _state:
        return list(_violations)


def violation_count() -> int:
    with _state:
        return len(_violations)


def clear_violations() -> list[Violation]:
    with _state:
        drained = list(_violations)
        _violations.clear()
    return drained


# --------------------------------------------------------------------------
# Annotations: guarded mutation.
# --------------------------------------------------------------------------

def _proxy_of(lock_or_condition):
    inner = getattr(lock_or_condition, "_lock", lock_or_condition)
    return inner if isinstance(inner, _InstrumentedLock) else None


def check_owned(lock_or_condition, what: str) -> None:
    """Assert the protecting lock is held by the current thread.

    The annotation for shared structures with a documented lock: call at
    every mutation site.  No-op when the checker is off or the lock is not
    instrumented (e.g. created before install).
    """
    if not _installed:
        return
    proxy = _proxy_of(lock_or_condition)
    if proxy is None:
        return
    if proxy._owner != threading.get_ident():
        _record(
            "unguarded-mutation",
            f"{what} mutated without holding its protecting lock "
            f"'{proxy._name}'",
        )


# --------------------------------------------------------------------------
# Annotations: arena aliases.
# --------------------------------------------------------------------------

def _track(table: dict, obj, entry: tuple) -> None:
    """Put ``obj`` in ``table`` (keyed by id) until it is collected."""
    key = id(obj)

    def _expire(_ref, _key=key):
        with _state:
            table.pop(_key, None)

    try:
        ref = weakref.ref(obj, _expire)
    except TypeError:   # not weakref-able: cannot track safely
        return
    with _state:
        table[key] = (*entry, ref)


def register_alias(obj, label: str) -> None:
    """Mark ``obj`` (a live arena view) as borrowed by the current thread."""
    if not _installed:
        return
    _track(_aliases, obj, (threading.get_ident(), label))


def register_lent(obj, label: str) -> None:
    """Mark ``obj`` as a lent vector: it may cross any boundary but a
    keeper's, and no slab under it may be written while it lives."""
    if not _installed:
        return
    _track(_lent, obj, (label,))


def _lookup_alias(obj) -> tuple[int, str] | None:
    with _state:
        entry = _aliases.get(id(obj))
    if entry is None:
        return None
    ident, label, ref = entry
    if ref() is not obj:    # stale id reuse
        return None
    return ident, label


def check_alias_use(obj, context: str) -> None:
    """Report use of a live alias from a thread other than its borrower."""
    if not _installed:
        return
    entry = _lookup_alias(obj)
    if entry is not None and entry[0] != threading.get_ident():
        _record(
            "alias-escape",
            f"{context}: live arena alias '{entry[1]}' used from a thread "
            f"other than its borrower — the optimizer mutates that memory; "
            f"copy before sharing",
        )


def check_no_alias(payload, context: str) -> None:
    """Report any registered live alias reachable (shallowly) in ``payload``.

    Called at transport boundaries: whatever crosses is serialized on a
    background sender thread or read by another rank's thread, so a borrow
    its owner may write at any time is a race by construction.  Lent and
    retired vectors and copies pass.
    """
    if not _installed:
        return
    found = _by_reference(payload, lent=False)
    if found is not None:
        _record("alias-escape",
                f"{context}: {found} inside an outgoing payload — its owner "
                f"may write it before the frame is sent; send a copy or lend it")


def check_kept(payload, context: str) -> None:
    """Report a live alias or a lent vector in a message a keeper (the
    master) is handed: what it keeps must be a copy or retired."""
    if not _installed:
        return
    found = _by_reference(payload, lent=True)
    if found is not None:
        _record("alias-escape",
                f"{context}: {found} handed to a keeper, which holds it past "
                f"the round — send a copy or a retired (export_center) vector")


def _by_reference(payload, *, lent: bool) -> str | None:
    """The first registered live alias (or, with ``lent``, lent vector)
    reachable in ``payload``, described; ``None`` if there is none."""
    for obj in _walk(payload, depth=3):
        entry = _lookup_alias(obj)
        if entry is not None:
            return f"live arena alias '{entry[1]}'"
        if lent:
            with _state:
                entry = _lent.get(id(obj))
            if entry is not None and entry[1]() is obj:
                return f"lent vector '{entry[0]}'"
    return None


def check_unlent(buffer, context: str) -> None:
    """Report a live lent vector lying in ``buffer``, about to be written."""
    if not _installed:
        return
    with _state:
        entries = list(_lent.values())
    low, high = _span(buffer)
    for label, ref in entries:
        lent = ref()
        if lent is None:
            continue
        start, end = _span(lent)
        if start < high and low < end:
            _record(
                "lent-write",
                f"{context}: writes a slab while '{label}', lent by "
                f"reference, can still be reached — a queued frame or a "
                f"consumer would see the write",
            )
            return


def _span(array) -> tuple[int, int]:
    """First and one-past-last byte address of a contiguous array."""
    start = array.__array_interface__["data"][0]
    return start, start + array.nbytes


def _walk(obj, depth: int):
    yield obj
    if depth <= 0:
        return
    if isinstance(obj, (list, tuple, set)):
        for item in obj:
            yield from _walk(item, depth - 1)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _walk(item, depth - 1)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _walk(item, depth - 1)
    elif hasattr(obj, "__slots__"):
        for name in obj.__slots__:
            item = getattr(obj, name, None)
            if item is not None:
                yield from _walk(item, depth - 1)


# --------------------------------------------------------------------------
# Diagnostics.
# --------------------------------------------------------------------------

def dump_threads() -> str:
    """Every thread's stack, annotated with the instrumented locks it holds."""
    with _state:
        held_by = {ident: [_names.get(l, hex(l)) for l in locks]
                   for ident, locks in _held.items() if locks}
    threads = {t.ident: t for t in threading.enumerate()}
    lines = ["=== lockcheck all-thread dump ==="]
    for ident, frame in sorted(sys._current_frames().items()):
        thread = threads.get(ident)
        name = thread.name if thread is not None else f"ident-{ident}"
        locks = held_by.get(ident, [])
        suffix = f" holding {locks}" if locks else ""
        lines.append(f"--- thread {name} ({ident}){suffix}")
        lines.extend(line.rstrip() for line in traceback.format_stack(frame))
    return "\n".join(lines)
