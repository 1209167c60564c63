"""The runtime concurrency checker: lock-order cycles, watchdog, aliases.

These tests install the checker explicitly (no ``REPRO_LOCKCHECK`` needed)
and drain every violation they seed, so the suite-wide autouse gate in
``conftest.py`` stays green.
"""

import threading
import time

import numpy as np
import pytest

from repro.analysis import lockcheck
from repro.config import NetworkSettings


@pytest.fixture()
def checker():
    """The checker installed for one test, with guaranteed restore."""
    already = lockcheck.installed()
    lockcheck.install(watchdog_s=30.0)
    try:
        yield lockcheck
    finally:
        lockcheck.clear_violations()
        if not already:    # REPRO_LOCKCHECK=1 runs keep the global install
            lockcheck.uninstall()
        lockcheck.reset()


# -- install/uninstall ------------------------------------------------------

def test_install_patches_and_uninstall_restores():
    already = lockcheck.installed()
    before = threading.Lock
    lockcheck.install()
    try:
        assert lockcheck.installed()
    finally:
        if not already:
            lockcheck.uninstall()
            lockcheck.reset()
    if not already:
        assert threading.Lock is before
        assert not lockcheck.installed()


def test_annotations_are_noops_when_off():
    if lockcheck.installed():
        pytest.skip("checker globally installed (REPRO_LOCKCHECK=1 run)")
    lock = threading.Lock()
    lockcheck.check_owned(lock, "anything")
    lockcheck.register_alias(np.zeros(3), "anything")
    lockcheck.check_no_alias({"x": np.zeros(3)}, "anything")
    assert lockcheck.violation_count() == 0


# -- lock-order (ABBA) ------------------------------------------------------

def test_seeded_abba_ordering_is_detected(checker):
    """Acquiring A->B then B->A is the deadlock shape, caught at the edge
    that closes the cycle — before any thread actually blocks."""
    lock_a = threading.Lock()
    lock_b = threading.Lock()
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with lock_a:      # closes the cycle
            pass
    kinds = [v.kind for v in lockcheck.clear_violations()]
    assert "lock-order" in kinds


def test_consistent_ordering_is_clean(checker):
    lock_a = threading.Lock()
    lock_b = threading.Lock()
    for _ in range(3):
        with lock_a:
            with lock_b:
                pass
    assert not lockcheck.violations()


def test_a_dead_locks_edges_do_not_pass_to_its_address(checker):
    """The order graph outlives the locks: a lock allocated where a dead
    one used to be must not inherit the dead one's place in the order —
    or two transports built one after the other read as an ABBA cycle."""
    for round_ in range(500):
        first, second = threading.Lock(), threading.Lock()
        if round_ % 2:      # same addresses as a moment ago, roles swapped
            first, second = second, first
        with first:
            with second:
                pass
        del first, second
    assert not lockcheck.violations()


def test_trylock_adds_no_edges(checker):
    """Non-blocking acquires cannot deadlock; inverting order via trylock
    must not be reported."""
    lock_a = threading.Lock()
    lock_b = threading.Lock()
    with lock_a:
        assert lock_b.acquire(blocking=False)
        lock_b.release()
    with lock_b:
        assert lock_a.acquire(blocking=False)
        lock_a.release()
    assert not lockcheck.violations()


def test_three_lock_cycle_is_detected(checker):
    a, b, c = threading.Lock(), threading.Lock(), threading.Lock()
    with a:
        with b:
            pass
    with b:
        with c:
            pass
    with c:
        with a:
            pass
    violations = lockcheck.clear_violations()
    assert any(v.kind == "lock-order" for v in violations)


def test_rlock_reentrancy_is_not_a_cycle(checker):
    rlock = threading.RLock()
    with rlock:
        with rlock:
            pass
    assert not lockcheck.violations()


def test_condition_wait_notify_roundtrip(checker):
    """Conditions keep full wait/notify semantics under instrumentation."""
    cond = threading.Condition()
    ready = []

    def waiter():
        with cond:
            cond.wait(timeout=10)
            ready.append(1)

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)
    with cond:
        cond.notify_all()
    thread.join(timeout=10)
    assert ready == [1]
    assert not lockcheck.violations()


# -- blocked-wait watchdog --------------------------------------------------

def test_watchdog_dumps_on_long_block(checker):
    lockcheck.install(watchdog_s=0.3)   # tighten the installed threshold
    lock = threading.Lock()
    held = threading.Event()
    release = threading.Event()

    def holder():
        with lock:
            held.set()
            release.wait(timeout=10)

    def blocker():
        with lock:
            pass

    holder_t = threading.Thread(target=holder)
    holder_t.start()
    assert held.wait(timeout=10)
    blocker_t = threading.Thread(target=blocker)
    blocker_t.start()
    time.sleep(0.8)                      # long enough to trip the watchdog
    release.set()
    blocker_t.join(timeout=10)
    holder_t.join(timeout=10)
    violations = lockcheck.clear_violations()
    blocked = [v for v in violations if v.kind == "blocked-wait"]
    assert blocked
    assert "all-thread dump" in blocked[0].message
    assert blocked[0].stack                     # the annotated stack dump


# -- guarded-mutation annotations -------------------------------------------

def test_check_owned_flags_unheld_lock(checker):
    lock = threading.Lock()
    lockcheck.check_owned(lock, "fixture buffer")
    violations = lockcheck.clear_violations()
    assert [v.kind for v in violations] == ["unguarded-mutation"]
    assert "fixture buffer" in violations[0].message


def test_check_owned_passes_under_lock(checker):
    lock = threading.Lock()
    with lock:
        lockcheck.check_owned(lock, "fixture buffer")
    cond = threading.Condition()
    with cond:
        lockcheck.check_owned(cond, "fixture buffer")
    assert not lockcheck.violations()


# -- alias tracking ---------------------------------------------------------

def test_cross_thread_alias_use_is_detected(checker):
    vector = np.zeros(8)
    lockcheck.register_alias(vector, "test-arena-slab")

    worker = threading.Thread(
        target=lockcheck.check_alias_use, args=(vector, "background reader"))
    worker.start()
    worker.join(timeout=10)

    violations = lockcheck.clear_violations()
    escapes = [v for v in violations if v.kind == "alias-escape"]
    assert escapes
    assert "test-arena-slab" in escapes[0].message


def test_same_thread_alias_use_is_fine(checker):
    vector = np.zeros(8)
    lockcheck.register_alias(vector, "test-arena-slab")
    lockcheck.check_alias_use(vector, "borrowing thread")
    assert not lockcheck.violations()


def test_alias_inside_payload_is_detected(checker):
    vector = np.zeros(8)
    lockcheck.register_alias(vector, "test-arena-slab")
    payload = {"genome": (vector, 2e-4), "iteration": 3}
    lockcheck.check_no_alias(payload, "Endpoint.send_group")
    violations = lockcheck.clear_violations()
    assert any(v.kind == "alias-escape" for v in violations)


def test_copies_pass_the_payload_check(checker):
    vector = np.zeros(8)
    lockcheck.register_alias(vector, "test-arena-slab")
    lockcheck.check_no_alias({"genome": vector.copy()}, "Endpoint.send_group")
    assert not lockcheck.violations()


def test_collected_alias_expires(checker):
    vector = np.zeros(8)
    lockcheck.register_alias(vector, "short-lived")
    del vector
    replacement = np.zeros(8)    # may reuse the id; must not false-positive
    lockcheck.check_no_alias({"genome": replacement}, "send")
    assert not lockcheck.violations()


def test_parameters_to_vector_registers_the_borrow(checker):
    """The real alias producer feeds the tracker: an alias=True borrow
    crossing a thread is reported, a copy is not."""
    from repro.gan.networks import Generator
    from repro.nn.serialize import parameters_to_vector

    small = NetworkSettings(latent_size=4, hidden_layers=2, hidden_neurons=8,
                            output_neurons=9)
    network = Generator(small, np.random.default_rng(0))
    borrowed = parameters_to_vector(network, alias=True)

    worker = threading.Thread(
        target=lockcheck.check_alias_use, args=(borrowed, "sender thread"))
    worker.start()
    worker.join(timeout=10)
    assert any(v.kind == "alias-escape"
               for v in lockcheck.clear_violations())

    copied = parameters_to_vector(network)
    lockcheck.check_no_alias({"genome": copied}, "send")
    assert not lockcheck.violations()


# -- the lifetime rule: lent, retired, kept ------------------------------------

class _World:
    """The WORLD communicator of a slave, as far as sending goes."""

    def __init__(self):
        self.sent = []

    def Get_rank(self):
        return 1

    def send(self, message, dest, tag):
        self.sent.append((dest, message))


def _cell():
    from repro.coevolution.cell import Cell
    from tests.conftest import make_quick_config

    return Cell(make_quick_config(), 0, None)


def _send_to_master(message):
    from repro.parallel.comm_manager import MpiCommManager

    MpiCommManager(_World()).send(0, message)


def _group(payload):
    from repro.mpi.endpoint import Group

    return Group((0, 0, 1), 1, payload, ((2, 7),))


def test_writable_arena_view_crossing_a_send_is_reported(checker):
    """The old rule's first case, kept: a live borrow of memory that trains
    — a network's own writable arena — inside an outgoing group."""
    from repro.coevolution.genome import genome_from_network
    from repro.gan.networks import Generator
    from tests.conftest import make_quick_config

    network = Generator(make_quick_config().network, np.random.default_rng(0))
    genome = genome_from_network(network, 2e-4, "bce", alias=True)
    assert genome.parameters.flags.writeable
    lockcheck.check_no_alias(_group({"genome": genome}), "Endpoint.send_group")
    assert [v.kind for v in lockcheck.clear_violations()] == ["alias-escape"]


def test_by_reference_snapshot_to_a_keeping_master_is_reported(checker):
    """The old rule's second case, kept: a snapshot of borrowed center
    vectors sent to the master — at the send, and where the master keeps
    it; a lent center is reported there too, a copy or a retired center
    is not."""
    from repro.coevolution.checkpoint import CellSnapshot

    cell = _cell()
    weights = cell.mixture.weights.copy()
    borrowed = CellSnapshot(0, 0, *cell.center_genomes(alias=True), weights)
    lockcheck.check_no_alias(_group(borrowed), "Endpoint.send_group")
    _send_to_master(borrowed)
    assert [v.kind for v in lockcheck.clear_violations()] == ["alias-escape"] * 2

    lent = CellSnapshot(0, 0, *cell.lend_center(), weights)
    _send_to_master(lent)
    (violation,) = lockcheck.clear_violations()
    assert "lent vector" in violation.message and "keeper" in violation.message

    _send_to_master(cell.snapshot())
    _send_to_master(cell.snapshot(export=True))
    assert not lockcheck.violations()


def test_lent_payload_crosses_a_send(checker):
    """What the lifetime rule lets through: the center lent by reference."""
    from repro.parallel.messages import ExchangePayload

    cell = _cell()
    payload = ExchangePayload(0, 0, *cell.lend_center())
    lockcheck.check_no_alias(_group(payload), "Endpoint.send_group")
    assert not lockcheck.violations()


def test_writing_a_slab_under_a_live_lease_is_reported(checker):
    cell = _cell()
    g, d = cell.lend_center()
    lockcheck.check_unlent(cell._g_slabs[0], "test writes the center slab")
    (violation,) = lockcheck.clear_violations()
    assert violation.kind == "lent-write"
    lockcheck.check_unlent(cell._g_slabs[1], "test writes the spare slab")
    assert not lockcheck.violations()
    del g, d
    lockcheck.check_unlent(cell._g_slabs[0], "test writes after the lease died")
    assert not lockcheck.violations()


def test_a_cell_never_trains_under_its_own_lease(checker, small_dataset):
    """The cell keeps the rule itself: with last round's lent vectors still
    reachable, its next step trains in a fresh slab, and the check at the
    write stays silent."""
    from repro.coevolution.cell import Cell
    from tests.conftest import make_quick_config
    from tests.test_cell_data_path import neighbor_genomes

    config = make_quick_config()
    neighbors = neighbor_genomes(config, small_dataset, 4)
    cell = Cell(config, 0, small_dataset)
    held, lent_bytes = [], []
    for _ in range(3):
        cell.release_neighbors()
        pair = cell.lend_center()
        held.append(pair)
        lent_bytes.append([genome.parameters.tobytes() for genome in pair])
        cell.step(neighbors)
    assert [[genome.parameters.tobytes() for genome in pair] for pair in held] == lent_bytes
    assert not lockcheck.violations()
