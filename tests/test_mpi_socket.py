"""The TCP transport end to end: rendezvous, routing, collectives, host
specs, failure synthesis and the transport registry.

Per-rank programs live at module level — the socket transport pickles them
to its workers: forked local workers already hold this module, replacement
``repro worker`` processes re-import it via the inherited ``sys.path``.
"""

import numpy as np
import pytest

from repro.mpi import (
    MpiError,
    available_transports,
    make_transport,
    register_transport,
    run_mpi,
)
from repro.mpi.socket_transport import parse_address, parse_host_spec
from repro.mpi.transport import ThreadTransport


# -- per-rank programs (must be importable from worker processes) -------------

def ring_program(world, payload_size):
    """Each rank passes a genome-sized array around the ring once."""
    rank, size = world.Get_rank(), world.Get_size()
    own = np.full(payload_size, float(rank))
    world.send(own, dest=(rank + 1) % size, tag=7)
    incoming = world.recv(source=(rank - 1) % size, tag=7, timeout=30)
    world.barrier(timeout=30)
    return float(incoming[0])


def collective_program(world, offset):
    rank = world.Get_rank()
    gathered = world.allgather(np.arange(3.0) + rank + offset)
    world.barrier(timeout=30)
    return float(sum(g.sum() for g in gathered))


def rank_program(world):
    return world.Get_rank()


def crash_program(world, victim):
    if world.Get_rank() == victim:
        raise RuntimeError("deliberate crash for the failure test")
    return world.Get_rank()


class _CreatesFileOnUnpickle:
    """Pickles cleanly; unpickling it creates ``path`` (an exploit proxy)."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def local_program(world, _unused):
    """The LOCAL context, attached as the comm-manager does it: every rank
    but 0 on its own, then a barrier over it that crosses workers."""
    if world.Get_rank() == 0:
        return 0
    local = world.Attach_derived((0, 1), range(1, world.Get_size()))
    local.barrier(timeout=30)
    return local.Get_size()


class TestHostSpecs:
    def test_parse_variants(self):
        assert parse_host_spec(None, 4) == [("127.0.0.1", 4)]
        assert parse_host_spec("a:3,b:2", 5) == [("a", 3), ("b", 2)]
        assert parse_host_spec(["a", "b"], 2) == [("a", 1), ("b", 1)]
        assert parse_host_spec([("a", 2)], 2) == [("a", 2)]

    def test_slots_must_sum_to_size(self):
        with pytest.raises(ValueError, match="sum"):
            parse_host_spec("a:2,b:2", 5)

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            parse_host_spec("a:0", 1)
        with pytest.raises(ValueError):
            parse_host_spec(":3", 3)

    def test_typoed_slot_suffix_rejected(self):
        """'nodeB:5x' must fail at parse time, not 60s later as a
        rendezvous timeout on a host that never existed."""
        with pytest.raises(ValueError, match="must be a number"):
            parse_host_spec("nodeA:1,nodeB:5x", 2)
        with pytest.raises(ValueError, match="must be a number"):
            parse_address("coord:555o")
        with pytest.raises(ValueError, match="must be a number"):
            parse_address("[::1]:5o55")

    @pytest.mark.parametrize("when", ["rendezvous", "after-the-barrier"])
    def test_garbage_hello_rejected_not_fatal(self, when, capsys):
        """A stranger's malformed hello must reject that connection only,
        never crash the coordinator — during the rendezvous or, through the
        same admission, on the listener it keeps open afterwards."""
        import socket as socket_module
        import threading
        import time

        from repro.mpi import wire
        from repro.mpi.socket_transport import SocketTransport

        transport = SocketTransport(2, hosts="127.0.0.1:2", token="tok",
                                    start_timeout=30)
        launched = threading.Thread(
            target=transport.launch, args=(ring_program, (4,)), daemon=True)
        launched.start()
        try:
            deadline = time.monotonic() + 20
            while transport._listener is None:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            port = transport._listener.getsockname()[1]
            if when == "after-the-barrier":
                launched.join(timeout=60)
            with socket_module.create_connection(("127.0.0.1", port),
                                                 timeout=10) as intruder:
                # Valid magic, HELLO kind, but the payload is not a dict.
                intruder.sendall(wire.pack_frame(wire.HELLO, 0, ["not", "a",
                                                                 "dict"]))
            launched.join(timeout=60)
            assert not launched.is_alive(), "rendezvous crashed or hung"
            outcomes = transport.collect(timeout=60)
            # Ring of 2: each rank returns the other's value.
            assert [o.value for o in outcomes] == [1.0, 0.0]
            seen = ""
            while "rejected connection" not in seen:
                assert time.monotonic() < deadline, "hello never rejected"
                time.sleep(0.05)
                seen += capsys.readouterr().err
            assert "hello is not valid JSON" in seen
        finally:
            transport.shutdown()

    def test_pickled_hello_rejected_before_unpickle(self, tmp_path):
        """SECURITY: the hello arrives before the peer has presented the
        rendezvous token, so the coordinator must never unpickle it — a
        crafted pickle in a HELLO frame is arbitrary code execution for
        anyone who can reach a routable bind.  The payload here creates a
        sentinel file when (and only when) it is unpickled."""
        import socket as socket_module
        import threading
        import time

        from repro.mpi import wire
        from repro.mpi.socket_transport import SocketTransport

        sentinel = tmp_path / "unpickled-pre-auth"
        transport = SocketTransport(2, hosts="127.0.0.1:2", token="tok",
                                    start_timeout=30)
        launched = threading.Thread(
            target=transport.launch, args=(ring_program, (4,)), daemon=True)
        launched.start()
        try:
            deadline = time.monotonic() + 20
            while transport._listener is None:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            port = transport._listener.getsockname()[1]
            with socket_module.create_connection(("127.0.0.1", port),
                                                 timeout=10) as intruder:
                evil = _CreatesFileOnUnpickle(str(sentinel))
                intruder.sendall(wire.pack_frame(wire.HELLO, 0, evil))
            launched.join(timeout=60)
            assert not launched.is_alive(), "rendezvous crashed or hung"
            outcomes = transport.collect(timeout=60)
            assert [o.value for o in outcomes] == [1.0, 0.0]
            assert not sentinel.exists(), \
                "coordinator unpickled a pre-auth hello payload"
        finally:
            transport.shutdown()

    def test_rendezvous_returns_when_the_last_hello_is_admitted(self, monkeypatch):
        """The admission that empties the pending set wakes the rendezvous
        itself — no waiting for the accept loop's next poll to notice."""
        import json
        import queue
        import socket as socket_module
        import threading

        from repro.mpi import wire
        from repro.mpi.socket_transport import _WIRE_VERSION, SocketTransport

        transport = SocketTransport(1, hosts="elsewhere:1", token="tok",
                                    start_timeout=120)
        handed_over: queue.Queue = queue.Queue()
        # No accept loop: the test admits the one worker by hand.
        monkeypatch.setattr(transport, "_accept_loop",
                            lambda: handed_over.put("started"))
        waiter = threading.Thread(target=transport._rendezvous_loop, daemon=True)
        waiter.start()
        handed_over.get(timeout=10)
        with socket_module.create_server(("127.0.0.1", 0)) as server:
            worker = socket_module.create_connection(server.getsockname())
            coordinator_side, _ = server.accept()
        try:
            worker.sendall(wire.pack_frame(wire.HELLO, 1, body=json.dumps({
                "version": _WIRE_VERSION, "token": "tok", "slots": 1,
                "index": 0, "dtype": "float64"}).encode()))
            transport._admit_slots.acquire()  # released by _admit
            transport._admit(coordinator_side)
            waiter.join(timeout=10)
            assert not waiter.is_alive(), "rendezvous missed the last admission"
            assert not transport._pending
        finally:
            worker.close()
            transport.shutdown()

    def test_worker_connect_requires_port(self, capsys):
        """`repro worker --connect host` (port forgotten) must fail with a
        usage error, not a confusing connect-to-port-0 OS error."""
        from repro.mpi.socket_transport import worker_main

        assert worker_main("somehost") == 2
        assert "expected host:port" in capsys.readouterr().err

    def test_ipv6_literals(self):
        assert parse_host_spec("[::1]:5", 5) == [("::1", 5)]
        assert parse_host_spec("::1", 1) == [("::1", 1)]  # bare = 1 slot
        with pytest.raises(ValueError, match="unterminated"):
            parse_host_spec("[::1:5", 5)

    def test_parse_address(self):
        assert parse_address("host:123") == ("host", 123)
        assert parse_address("host", default_port=9) == ("host", 9)
        assert parse_address("[::1]:123") == ("::1", 123)
        assert parse_address("::1", default_port=9) == ("::1", 9)

    def test_dataset_cache_key_handles_unhashable_options(self):
        """Registered dataset factories may take dict/list options; the
        per-node cache key must not choke on them."""
        from repro.config import default_config
        from repro.parallel.runner import _materialize_dataset
        from repro.registry import DATASETS

        seen = []

        def factory(config, noise=None):
            seen.append(noise)
            from repro.data.dataset import ArrayDataset
            import numpy as np

            return ArrayDataset(np.zeros((4, 4)), np.zeros(4, dtype=np.int64))

        DATASETS.register("test-dict-options", factory)
        try:
            config = default_config()
            payload = ("registry", "test-dict-options", {"noise": {"sigma": 1}})
            first = _materialize_dataset(config, payload)
            second = _materialize_dataset(config, payload)
            assert first is second  # cached per node, built once
            assert seen == [{"sigma": 1}]
        finally:
            DATASETS.unregister("test-dict-options")

    def test_empty_token_hardens_instead_of_disabling_auth(self):
        """token=\"\" (e.g. a config template rendering an empty string)
        must auto-generate a secret, never run an open rendezvous."""
        from repro.mpi.socket_transport import SocketTransport

        assert SocketTransport(1, token="").token
        assert SocketTransport(1, token=None).token
        assert SocketTransport(1, token="s3cret").token == "s3cret"

    def test_spawned_workers_follow_specific_bind(self):
        from repro.mpi.socket_transport import SocketTransport

        loopback = SocketTransport(1, bind="0.0.0.0:0")
        assert loopback._local_connect_host == "127.0.0.1"
        routable = SocketTransport(1, bind="192.0.2.7:5555")
        assert routable._local_connect_host == "192.0.2.7"


class TestRegistry:
    def test_builtins_present(self):
        assert {"threaded", "process", "socket"} <= available_transports()

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_transport("telepathy", 2)

    def test_register_and_duplicate(self):
        register_transport("test-dummy", ThreadTransport)
        try:
            transport = make_transport("test-dummy", 2)
            assert isinstance(transport, ThreadTransport)
            with pytest.raises(ValueError, match="already registered"):
                register_transport("threaded", ThreadTransport)
        finally:
            from repro.mpi import transport as transport_module

            del transport_module._TRANSPORTS["test-dummy"]


class TestSocketJobs:
    def test_single_worker_ring(self):
        results = run_mpi(3, ring_program, args=(64,), backend="socket",
                          timeout=120)
        assert list(results) == [2.0, 0.0, 1.0]

    def test_ipv6_loopback_coordinator(self):
        """Binding [::1] opens an AF_INET6 listener and the spawned local
        worker connects over the same family."""
        results = run_mpi(2, ring_program, args=(8,), backend="socket",
                          timeout=120,
                          transport_options={"bind": "[::1]:0"})
        assert list(results) == [1.0, 0.0]

    def test_multi_worker_collectives_match_threaded(self):
        threaded = run_mpi(4, collective_program, args=(1,),
                           backend="threaded", timeout=120)
        socketed = run_mpi(
            4, collective_program, args=(1,), backend="socket", timeout=120,
            transport_options={"hosts": "127.0.0.1:2,127.0.0.1:2"})
        assert list(threaded) == list(socketed)

    def test_context_split_across_workers(self):
        results = run_mpi(
            3, local_program, args=(None,), backend="socket", timeout=120,
            transport_options={"hosts": "127.0.0.1:1,127.0.0.1:2"})
        assert list(results) == [0, 2, 2]

    def test_transport_stats_attached(self):
        results = run_mpi(3, ring_program, args=(128,), backend="socket",
                          timeout=120)
        stats = results.transport_stats
        assert [s.rank for s in stats] == [0, 1, 2]
        for record in stats:
            assert record.messages_sent >= 2  # ring send + barrier traffic
            assert record.bytes_sent >= 128 * 8

    def test_rank_failure_surfaces_with_traceback(self):
        results = run_mpi(3, crash_program, args=(1,), backend="socket",
                          timeout=120, allow_failures=True)
        assert results[1] is None
        assert "deliberate crash" in results.failures[1]
        assert results[0] == 0 and results[2] == 2

    def test_unpicklable_program_rejected_early(self):
        captured = []

        def closure_program(world):  # pragma: no cover - never runs
            return captured

        with pytest.raises(MpiError, match="picklable"):
            run_mpi(2, closure_program, backend="socket", timeout=30)

    def test_rendezvous_timeout(self):
        # A remote host nobody will ever start: the coordinator must give
        # up cleanly instead of hanging.
        with pytest.raises(MpiError, match="rendezvous"):
            run_mpi(2, ring_program, args=(8,), backend="socket", timeout=30,
                    transport_options={"hosts": "unreachable-host:2",
                                       "start_timeout": 1.0})

    def test_worker_process_death_synthesized(self):
        """SIGKILL one worker mid-run: its ranks become failed outcomes and
        the survivors' outcomes still arrive (no hang)."""
        import threading
        import time

        transport = make_transport("socket", 3, hosts="127.0.0.1:2,127.0.0.1:1")
        transport.launch(sleepy_program, (3.0,))

        def assassin():
            time.sleep(0.7)
            transport.kill_rank(2)

        killer = threading.Thread(target=assassin)
        killer.start()
        try:
            outcomes = transport.collect(timeout=60)
        finally:
            killer.join()
            transport.shutdown()
        assert not outcomes[0].failed and not outcomes[1].failed
        assert outcomes[2].failed
        assert "lost" in outcomes[2].error


class TestWorkerCounters:
    """What a worker's ranks start their ``TransportStats`` with: one
    reconnect for a replacement or a joiner, and the connect retries it
    took — per incarnation, nothing carried over."""

    @pytest.mark.parametrize("late", [{}, {"respawn": True}, {"join": True}],
                             ids=["rendezvous", "respawn", "join"])
    def test_reconnect_and_connect_retries(self, monkeypatch, late):
        import socket
        import threading

        from repro.mpi import socket_transport, wire

        real_connect = socket_transport.retry_connect

        def refused_twice(address, *, timeout, on_retry):
            for attempt in (1, 2):
                on_retry(attempt, ConnectionRefusedError("not yet"))
            return real_connect(address, timeout=timeout, on_retry=on_retry)

        monkeypatch.setattr(socket_transport, "retry_connect", refused_twice)
        listener = socket.create_server(("127.0.0.1", 0))
        codes = []
        worker = threading.Thread(target=lambda: codes.append(
            socket_transport.worker_main(
                f"127.0.0.1:{listener.getsockname()[1]}", slots=1, index=1,
                token="t", quiet=True, timeout=30)))
        worker.start()
        coordinator, _ = listener.accept()
        listener.close()
        coordinator.settimeout(30)
        try:
            assert wire.read_frame(coordinator).kind == wire.HELLO
            wire.write_frame(coordinator, wire.pack_frame(wire.START, 1, {
                "ranks": [1], "size": 2, "blocks": [[0], [1]],
                "program": wire.encode_body((rank_program, ())), **late}))
            result = wire.read_frame(coordinator)
            assert result.kind == wire.RESULT
            outcome = result.payload()
            assert outcome.value == 1
            assert outcome.stats.reconnects == (1 if late else 0)
            assert outcome.stats.send_retries == 2
            assert outcome.stats.ranks_lost == 0
            wire.write_frame(coordinator, wire.pack_frame(wire.SHUTDOWN, 0))
            worker.join(timeout=30)
            assert codes == [0]
        finally:
            coordinator.close()


def sleepy_program(world, seconds):
    """Ranks idle long enough for the assassin thread to strike rank 2."""
    import time

    time.sleep(seconds)
    return world.Get_rank()


def blocked_program(world):
    """Blocks in a receive that nothing will ever satisfy."""
    return world.recv(source=0, tag=5)


class TestExternalWorkerShutdown:
    def test_early_shutdown_unblocks_external_worker(self):
        """Coordinator shutdown mid-run (timeout, launch failure) must
        release a still-working *external* worker — its blocked receives
        fail fast and the process exits instead of hanging until someone
        kills it by hand."""
        import os
        import subprocess
        import sys
        import threading
        import time

        transport = make_transport("socket", 1, hosts="some-remote-host:1",
                                   bind="127.0.0.1:0", token="tok",
                                   start_timeout=60)
        launched = threading.Thread(
            target=transport.launch, args=(blocked_program, ()), daemon=True)
        launched.start()
        deadline = time.monotonic() + 30
        while transport._listener is None:
            assert time.monotonic() < deadline, "listener never bound"
            time.sleep(0.05)
        port = transport._listener.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{port}", "--slots", "1",
             "--index", "0", "--token", "tok", "--quiet"], env=env)
        try:
            launched.join(timeout=60)
            assert not launched.is_alive(), "rendezvous never completed"
            time.sleep(0.5)  # the worker's rank is now blocked in recv
            transport.shutdown()
            assert worker.wait(timeout=30) == 1  # rank failed, but exited
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=10)


# -- fork launch ---------------------------------------------------------------

#: Set in the coordinator right before a launch: a forked worker inherits
#: the value, a ``repro worker`` process re-imports this module and sees None.
_SET_BEFORE_LAUNCH = None


def launch_route_program(world):
    """How this rank's worker came to be, and which files it holds open."""
    import os

    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            inodes.add(os.stat(f"/proc/self/fd/{fd}").st_ino)
        except OSError:  # the listing's own descriptor
            pass
    return {"inherited": _SET_BEFORE_LAUNCH, "parent": os.getppid(),
            "pid": os.getpid(), "inodes": inodes}


def rehost_program(world, first_run_marker):
    """Rank 1's first incarnation idles until it is killed; whatever re-hosts
    the rank tells rank 0 how its worker was launched."""
    import os
    import time

    if world.Get_rank() == 0:
        return world.recv(source=1, tag=3, timeout=120)
    if not os.path.exists(first_run_marker):
        open(first_run_marker, "w").close()
        time.sleep(120)
    world.send(_SET_BEFORE_LAUNCH, dest=0, tag=3)
    return None


def wait_for_drain_program(world, running_marker):
    """Returns once this rank was asked to drain (what SIGTERM requests)."""
    import time

    from repro.parallel import elastic

    open(f"{running_marker}.{world.Get_rank()}", "w").close()
    deadline = time.monotonic() + 60
    while not elastic.drain_requested(world.Get_rank()):
        assert time.monotonic() < deadline, "never asked to drain"
        time.sleep(0.02)
    return "drained"


def _wait_for(path, seconds=60):
    import os
    import time

    deadline = time.monotonic() + seconds
    while not os.path.exists(path):
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.02)


class TestForkLaunch:
    """Local host-spec entries are forked from the coordinator at launch;
    only replacements go through ``repro worker``."""

    @pytest.fixture()
    def set_before_launch(self, monkeypatch):
        import sys

        monkeypatch.setattr(sys.modules[__name__], "_SET_BEFORE_LAUNCH",
                            "inherited")

    def test_local_workers_are_forks_without_the_listener(self, set_before_launch):
        import os

        transport = make_transport("socket", 3, hosts="127.0.0.1:2,127.0.0.1:1")
        try:
            transport.launch(launch_route_program, ())
            listener = os.fstat(transport._listener.fileno()).st_ino
            outcomes = transport.collect(timeout=60)
        finally:
            transport.shutdown()
        reports = [outcome.value for outcome in outcomes]
        assert len({report["pid"] for report in reports}) == 2  # two workers
        for report in reports:
            assert report["inherited"] == "inherited"
            assert report["parent"] == os.getpid()
            assert listener not in report["inodes"], \
                "a forked worker kept the coordinator's listener open"

    def test_no_transport_thread_exists_at_fork_time(self, monkeypatch):
        """Every local worker is forked before the transport starts its
        accept, admit, reader or writer threads."""
        import os
        import threading

        before = set(threading.enumerate())
        started_by_fork_time = []
        real_fork = os.fork

        def recording_fork():
            started_by_fork_time.append(set(threading.enumerate()) - before)
            return real_fork()

        monkeypatch.setattr(os, "fork", recording_fork)
        results = run_mpi(3, ring_program, args=(8,), backend="socket",
                          timeout=120, transport_options={
                              "hosts": "127.0.0.1:1,127.0.0.1:1,127.0.0.1:1"})
        assert list(results) == [2.0, 0.0, 1.0]
        assert started_by_fork_time == [set(), set(), set()]

    def test_fork_waits_out_an_import_the_worker_needs(self):
        """A thread of the launching process that is half way through
        importing the idna codec (``getaddrinfo`` does, on a process's
        first connect) holds that module's import lock; a worker forked
        at that instant would inherit it held, and hang resolving the
        coordinator's address.  In a fresh interpreter, with the module's
        execution slowed to a second: the launch must wait for it, not
        time out."""
        import os
        import subprocess
        import sys

        script = """
import importlib.abc, importlib.machinery, sys, threading, time
from repro.mpi import run_mpi
from tests.test_mpi_socket import ring_program

entered = threading.Event()

class SlowLoader(importlib.abc.Loader):
    def __init__(self, real):
        self.real = real
    def create_module(self, spec):
        return self.real.create_module(spec)
    def exec_module(self, module):    # runs under the module's import lock
        entered.set()
        time.sleep(1.0)
        self.real.exec_module(module)

class SlowIdna(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name != "encodings.idna":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        spec.loader = SlowLoader(spec.loader)
        return spec

assert "encodings.idna" not in sys.modules
sys.meta_path.insert(0, SlowIdna())
threading.Thread(target="host".encode, args=("idna",), daemon=True).start()
assert entered.wait(10)
print(list(run_mpi(2, ring_program, args=(8,), backend="socket", timeout=15,
                   transport_options={"hosts": "127.0.0.1:2"})))
"""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), root])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[1.0, 0.0]"

    def test_killed_forked_worker_is_rehosted_by_repro_worker(
            self, tmp_path, set_before_launch):
        import subprocess
        import threading

        marker = tmp_path / "first-incarnation-ran"
        transport = make_transport("socket", 2, hosts="127.0.0.1:1,127.0.0.1:1",
                                   max_restarts=1)
        try:
            transport.launch(rehost_program, (str(marker),))
            assert not isinstance(transport._procs[1], subprocess.Popen)

            def assassin():
                _wait_for(marker)
                transport.kill_rank(1)

            killer = threading.Thread(target=assassin)
            killer.start()
            try:
                outcomes = transport.collect(timeout=120)
            finally:
                killer.join()
            assert isinstance(transport._procs[1], subprocess.Popen)
        finally:
            transport.shutdown()
        # The replacement re-imported this module: nothing was inherited.
        assert not outcomes[0].failed, outcomes[0].error
        assert outcomes[0].value is None

    def test_sigterm_on_forked_worker_drains(self, tmp_path):
        import os
        import signal

        marker = tmp_path / "running"
        transport = make_transport("socket", 2, hosts="127.0.0.1:1,127.0.0.1:1")
        try:
            transport.launch(wait_for_drain_program, (str(marker),))
            for index in (0, 1):
                _wait_for(f"{marker}.{index}")
                os.kill(transport._procs[index].pid, signal.SIGTERM)
            outcomes = transport.collect(timeout=60)
        finally:
            transport.shutdown()
        assert [outcome.value for outcome in outcomes] == ["drained", "drained"]

    def test_forked_workers_inherit_the_launchers_dataset(self, tmp_path,
                                                          small_dataset):
        """The launcher loads a registry dataset once, before the fork; no
        worker loads it again, and the launcher lets go of it afterwards."""
        import os

        from repro.parallel import runner as runner_module
        from repro.parallel.runner import DistributedRunner
        from repro.registry import DATASETS
        from tests.conftest import make_quick_config

        loads = tmp_path / "loads"

        def factory(config):
            with open(loads, "a") as log:
                log.write(f"{os.getpid()}\n")
            return small_dataset

        DATASETS.register("test-fork-preload", factory)
        try:
            result = DistributedRunner(
                make_quick_config(2, 2, iterations=1), backend="socket",
                hosts="127.0.0.1:3,127.0.0.1:2",
                dataset_spec=("test-fork-preload", {})).run()
        finally:
            DATASETS.unregister("test-fork-preload")
        assert result.complete
        assert loads.read_text().split() == [str(os.getpid())]
        assert not any(key[1] == "test-fork-preload"
                       for key in runner_module._NODE_DATASETS)
