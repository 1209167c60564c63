"""TCP transport: multi-node runs over length-prefixed pickle-5 frames.

Topology is hub-and-spoke.  One **coordinator** (the launching process —
:class:`SocketTransport`) binds a TCP port and runs the rendezvous: ``N``
worker processes (``repro worker --connect host:port``) connect, present a
hello frame, and receive a contiguous block of ranks plus the pickled
per-rank program.  After the rendezvous barrier the coordinator becomes a
pure router — a ``MSG`` frame is forwarded to every worker its routing
table names, once per connection and *without unpickling* (header, routes
and body pass through as the objects that were received) — and a results
collector.

Each worker hosts its block of ranks as threads sharing one connection.
What moves is a *group* — one payload plus its ``(rank, tag)`` routes (see
:class:`~repro.mpi.endpoint.Group`): co-hosted destinations take the object
by reference through in-process queues, and all remote destinations share
**one** frame, which each destination worker decodes once for every rank
it hosts.  A worker that dies (process kill, network partition) surfaces as
synthesized failed outcomes for its ranks, exactly like a forked rank dying
under :class:`ProcessTransport` — the master's heartbeat layer sees the
silence and degrades the run the same way on both substrates.  The
coordinator keeps no membership view of its own: it drops a dead
connection's share of every frame, and the survivors learn of a death,
drain, respawn or join only from the master's fault notices and aborts.

Host specs (``--hosts``) are ``host:slots`` entries.  ``localhost`` /
``127.0.0.1`` / ``::1`` blocks are **forked from the coordinator** at
launch, before it starts any thread: the worker inherits the imported
modules, the BLAS pin and whatever the launcher already loaded (the
dataset — see :mod:`repro.parallel.runner`) copy-on-write, and runs
:func:`worker_main` directly.  Anything else is waited for (the coordinator
prints the ``repro worker`` command to start on that machine).  A
replacement for a dead local worker (``max_restarts``) is started with that
same command instead: by then the coordinator runs router threads, and a
multi-threaded process must not fork.  Either way the worker is the one
:func:`worker_main` body.
"""

from __future__ import annotations

import hmac
import json
import multiprocessing
import os
import queue
import secrets
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Sequence

from repro.mpi import wire
from repro.mpi.backoff import retry_connect
from repro.mpi.endpoint import SHUTDOWN, Group, Link
from repro.mpi.errors import MpiError
from repro.mpi.stats import TransportStats
from repro.mpi.transport import Transport, WorkerOutcome, execute_rank
from repro.telemetry import bus as telemetry

__all__ = [
    "SocketTransport",
    "worker_main",
    "drain_request",
    "parse_host_spec",
    "parse_address",
]

#: Hostnames the coordinator launches workers for by itself.
LOCAL_HOSTNAMES = {"localhost", "127.0.0.1", "::1"}

# v2: the hello body is JSON, not pickle.
# v3: the hello carries the run's dtype policy; the coordinator rejects
#     peers whose policy differs (mixed-dtype grids would corrupt genome
#     exchange silently — a float16 vector widening into a float64 arena
#     trains a different trajectory than every other cell).
# v4: elastic membership — the hello may carry "join" (fill a vacant slot
#     mid-run) or "cmd": "drain" (control client); the coordinator
#     broadcasts epoch-stamped MEMBERSHIP frames and START carries the
#     slot's incarnation count + cumulative peer losses so TransportStats
#     aggregate across incarnations instead of resetting.
# v5: group routing prefix — every frame header counts the (rank, tag)
#     routes that follow it, a MSG is addressed by them (one body for all
#     its destinations) and pickles (context, source, payload) instead of
#     an Envelope; START names every worker's rank block.
# v6: the control protocol is one typed stream per direction.
# v7: the MEMBERSHIP broadcast (kind 7) and START's incarnation and
#     peer-loss counts are gone — the master's notices are the only
#     membership record; START's respawn/join flags remain.
_WIRE_VERSION = 7

#: Size cap on the pre-auth hello body.  A real hello is ~150 bytes; the
#: coordinator refuses to buffer more than this for a peer that has not
#: yet presented the rendezvous token.
_HELLO_MAX_BYTES = 4096

#: Seconds a freshly accepted connection gets to deliver its hello.
_HELLO_TIMEOUT_S = 5.0


# -- spec parsing -------------------------------------------------------------

def parse_host_spec(spec: str | Sequence[str] | Sequence[tuple[str, int]] | None,
                    size: int) -> list[tuple[str, int]]:
    """Normalize a host spec into ``[(host, slots), ...]`` summing to ``size``.

    Accepts ``"hostA:3,hostB:2"``, a list of such entries, or ready pairs;
    a bare ``"host"`` means one slot.  ``None`` places everything in one
    local worker — the laptop mode of the socket backend.
    """
    if spec is None:
        return [("127.0.0.1", size)]
    if isinstance(spec, str):
        entries: Sequence[Any] = [e for e in spec.split(",") if e.strip()]
    else:
        entries = spec
    hosts: list[tuple[str, int]] = []
    for entry in entries:
        if isinstance(entry, tuple):
            host, slots = entry
        else:
            host, slots = _split_host_entry(str(entry).strip())
        if not host or slots < 1:
            raise ValueError(f"bad host entry {entry!r}; expected 'host:slots'")
        hosts.append((host, int(slots)))
    total = sum(slots for _, slots in hosts)
    if total != size:
        raise ValueError(
            f"host spec provides {total} slot(s) but the job needs {size} "
            f"rank(s); adjust --hosts so the slots sum to the world size")
    return hosts


def _split_numeric_suffix(text: str, default: int) -> tuple[str, int]:
    """``host[:n]`` into ``(host, n)`` — the shared parse behind host-spec
    slots and address ports.  IPv6 literals use ``[addr]:n``; an
    unbracketed multi-colon string (``::1``) is treated as a bare host.

    A single-colon suffix that is not a number (``nodeB:5x``,
    ``coord:555o``) is a typo, not a hostname — it fails loudly here
    instead of surfacing minutes later as a timeout on a host or port
    that never existed.
    """
    if text.startswith("["):
        addr, bracket, tail = text[1:].partition("]")
        if not bracket:
            raise ValueError(f"unterminated IPv6 literal in {text!r}")
        suffix = tail.lstrip(":")
        if suffix and not suffix.isdigit():
            raise ValueError(
                f"bad entry {text!r}: the value after ':' must be a number")
        return addr, int(suffix) if suffix else default
    head, colon, tail = text.rpartition(":")
    if colon and tail.isdigit() and ":" not in head:
        return head, int(tail)
    if colon and text.count(":") == 1:
        raise ValueError(
            f"bad entry {text!r}: the value after ':' must be a number")
    return text, default


def _split_host_entry(entry: str) -> tuple[str, int]:
    """One ``host[:slots]`` entry; a bare host means one slot."""
    return _split_numeric_suffix(entry, default=1)


def parse_address(text: str, default_port: int = 0) -> tuple[str, int]:
    """``"host:port"`` (or bare ``"host"``) into a connectable pair;
    IPv6 literals use ``[addr]:port``."""
    return _split_numeric_suffix(text, default=default_port)


def _is_local(host: str) -> bool:
    return host in LOCAL_HOSTNAMES


# -- coordinator --------------------------------------------------------------

class _WorkerConnection:
    """Coordinator-side view of one worker: socket, ranks, IO threads."""

    def __init__(self, index: int, host: str, sock: socket.socket,
                 ranks: list[int]):
        self.index = index
        self.host = host
        self.sock = sock
        self.ranks = ranks
        #: Packed frames, forwarded (header, body) parts, or None to stop.
        self.outbound: "queue.Queue[bytes | tuple[bytes, bytearray] | None]" = queue.Queue()
        self.finished: set[int] = set()
        self.dead = False
        self.lock = threading.Lock()
        self.reader: threading.Thread | None = None
        self.writer: threading.Thread | None = None


class _ForkedWorker:
    """A worker forked at launch, behind the slice of the ``Popen``
    interface the coordinator uses — forked and respawned (``Popen``)
    workers share one bookkeeping list."""

    def __init__(self, process: multiprocessing.process.BaseProcess):
        self._process = process
        self.pid = process.pid

    @property
    def returncode(self) -> int | None:
        return self._process.exitcode

    def poll(self) -> int | None:
        return self._process.exitcode

    def wait(self, timeout: float | None = None) -> int:
        self._process.join(timeout)
        if self._process.exitcode is None:
            raise subprocess.TimeoutExpired(self._process.name, timeout)
        return self._process.exitcode

    def kill(self) -> None:
        self._process.kill()


def _preload_worker_imports() -> None:
    """Import, in the launcher, what a forked worker imports lazily on its
    way to the rendezvous.

    The transport forks before it starts a thread, but the launching
    process may run threads of its own (an embedding application; a test
    driving ``drain_request`` against its own run).  A fork copies whatever
    per-module import lock such a thread holds at that instant — held for
    ever in the child, which then never says hello if it needs the same
    module.  Seen with the ``idna`` codec, which ``getaddrinfo`` imports on
    the first connect of a process.  A module that is already imported is
    found without taking its lock.
    """
    "".encode("idna")
    import repro.parallel.elastic  # noqa: F401
    import repro.runtime  # noqa: F401


def _forked_worker(listener: socket.socket, connect: str,
                   options: dict[str, Any]) -> None:
    """Body of a worker forked from the coordinator: drop what belongs to
    the coordinator, start as clean as ``repro worker`` does, then run the
    same :func:`worker_main`."""
    # The accept queue is the coordinator's: a worker holding the listener
    # open would keep the port bound after the coordinator died.
    listener.close()
    from repro.parallel import elastic
    from repro.runtime import pin_blas_threads

    elastic.reset_drain_registry()
    pin_blas_threads(1)  # one rank = one core, as `repro worker` pins
    sys.exit(worker_main(connect, **options))


class SocketTransport(Transport):
    """Rank hosting over TCP worker processes (the multi-node substrate).

    Options
    -------
    hosts:
        Host spec (see :func:`parse_host_spec`); ``None`` forks one local
        worker hosting every rank.
    bind:
        ``host:port`` the coordinator listens on; port 0 picks a free one.
        Bind a routable address (e.g. ``0.0.0.0:5555``) for real clusters.
    token:
        Shared secret the hello frame must present; autogenerated when not
        given or empty — auth cannot be disabled (forked workers inherit
        the token, respawned ones receive it on their command line, the
        hint printed for remote hosts includes it).
    start_timeout:
        Seconds the rendezvous may take before the launch fails.
    dtype:
        Dtype policy name of the run (``float64``/``float32``/``mixed16``).
        Advertised in the hello handshake; every peer of one run must
        present the same policy or the coordinator rejects it.
    python:
        Interpreter that runs ``-m repro worker`` for a *replacement* local
        worker (default: this one).  Launch-time local workers are forked
        and never use it.
    max_restarts:
        Total replacement workers the coordinator may admit over the run
        (0, the default: a lost worker is never replaced).  A lost
        connection to a *local* worker starts a ``repro worker``
        subprocess in its place; an
        externally attached worker's replacement command is printed for the
        operator.  Either way the listener keeps accepting after the
        rendezvous and the reborn worker re-runs the per-rank program — the
        master's fault-recovery layer then resumes it from checkpoint.
    """

    name = "socket"

    def __init__(self, size: int, *, hosts: Any = None, bind: str = "127.0.0.1:0",
                 start_timeout: float = 60.0, token: str | None = None,
                 python: str | None = None, dtype: str = "float64",
                 max_restarts: int = 0):
        super().__init__(size)
        self.hosts = parse_host_spec(hosts, size)
        self.bind_host, self.bind_port = parse_address(bind, default_port=0)
        self.start_timeout = start_timeout
        # Falsy (None or "") auto-generates: an empty token must harden
        # into a random one, not silently disable rendezvous auth — the
        # token is the only thing standing between a routable bind and
        # arbitrary peers feeding the run pickled frames.
        self.token = token if token else secrets.token_hex(8)
        self.python = python or sys.executable
        self.dtype = dtype
        # Contiguous rank blocks in host-spec order: worker i gets
        # ranks[offsets[i] : offsets[i] + slots[i]].
        self._blocks: list[list[int]] = []
        offset = 0
        for _, slots in self.hosts:
            self._blocks.append(list(range(offset, offset + slots)))
            offset += slots
        self._connections: list[_WorkerConnection | None] = [None] * len(self.hosts)
        self._rank_conn: dict[int, _WorkerConnection] = {}
        self._results: "queue.Queue[WorkerOutcome]" = queue.Queue()
        self._listener: socket.socket | None = None
        #: Local worker processes by host-spec index: forked at launch,
        #: ``Popen`` once respawned; None for externally attached workers.
        self._procs: list[_ForkedWorker | subprocess.Popen | None] = (
            [None] * len(self.hosts))
        self._shut_down = False
        # Serializes slot assignment between concurrent admit threads, and
        # orders registration against shutdown(): a hello that completes
        # after the rendezvous gave up must be rejected, not registered
        # into a transport whose close loops already ran.
        self._admit_lock = threading.Lock()
        #: Cap on concurrent pre-auth admissions; connections beyond it are
        #: refused outright so a flood cannot exhaust threads or FDs.
        self._admit_slots = threading.BoundedSemaphore(32)
        # -- respawn state (all guarded by _admit_lock) ---------------------
        self.max_restarts = max_restarts
        self._restarts_used = 0
        self._program: bytes | None = None
        #: Worker indexes whose connection died and whose replacement is
        #: still awaited; frames to their ranks are dropped meanwhile.
        self._respawn_pending: set[int] = set()
        #: Worker indexes the rendezvous still waits for (guarded by
        #: _admit_lock); empty from the barrier on.
        self._pending: set[int] = set(range(len(self.hosts)))
        #: Set by the admission that empties ``_pending``.
        self._rendezvous_done = threading.Event()

    # -- public address (for hints and local workers) ----------------------

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "launch() binds the listener first"
        return self._advertised_host, self._listener.getsockname()[1]

    @property
    def _advertised_host(self) -> str:
        if self.bind_host in ("", "0.0.0.0", "::"):
            return socket.gethostname()
        return self.bind_host

    @staticmethod
    def _format_address(host: str, port: int) -> str:
        """Connectable ``host:port`` text; IPv6 literals get brackets."""
        return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"

    def worker_command(self, index: int) -> str:
        """The shell command that attaches host ``index``'s worker.

        Printed for the operator to paste on the remote machine; assumes
        the repo is importable there (``PYTHONPATH=src`` from a checkout,
        exactly like every other documented invocation).
        """
        host, port = self.address
        # --timeout mirrors the coordinator's rendezvous window: the START
        # frame only arrives once every worker joined, so a worker waiting
        # on its default 60s would abort long multi-operator rendezvous.
        return (f"PYTHONPATH=src python -m repro worker "
                f"--connect {self._format_address(host, port)} "
                f"--slots {len(self._blocks[index])} --index {index} "
                f"--token {self.token} --timeout {self.start_timeout} "
                f"--dtype {self.dtype}")

    # -- lifecycle ----------------------------------------------------------

    def launch(self, fn: Callable[..., Any], args: Sequence[Any] = ()) -> None:
        try:
            program = wire.encode_body((fn, tuple(args)))
        except Exception as exc:
            raise MpiError(
                "the socket transport sends the per-rank program to remote "
                "workers, so fn and args must be picklable (module-level "
                f"function, no closures): {exc}") from exc
        self._program = program

        # IPv6 literals ([::1], ::) get an AF_INET6 listener; everything
        # else (hostnames, IPv4, wildcard) stays AF_INET.
        family = (socket.AF_INET6 if ":" in self.bind_host
                  else socket.AF_INET)
        listener = socket.socket(family, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host if self.bind_host else "0.0.0.0",
                       self.bind_port))
        listener.listen(len(self.hosts))
        listener.settimeout(0.2)
        self._listener = listener

        # Before any thread of this transport exists: forking is only safe
        # while nothing else can hold a lock the child would inherit.
        self._fork_local_workers()
        self._rendezvous()
        # Barrier passed: every rank is connected, routing is safe — send
        # each worker its rank block and the program, then start routing.
        for conn in self._connections:
            assert conn is not None
            self._start_worker(conn)

    def _start_worker(self, conn: _WorkerConnection, **late: bool) -> None:
        """Send a registered worker its START frame (rank block, program,
        and for a late arrival its ``respawn``/``join`` flag), then start
        routing for it."""
        assert self._program is not None
        wire.write_frame(conn.sock, wire.pack_frame(wire.START, conn.index, {
            "ranks": conn.ranks,
            "size": self.size,
            "blocks": self._blocks,
            "program": self._program,
            **late,
        }))
        conn.reader = threading.Thread(
            target=self._reader_loop, args=(conn,),
            name=f"mpi-router-recv-{conn.index}", daemon=True)
        conn.writer = threading.Thread(
            target=self._writer_loop, args=(conn,),
            name=f"mpi-router-send-{conn.index}", daemon=True)
        conn.reader.start()
        conn.writer.start()

    @property
    def _local_connect_host(self) -> str:
        """Where local workers connect: loopback of the
        listener's family when it accepts one (default/wildcard binds),
        otherwise the bound address itself — binding a specific routable
        IP must not strand the local entries on an unreachable loopback."""
        if self.bind_host in ("::", "::1"):
            return "::1"
        if self.bind_host in ("", "0.0.0.0", "localhost", "127.0.0.1"):
            return "127.0.0.1"
        return self.bind_host

    @property
    def _local_connect_address(self) -> str:
        return self._format_address(self._local_connect_host, self.address[1])

    def _worker_popen(self, index: int) -> subprocess.Popen:
        """Start ``repro worker`` for a local block — the replacement route:
        the coordinator runs router threads by the time a worker can die,
        so it must not fork."""
        env = dict(os.environ)
        # The worker must resolve the same modules the program pickles
        # reference (repro itself, plus e.g. a test module defining fn) —
        # hand it the parent's import path verbatim.
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p) or env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [self.python, "-m", "repro", "worker",
             "--connect", self._local_connect_address,
             "--slots", str(len(self._blocks[index])), "--index", str(index),
             "--token", self.token, "--quiet",
             "--dtype", self.dtype,
             "--timeout", str(self.start_timeout)],
            env=env,
        )

    def _fork_local_workers(self) -> None:
        """Fork one worker per local host-spec entry; print the command to
        run for every other entry."""
        assert self._listener is not None
        _preload_worker_imports()
        ctx = multiprocessing.get_context("fork")
        for index, (hostname, slots) in enumerate(self.hosts):
            if not _is_local(hostname):
                print(f"[socket] waiting for worker {index} on {hostname}: "
                      f"run `{self.worker_command(index)}`", file=sys.stderr)
                continue
            process = ctx.Process(
                target=_forked_worker,
                args=(self._listener, self._local_connect_address, {
                    "slots": slots, "index": index, "token": self.token,
                    "quiet": True, "dtype": self.dtype,
                    # The START frame only arrives once *all* workers
                    # joined, so a worker must wait out the same rendezvous
                    # window as the coordinator, not its own 60s default.
                    "timeout": self.start_timeout,
                }),
                name=f"mpi-worker-{index}", daemon=True)
            process.start()
            self._procs[index] = _ForkedWorker(process)

    def _rendezvous(self) -> None:
        # Records how long the job sat waiting for workers to connect —
        # usually the dominant "startup" cost of a multi-node run.
        with telemetry.span("socket.rendezvous"):
            self._rendezvous_loop()

    def _rendezvous_loop(self) -> None:
        deadline = time.monotonic() + self.start_timeout
        threading.Thread(target=self._accept_loop, name="mpi-accept",
                         daemon=True).start()
        # Woken by the admission that empties ``_pending``; the timeout only
        # paces the checks for a blown deadline or a worker that died.
        while not self._rendezvous_done.wait(0.2):
            with self._admit_lock:
                missing = sorted(self._pending)
            if time.monotonic() > deadline:
                self.shutdown()
                raise MpiError(
                    f"rendezvous timed out: worker(s) {missing} "
                    f"never connected within {self.start_timeout}s")
            for index in missing:
                proc = self._procs[index]
                if proc is not None and proc.poll() is not None:
                    self.shutdown()
                    raise MpiError(
                        f"local worker {index} exited with code "
                        f"{proc.returncode} before the rendezvous")

    def _accept_loop(self) -> None:
        """Accept connections for as long as the transport lives: the
        rendezvous' workers first, then replacement workers, elastic
        joiners filling vacant slots and ``repro drain`` control clients —
        all through :meth:`_admit`."""
        assert self._listener is not None
        while not self._shut_down:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed by shutdown()
                return
            # Admit off-thread: a connection that stalls mid-hello (slow
            # network, or a hostile peer on a routable bind) must not
            # serialize behind the accept loop and starve the legitimate
            # workers out of the rendezvous window.  The semaphore bounds
            # how many stalled hellos can be in flight at once — a
            # connection flood is refused instead of growing one thread
            # and one held FD per connection.
            if not self._admit_slots.acquire(blocking=False):
                sock.close()
                continue
            threading.Thread(target=self._admit, args=(sock,),
                             name="mpi-admit", daemon=True).start()

    def _read_hello(self, sock: socket.socket) -> dict:
        """Read and authenticate the one frame accepted from a stranger.

        The hello is read before the peer is trusted, so it is held to a
        stricter standard than the rest of the protocol: a few-KiB size
        cap, a JSON body (never pickle — unpickling pre-auth bytes would
        hand arbitrary code execution to anyone who can reach a routable
        bind), and the token compared before any other field is
        interpreted.
        """
        # Short budget: a silent or hostile connection (port scanner on a
        # routable bind) must cost seconds, not the rendezvous window —
        # real peers send their hello instantly.
        sock.settimeout(_HELLO_TIMEOUT_S)
        frame = wire.read_frame(sock, max_body=_HELLO_MAX_BYTES)
        sock.settimeout(None)
        if frame.kind != wire.HELLO:
            raise wire.WireError(f"expected HELLO, got kind {frame.kind}")
        try:
            hello = json.loads(frame.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise wire.WireError(
                f"hello is not valid JSON (a worker running wire "
                f"version 1 sends pickle hellos — upgrade it to this "
                f"release): {exc}") from exc
        if not isinstance(hello, dict):
            raise wire.WireError("hello is not a JSON object")
        if not hmac.compare_digest(str(hello.get("token") or ""), self.token):
            raise wire.WireError("bad rendezvous token")
        if hello.get("version") != _WIRE_VERSION:
            raise wire.WireError(
                f"wire version mismatch: coordinator {_WIRE_VERSION}, "
                f"worker {hello.get('version')}")
        # Every peer of one run shares the dtype policy; the drain control
        # client hosts no rank and moves no genome, so it names none.
        peer_dtype = hello.get("dtype", "float64")
        if hello.get("cmd") != "drain" and peer_dtype != self.dtype:
            raise wire.WireError(
                f"dtype policy mismatch: coordinator runs "
                f"{self.dtype!r}, worker offers {peer_dtype!r} — every "
                f"peer of one run must share the dtype policy (start "
                f"the worker with --dtype {self.dtype})")
        return hello

    def _resolve_slot(self, hello: dict) -> int:
        """The worker slot a hello may take (caller holds ``_admit_lock``).

        Open slots are the rendezvous' pending ones until the barrier;
        afterwards the slots awaiting a replacement, plus — for a
        ``--join`` hello — the vacant ones (connection gone, no
        replacement pending).
        """
        slots = hello.get("slots")
        vacant = {i for i, conn in enumerate(self._connections)
                  if conn is not None and conn.dead
                  and i not in self._respawn_pending}
        if self._pending:
            # Local blocks are never up for grabs: each one already has a
            # forked worker presenting its index, so an index-less hello
            # is by definition an external machine — letting it claim a
            # localhost slot would strand the forked worker and hang the
            # rendezvous.
            state, open_slots = "pending", self._pending
            unclaimed = {i for i in self._pending
                         if not _is_local(self.hosts[i][0])}
        elif hello.get("join"):
            state, open_slots = "vacant", self._respawn_pending | vacant
            unclaimed = vacant
        else:
            state, open_slots = "awaiting a replacement", self._respawn_pending
            unclaimed = set()
        index = hello.get("index")
        if index is None:
            candidates = sorted(i for i in unclaimed
                                if len(self._blocks[i]) == slots)
            if not candidates:
                raise wire.WireError(
                    f"no {state} worker slot takes {slots} rank(s) without "
                    "an --index; check --slots against --hosts (localhost "
                    "entries are launched automatically, a replacement "
                    "names its --index, and --join fills only slots whose "
                    "worker died or drained)")
            # Prefer the host-spec entry naming this machine, so the
            # placement report stays the *actual* rank-to-host mapping
            # even when two same-sized workers race to connect; fall back
            # to spec order when nothing matches.
            reported = str(hello.get("host", "")).casefold()
            short = reported.partition(".")[0]
            matching = [i for i in candidates
                        if self.hosts[i][0].casefold() in (reported, short)]
            index = (matching or candidates)[0]
        index = int(index)
        if index not in open_slots:
            raise wire.WireError(f"worker slot {index} is not {state}")
        if slots != len(self._blocks[index]):
            raise wire.WireError(
                f"worker {index} offered {slots} slot(s), host spec "
                f"expects {len(self._blocks[index])}")
        return index

    def _register(self, sock: socket.socket, index: int,
                  host: str) -> _WorkerConnection:
        """Route ``index``'s rank block to ``sock`` (caller holds
        ``_admit_lock``)."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _WorkerConnection(index, host, sock, self._blocks[index])
        self._connections[index] = conn
        for rank in conn.ranks:
            self._rank_conn[rank] = conn
        return conn

    def _admit(self, sock: socket.socket) -> None:
        """The one admission: authenticate a hello, then give the peer a
        worker slot, or serve its drain request, or reject the socket.

        During the rendezvous a registered worker just waits — START
        follows the barrier (:meth:`launch`).  A later one is a
        **replacement** (its slot awaits one) or an **elastic joiner**
        (``--join``, any vacant slot matching its ``--slots``): it is
        started at once, with the flag that says which.  Its peers hear of
        it from the master, once its slave introduces itself there.
        """
        try:
            hello = self._read_hello(sock)
            if hello.get("cmd") == "drain":
                self._admit_drain_request(sock, hello)
                return
            with self._admit_lock:
                if self._shut_down:
                    # The rendezvous timed out (or the job failed) while
                    # this hello was in flight: shutdown()'s close loops
                    # already ran, so registering now would leak the
                    # socket and strand the worker waiting for START.
                    raise wire.WireError("coordinator is shutting down")
                in_rendezvous = bool(self._pending)
                index = self._resolve_slot(hello)
                respawning = index in self._respawn_pending
                joining = not in_rendezvous and not respawning
                host = (str(hello["host"]) if joining and hello.get("host")
                        else self.hosts[index][0])
                conn = self._register(sock, index, host)
                if in_rendezvous:
                    # Last, so the rendezvous only completes once the
                    # connection is fully registered.
                    self._pending.discard(index)
                    if not self._pending:
                        self._rendezvous_done.set()
                else:
                    self._respawn_pending.discard(index)
            if in_rendezvous:
                if telemetry.enabled():
                    telemetry.count("socket.workers_admitted")
                return
            self._start_worker(conn, respawn=respawning, join=joining)
            if telemetry.enabled():
                telemetry.count("socket.workers_readmitted")
            verb = "re-admitted" if respawning else "joined"
            print(f"[socket] worker {index} {verb}, hosting rank(s) "
                  f"{conn.ranks}", file=sys.stderr)
        except Exception as exc:  # noqa: BLE001 - anything a stranger sends
            # The listener may sit on a routable address: one garbage or
            # hostile connection (non-JSON hello, wrong token, absurd
            # index) must reject that socket, never abort the job.
            if telemetry.enabled():
                telemetry.count("socket.hello_rejected")
            print(f"[socket] rejected connection: {exc}", file=sys.stderr)
            sock.close()
        finally:
            self._admit_slots.release()

    # -- routing ------------------------------------------------------------

    def _reader_loop(self, conn: _WorkerConnection) -> None:
        try:
            while True:
                frame = wire.read_frame(conn.sock)
                if frame.kind == wire.MSG:
                    self._route(frame)
                elif frame.kind == wire.RESULT:
                    outcome: WorkerOutcome = frame.payload()
                    with conn.lock:  # races _mark_dead's unfinished snapshot
                        conn.finished.add(outcome.rank)
                    self._results.put(outcome)
                # Anything else from a worker is a protocol bug; ignore.
        except Exception:  # noqa: BLE001 - a dead demux = a dead connection
            # Includes decode failures (UnpicklingError, missing classes):
            # anything that stops this reader must degrade like a lost
            # connection, not hang the job until the global timeout.
            self._mark_dead(conn)

    def _route(self, frame: wire.Frame) -> None:
        """Forward a MSG frame to every worker its routes name, untouched —
        the received header and body objects pass through verbatim (no
        unpickle, no re-pack, no copy) on the exchange hot path, queued
        once per destination *connection* however many of its ranks are
        listed; each worker picks out the routes it hosts.

        The share of a dead worker is dropped — the exact semantics of the
        process transport's abandoned lanes, which the heartbeat/abort
        path depends on — and so is the share of one whose replacement is
        still awaited: the replacement's slave skips everything before its
        run task, whose resume directive replays every notice so far.
        """
        for conn in dict.fromkeys(self._rank_conn.get(rank)
                                  for rank, _ in frame.routes):
            if conn is not None and not conn.dead:
                conn.outbound.put(frame.parts)

    def _writer_loop(self, conn: _WorkerConnection) -> None:
        while True:
            frame = conn.outbound.get()
            if frame is None:
                return
            try:
                wire.write_frame(conn.sock, frame)
            except wire.WireError:
                self._mark_dead(conn)
                return

    def _mark_dead(self, conn: _WorkerConnection) -> None:
        """Synthesize failed outcomes for a worker's unreported ranks."""
        with conn.lock:
            if conn.dead:
                return
            conn.dead = True
            # Snapshot under the lock: a RESULT the reader is processing
            # concurrently must not also get a synthesized outcome.
            unreported = [rank for rank in conn.ranks
                          if rank not in conn.finished]
            conn.finished.update(unreported)
        # Wake the writer so it exits instead of blocking on an outbound
        # queue nothing will ever feed again (routing drops dead conns).
        conn.outbound.put(None)
        proc = self._procs[conn.index]
        exit_note = ""
        if proc is not None and proc.poll() is not None:
            exit_note = f" (worker process exited with code {proc.returncode})"
        for rank in unreported:
            self._results.put(WorkerOutcome(
                rank,
                error=(f"connection to worker {conn.index} on "
                       f"{conn.host} lost before rank {rank} reported a "
                       f"result{exit_note}"),
            ))
        # A worker whose every rank reported first left as planned (a
        # drain): its slot is vacant for a `repro worker --join`.
        if unreported:
            self._maybe_respawn(conn)

    def _maybe_respawn(self, conn: _WorkerConnection) -> None:
        """Queue a replacement worker for a dead connection, budget allowing."""
        with self._admit_lock:
            if (self._shut_down or self.max_restarts <= 0
                    or self._restarts_used >= self.max_restarts
                    or conn.index in self._respawn_pending):
                return
            self._restarts_used += 1
            self._respawn_pending.add(conn.index)
        if telemetry.enabled():
            telemetry.count("socket.respawns")
        if _is_local(conn.host):
            self._procs[conn.index] = self._worker_popen(conn.index)
            print(f"[socket] respawned worker {conn.index} for rank(s) "
                  f"{conn.ranks}", file=sys.stderr)
        else:
            print(f"[socket] worker {conn.index} on {conn.host} lost; to "
                  f"recover, run `{self.worker_command(conn.index)}`",
                  file=sys.stderr)

    # -- drain requests -------------------------------------------------------

    def _admit_drain_request(self, sock: socket.socket, hello: dict) -> None:
        """Handle a ``repro drain`` control client (post-auth).

        Queues a DRAIN frame for the worker hosting the target rank, then
        acknowledges and closes — the control connection never becomes a
        member of the run.
        """
        rank = int(hello.get("rank", -1))
        try:
            self.drain_rank(rank)
        except ValueError as exc:
            reply = {"ok": False, "error": str(exc)}
        else:
            reply = {"ok": True, "rank": rank}
            if telemetry.enabled():
                telemetry.count("socket.drain_requests")
        try:
            wire.write_frame(sock, wire.pack_frame(
                wire.DRAIN, rank, body=json.dumps(reply).encode("utf-8")))
        finally:
            sock.close()

    def drain_rank(self, rank: int) -> None:
        """Ask the worker hosting ``rank`` to drain it gracefully.

        The in-process twin of the ``repro drain`` control client (tests,
        embedding applications).  The request is advisory: the rank
        checkpoints its cells, hands them to the master, and its worker
        exits 0 once every hosted rank drained.
        """
        conn = self._rank_conn.get(rank)
        if conn is None or conn.dead:
            raise ValueError(f"rank {rank} is not hosted by a live worker")
        conn.outbound.put(wire.pack_frame(
            wire.DRAIN, rank, body=json.dumps({"rank": rank}).encode("utf-8")))

    # -- collection / teardown ----------------------------------------------

    def collect(self, timeout: float | None) -> list[WorkerOutcome]:
        outcomes: dict[int, WorkerOutcome] = {}
        deadline = None if timeout is None else time.monotonic() + timeout
        while len(outcomes) < self.size:
            remaining = 0.25
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    raise TimeoutError("timed out waiting for worker results")
            try:
                outcome = self._results.get(timeout=remaining)
            except queue.Empty:
                continue
            existing = outcomes.get(outcome.rank)
            # A real result beats an outcome synthesized from a half-dead
            # connection, whatever order the two threads raced in.
            if existing is None or (existing.failed and not outcome.failed):
                outcomes[outcome.rank] = outcome
        return [outcomes[rank] for rank in range(self.size)]

    def shutdown(self) -> None:
        # The flag flips under the admit lock so an in-flight hello either
        # registers before the close loops below run, or sees the flag and
        # rejects itself — never a connection registered into a transport
        # that already tore down.
        with self._admit_lock:
            if self._shut_down:
                return
            self._shut_down = True
        for conn in self._connections:
            if conn is None or conn.dead:
                continue
            if conn.writer is not None and conn.writer.is_alive():
                # Through the writer lane so the goodbye cannot interleave
                # with an in-flight routed frame.
                conn.outbound.put(wire.pack_frame(wire.SHUTDOWN, 0))
            else:
                try:
                    wire.write_frame(conn.sock, wire.pack_frame(wire.SHUTDOWN, 0))
                except wire.WireError:
                    pass
            conn.outbound.put(None)
        if self._listener is not None:
            self._listener.close()
        for conn in self._connections:
            if conn is None:
                continue
            for thread in (conn.writer,):
                if thread is not None and thread.is_alive():
                    thread.join(timeout=2.0)
            try:
                conn.sock.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc is None:
                continue
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                # shutdown() runs in run_mpi's finally block: a worker that
                # ignores even SIGKILL (kernel-stuck) must not raise here
                # and mask the error that actually failed the run.
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    print(f"[socket] worker process {proc.pid} did not exit "
                          "after kill; abandoning it", file=sys.stderr)

    def kill_rank(self, rank: int) -> None:
        """SIGKILL the worker process hosting ``rank`` (fault injection).

        Local workers are killed outright; externally attached workers
        have their connection severed instead, which is indistinguishable
        from a network partition.
        """
        conn = self._rank_conn.get(rank)
        if conn is None:
            raise ValueError(f"rank {rank} is not hosted by any worker")
        proc = self._procs[conn.index]
        if proc is not None:
            proc.kill()
        else:
            conn.sock.close()


# -- worker side --------------------------------------------------------------

class _WorkerHub:
    """One worker process's shared connection: demux inboxes + framed sends."""

    def __init__(self, sock: socket.socket, ranks: list[int],
                 blocks: Sequence[Sequence[int]]):
        """``ranks`` are hosted here; ``blocks`` is every worker slot's
        rank block, this worker's included."""
        self.sock = sock
        self.ranks = set(ranks)
        self.inboxes: dict[int, queue.SimpleQueue] = {
            rank: queue.SimpleQueue() for rank in ranks
        }
        #: World rank -> index of the worker slot hosting it (static: a
        #: replacement or joiner takes over a slot's whole block).
        self._worker_of = {rank: index for index, block in enumerate(blocks)
                           for rank in block}
        self.shutdown_seen = threading.Event()
        self._send_lock = threading.Lock()
        self._closed = False
        self._reader = threading.Thread(target=self._reader_loop,
                                        name="mpi-worker-hub", daemon=True)
        self._reader.start()

    def links(self, routes: Sequence[tuple[int, int]]) -> list[Link]:
        """The outbound paths a group with ``routes`` uses from any hosted
        rank: the in-process hand-over if a destination is co-hosted, and
        the shared connection if one is not — a single lane per sending
        rank, since every frame of a worker serializes on the one socket
        anyway."""
        unknown = {rank for rank, _ in routes} - self._worker_of.keys()
        if unknown:
            raise MpiError(f"unknown destination rank {min(unknown)}")
        links = []
        if any(rank in self.ranks for rank, _ in routes):
            links.append(Link(self.deliver))
        workers = {self._worker_of[rank] for rank, _ in routes
                   if rank not in self.ranks}
        if workers:
            links.append(Link(self.send_remote, "wire", len(workers)))
        return links

    def deliver(self, group: Group) -> None:
        """Put one group into the inbox of every destination hosted here —
        the *same* object, whether a co-hosted rank sent it or the reader
        just decoded it off the wire, so all of them share its payload."""
        for rank in dict.fromkeys(rank for rank, _ in group.routes):
            inbox = self.inboxes.get(rank)
            if inbox is not None:
                inbox.put(group)

    def send_remote(self, group: Group) -> None:
        """Frame one group for all its destinations on other workers."""
        routes = [(rank, tag) for rank, tag in group.routes
                  if rank not in self.ranks]
        # Gather-write parts: the payload's genome vectors ride as live
        # memoryviews straight into sendmsg — the first hop makes zero
        # payload copies, like the coordinator's forward path.  The views
        # stay valid for the whole write: the group is referenced here
        # until write_frame returns.
        parts = wire.pack_frame_parts(
            wire.MSG, 0, (group.context, group.source, group.payload),
            routes=routes)
        try:
            with self._send_lock:
                if self._closed:
                    return  # coordinator gone: drop, like a dead pipe
                wire.write_frame(self.sock, parts)
        except wire.WireError:
            self._on_connection_lost()

    def send_result(self, outcome: WorkerOutcome) -> None:
        parts = wire.pack_frame_parts(wire.RESULT, outcome.rank, outcome)
        try:
            with self._send_lock:
                if not self._closed:
                    wire.write_frame(self.sock, parts)
        except wire.WireError:
            self._on_connection_lost()

    def _reader_loop(self) -> None:
        try:
            while True:
                frame = wire.read_frame(self.sock)
                if frame.kind == wire.MSG:
                    # Decoded once for every rank hosted here.
                    self.deliver(Group(*frame.payload(), frame.routes))
                    del frame  # the inboxes own the body now, not a blocked read
                elif frame.kind == wire.DRAIN:
                    # Coordinator requests a graceful drain of one hosted
                    # rank: flag it in the process-wide registry; the
                    # rank's slave loop winds down at the next iteration
                    # boundary.
                    from repro.parallel import elastic

                    if frame.rank in self.ranks:
                        elastic.request_drain(frame.rank)
                elif frame.kind == wire.SHUTDOWN:
                    # The coordinator may shut down while hosted ranks are
                    # still mid-run (global timeout, launch failure): close
                    # their endpoints so blocked receives fail fast instead
                    # of hanging this worker forever.  After a normal
                    # finish the sentinel just sits in a drained queue.
                    for inbox in self.inboxes.values():
                        inbox.put(SHUTDOWN)
                    self.shutdown_seen.set()
                    return
        except Exception:  # noqa: BLE001 - a dead demux = a dead connection
            # Same rationale as the coordinator's reader: decode errors
            # (e.g. a payload class defined only in the launcher's
            # __main__) must fail the hosted ranks fast, not strand them.
            self._on_connection_lost()

    def _on_connection_lost(self) -> None:
        """Coordinator died: close every hosted endpoint so blocked receives
        fail fast instead of hanging the worker forever."""
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        for inbox in self.inboxes.values():
            inbox.put(SHUTDOWN)
        self.shutdown_seen.set()


def drain_request(connect: str, *, rank: int, token: str | None = None,
                  timeout: float = 10.0) -> int:
    """The ``repro drain <rank>`` control client.

    Connects to a live coordinator, authenticates with the rendezvous
    token, and asks it to drain ``rank`` gracefully.  Returns a process
    exit code: 0 when the drain was requested, 2 on any failure.
    """
    host, port = parse_address(connect)
    if port < 1:
        print(f"[drain] bad --connect {connect!r}: expected host:port",
              file=sys.stderr)
        return 2
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        print(f"[drain] cannot reach coordinator {host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    try:
        sock.settimeout(timeout)
        wire.write_frame(sock, wire.pack_frame(
            wire.HELLO, rank, body=json.dumps({
                "version": _WIRE_VERSION,
                "token": token,
                "cmd": "drain",
                "rank": rank,
            }).encode("utf-8")))
        frame = wire.read_frame(sock, max_body=_HELLO_MAX_BYTES)
        if frame.kind != wire.DRAIN:
            print(f"[drain] protocol error: expected DRAIN reply, got kind "
                  f"{frame.kind}", file=sys.stderr)
            return 2
        reply = json.loads(frame.body)
        if not reply.get("ok"):
            print(f"[drain] coordinator refused: "
                  f"{reply.get('error', 'unknown error')}", file=sys.stderr)
            return 2
        print(f"[drain] rank {rank} drain requested", file=sys.stderr)
        return 0
    except (wire.WireError, OSError, ValueError) as exc:
        print(f"[drain] failed: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            sock.close()
        except OSError:
            pass


def worker_main(connect: str, *, slots: int = 1, token: str | None = None,
                index: int | None = None, timeout: float = 60.0,
                quiet: bool = False, dtype: str = "float64",
                join: bool = False) -> int:
    """Entry point of ``repro worker``: host ``slots`` ranks of a socket job.

    Connects to the coordinator at ``connect`` (``host:port``), completes
    the rendezvous handshake, runs its assigned ranks, reports their
    outcomes, and exits 0 when every hosted rank succeeded.  With
    ``join=True`` the worker asks to be admitted *mid-run* into a vacant
    slot (a dead or drained worker's rank block) — elastic membership.
    SIGTERM/SIGINT are handled as "drain, then exit 0": hosted ranks
    checkpoint and hand off their cells instead of dying mid-frame.
    """
    host, port = parse_address(connect)
    if port < 1:  # the default_port=0 sentinel: no port in the address
        print(f"[worker] bad --connect {connect!r}: expected host:port "
              "(the coordinator prints the full address to connect to)",
              file=sys.stderr)
        return 2
    # Bounded backoff with jitter: a respawned worker races the
    # coordinator's late-accept loop, and fleets of workers starting
    # together must not hammer the listener in lock-step.
    connect_retries = [0]

    def _count_retry(_attempt: int, _exc: BaseException) -> None:
        connect_retries[0] += 1

    try:
        sock = retry_connect((host, port), timeout=timeout,
                             on_retry=_count_retry)
    except OSError as exc:
        print(f"[worker] cannot reach coordinator {host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    # JSON, not pickle: the coordinator authenticates this frame before it
    # trusts the connection enough to unpickle anything from it.
    wire.write_frame(sock, wire.pack_frame(wire.HELLO, slots, body=json.dumps({
        "version": _WIRE_VERSION,
        "token": token,
        "slots": slots,
        "index": index,
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "dtype": dtype,
        "join": join,
    }).encode("utf-8")))
    sock.settimeout(timeout)
    try:
        frame = wire.read_frame(sock)
    except wire.WireError as exc:
        print(f"[worker] rejected by coordinator: {exc}", file=sys.stderr)
        return 2
    sock.settimeout(None)
    if frame.kind != wire.START:
        print(f"[worker] protocol error: expected START, got {frame.kind}",
              file=sys.stderr)
        return 2
    start = frame.payload()
    ranks, size = list(start["ranks"]), int(start["size"])
    respawn = bool(start.get("respawn", False))
    joined = bool(start.get("join", False))
    fn, args = wire.decode_body(start["program"])
    if not quiet:
        mode = ("joining as" if joined
                else "re-hosting" if respawn else "hosting")
        print(f"[worker] {mode} rank(s) {ranks} of {size} "
              f"(pid {os.getpid()})", file=sys.stderr)

    # SIGTERM/SIGINT mean "drain, then exit 0", not "die mid-frame": flag
    # every hosted rank in the drain registry; the slave loops checkpoint
    # and hand off their cells at the next iteration boundary.  Only
    # installable from the main thread — embedded callers (tests driving
    # worker_main from a thread) simply keep their own handlers.
    from repro.parallel import elastic

    def _drain_on_signal(_signum, _frame):  # pragma: no cover - signal path
        for rank in ranks:
            elastic.request_drain(rank)

    try:
        import signal

        signal.signal(signal.SIGTERM, _drain_on_signal)
        signal.signal(signal.SIGINT, _drain_on_signal)
    except ValueError:
        pass

    hub = _WorkerHub(sock, ranks, start["blocks"])
    outcomes: dict[int, WorkerOutcome] = {}

    def run_rank(rank: int) -> None:
        # Each rank's counters start with what this connection knows: it
        # is a reconnect when it hosts a replacement or a joiner, and it
        # took this process's connect retries.
        stats = TransportStats(rank, reconnects=int(respawn or joined),
                               send_retries=connect_retries[0])
        outcomes[rank] = execute_rank(rank, size, hub.inboxes[rank],
                                      hub.links, fn, args, stats=stats)

    threads = [threading.Thread(target=run_rank, args=(rank,),
                                name=f"mpi-rank-{rank}", daemon=True)
               for rank in ranks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    failed = 0
    for rank in ranks:
        outcome = outcomes.get(rank) or WorkerOutcome(
            rank, error="rank thread died without an outcome")
        if outcome.failed:
            failed += 1
        hub.send_result(outcome)
    # Linger for the coordinator's shutdown frame so the socket is not torn
    # down under the last result bytes.  A fully drained worker leaves much
    # sooner: its departure is planned, the master has acknowledged the
    # hand-off, and the coordinator treats the clean disconnect as "left"
    # (the slot becomes joinable) — only a short grace period protects the
    # final RESULT bytes in flight.
    drained = all(elastic.was_drained(rank) for rank in ranks)
    linger = min(2.0, timeout) if drained else timeout
    hub.shutdown_seen.wait(timeout=linger)
    try:
        sock.close()
    except OSError:
        pass
    if not quiet:
        verb = "drained" if drained else "done"
        print(f"[worker] {verb}: {len(ranks) - failed}/{len(ranks)} rank(s) "
              "succeeded", file=sys.stderr)
    return 0 if failed == 0 else 1
