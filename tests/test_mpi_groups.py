"""Group delivery: one payload plus a destination list is the unit every
transport moves, written once per destination host.

* communicator level — a group reaches each destination as if sent by
  ``send``; in-process destinations share the object; the sender counts one
  message per host written;
* socket worker hub — a group frame is decoded once for all the ranks it
  names there, co-hosted destinations take a group by reference, every
  remote destination shares the one frame;
* coordinator — a group frame is forwarded once per destination connection
  as the very objects that were received; a dead connection's share is
  dropped, whether or not a replacement is awaited, and the group's other
  routes still go through;
* process mailbox — a Unix socket pair carrying the same frames: writers
  from several processes never interleave a frame, per-pair order holds,
  and a received array is a window onto the one receive buffer.
"""

import json
import queue
import socket
import threading

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Status, run_mpi, wire
from repro.mpi.endpoint import Endpoint, Group
from repro.mpi.socket_transport import (
    _WIRE_VERSION,
    SocketTransport,
    _WorkerConnection,
    _WorkerHub,
)

CTX = (0,)


# -- communicator level -------------------------------------------------------


def _fan_out(comm):
    """Rank 0 sends one array to ranks 1 and 2 (rank 2 twice, under two
    tags, and once more under a repeated tag); they report what arrived."""
    if comm.Get_rank() == 0:
        payload = np.arange(6.0)
        hosts = comm.send_group(payload, [(1, 7), (2, 8), (2, 9), (2, 9)])
        comm.send("after", dest=2, tag=9)
        return hosts, id(payload)
    if comm.Get_rank() == 1:
        return [(7, id(comm.recv(source=0, tag=7, timeout=30)))]
    got = []
    for _ in range(4):
        status = Status()
        message = comm.recv(source=0, tag=ANY_TAG, status=status, timeout=30)
        got.append((status.tag, message if isinstance(message, str) else id(message)))
    return got


class TestCommGroups:
    def test_threaded_group_shares_one_object_and_counts_hosts(self):
        results = run_mpi(3, _fan_out, backend="threaded", timeout=60)
        hosts, sent = results[0]
        assert hosts == 2                       # ranks 1 and 2, not 4 routes
        assert results[1] == [(7, sent)]
        # Listed order, duplicates included, then the later plain send.
        assert results[2] == [(8, sent), (9, sent), (9, sent), (9, "after")]
        stats = results.transport_stats
        assert stats[0].messages_sent == 3      # 2 hosts + the plain send
        assert stats[0].bytes_sent == 2 * 48 + len("after")
        assert stats[1].messages_received == 1  # receives count per rank
        assert stats[2].messages_received == 2
        assert stats[2].bytes_received == 48 + len("after")

    def test_process_group_is_pickled_once_per_destination_rank(self):
        results = run_mpi(3, _fan_out, backend="process", timeout=60)
        assert results[0][0] == 2
        tags, objects = zip(*results[2])
        assert tags == (8, 9, 9, 9)
        # One frame per destination mailbox: the three envelopes cut from
        # it share the one decoded array.
        assert len(set(objects[:3])) == 1
        assert results.transport_stats[0].messages_sent == 3

    def test_empty_group_sends_nothing(self):
        def program(comm):
            return comm.send_group("nobody", [])

        results = run_mpi(2, program, backend="threaded", timeout=60)
        assert list(results) == [0, 0]
        assert all(s.messages_sent == 0 for s in results.transport_stats)

    def test_group_destinations_and_tags_are_checked(self):
        def program(comm):
            for dests in ([(5, 0)], [(1, -3)]):
                try:
                    comm.send_group("x", dests)
                except ValueError:
                    continue
                return False
            return True

        assert all(run_mpi(2, program, backend="threaded", timeout=60))


# -- process mailbox ------------------------------------------------------------


BIG = 400_000          # float64 elements: a 3.2 MB frame
ROUNDS = 4


def _concurrent_writers(comm):
    """Ranks 1 and 2 write multi-MB frames to rank 0 at the same time,
    each big send followed by a small one; rank 0 checks every frame whole
    and every sender's order."""
    rank = comm.Get_rank()
    if rank != 0:
        for seq in range(ROUNDS):
            comm.send(np.full(BIG, rank * 100.0 + seq), dest=0, tag=1)
            comm.send((rank, seq), dest=0, tag=2)
        return None
    arrived = {1: [], 2: []}
    for _ in range(2 * ROUNDS * 2):
        status = Status()
        message = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status,
                            timeout=60)
        if status.tag == 1:
            assert message.shape == (BIG,)
            value = message[0]
            assert np.all(message == value)           # never torn
            arrived[status.source].append(("big", int(value) % 100))
        else:
            assert message[0] == status.source
            arrived[status.source].append(("small", message[1]))
    return arrived


def _window_report(comm):
    """What rank 1 receives: a genome-like pair of arrays."""
    if comm.Get_rank() == 0:
        comm.send(("pad", np.arange(4096.0), np.arange(1025.0)), dest=1, tag=3)
        return None
    _, g, d = comm.recv(source=0, tag=3, timeout=60)
    report = []
    for array, expected in ((g, np.arange(4096.0)), (d, np.arange(1025.0))):
        base = array.base
        while isinstance(base, np.ndarray):
            base = base.base
        report.append((np.array_equal(array, expected), array.flags.owndata,
                       array.ctypes.data % 8, array.flags.writeable,
                       type(base).__name__,
                       type(base.obj).__name__ if isinstance(base, memoryview) else None))
    return report


def _torus_pair(comm):
    """A 2x2 torus cell neighbours the same cell on two sides: one group
    with two tags for one destination rank."""
    if comm.Get_rank() == 0:
        return comm.send_group(np.arange(512.0), [(1, 3), (1, 4)])
    east = comm.recv(source=0, tag=3, timeout=60)
    west = comm.recv(source=0, tag=4, timeout=60)
    return east is west, float(east.sum())


class TestProcessMailbox:
    def test_concurrent_multi_mb_writers_keep_frames_whole_and_in_order(self):
        results = run_mpi(3, _concurrent_writers, backend="process", timeout=120)
        expected = [entry for seq in range(ROUNDS)
                    for entry in (("big", seq), ("small", seq))]
        assert results[0] == {1: expected, 2: expected}

    def test_received_array_is_an_aligned_window_onto_the_receive_buffer(self):
        results = run_mpi(2, _window_report, backend="process", timeout=60)
        for equal, owndata, misalignment, writeable, base, buffer in results[1]:
            assert equal and writeable
            assert not owndata and misalignment == 0
            assert (base, buffer) == ("memoryview", "bytearray")

    def test_two_tags_for_one_rank_are_one_frame_and_one_payload(self):
        results = run_mpi(2, _torus_pair, backend="process", timeout=60)
        assert results[0] == 1                               # one host written
        assert results[1] == (True, float(np.arange(512.0).sum()))
        sender, receiver = results.transport_stats
        assert sender.messages_sent == 1
        assert receiver.messages_received == 1
        assert receiver.bytes_received == 512 * 8


# -- socket worker hub ----------------------------------------------------------


BLOCKS = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]


@pytest.fixture()
def hub_and_wire():
    """A hub hosting ranks 0-4 of a 5,5 split; the test plays coordinator
    on the other end of its connection."""
    ours, theirs = socket.socketpair()
    hub = _WorkerHub(ours, BLOCKS[0], BLOCKS)
    endpoints = {rank: Endpoint(rank, hub.inboxes[rank], hub.links)
                 for rank in BLOCKS[0]}
    theirs.settimeout(30)
    yield hub, endpoints, theirs
    for endpoint in endpoints.values():
        endpoint.close()
    theirs.close()
    ours.close()


def _genomes():
    return {"g": np.arange(4096.0), "d": np.arange(1024.0)[::-1].copy()}


class TestWorkerHub:
    def test_group_frame_is_decoded_once_for_all_cohosted_ranks(self, hub_and_wire):
        hub, endpoints, coordinator = hub_and_wire
        sent = _genomes()
        routes = [(1, 11), (2, 12), (3, 13), (7, 17)]   # rank 7 lives elsewhere
        wire.write_frame(coordinator, wire.pack_frame_parts(
            wire.MSG, 0, (CTX, 6, sent), routes=routes))
        received = {rank: endpoints[rank].recv(CTX, 6, ANY_TAG, timeout=30)
                    for rank in (1, 2, 3)}
        assert {rank: env.tag for rank, env in received.items()} == \
            {1: 11, 2: 12, 3: 13}
        first = received[1].payload
        for env in received.values():
            assert env.payload is first
            for key in ("g", "d"):
                np.testing.assert_array_equal(env.payload[key], sent[key])
                assert np.shares_memory(env.payload[key], first[key])
        # Nothing for the ranks the frame did not name.
        assert endpoints[0].iprobe(CTX, ANY_SOURCE, ANY_TAG) is None
        assert endpoints[4].iprobe(CTX, ANY_SOURCE, ANY_TAG) is None

    def test_cohosted_by_reference_remote_in_one_frame(self, hub_and_wire):
        hub, endpoints, coordinator = hub_and_wire
        payload = _genomes()
        group = Group(CTX, 1, payload, ((2, 21), (3, 22), (6, 23), (8, 24), (8, 24)))
        assert endpoints[1].send_group(group) == 2       # own worker + worker B
        for rank, tag in ((2, 21), (3, 22)):
            assert endpoints[rank].recv(CTX, 1, tag, timeout=30).payload is payload
        frame = wire.read_frame(coordinator)
        assert frame.kind == wire.MSG
        assert frame.routes == ((6, 23), (8, 24), (8, 24))
        context, source, decoded = frame.payload()
        assert (context, source) == (CTX, 1)
        np.testing.assert_array_equal(decoded["g"], payload["g"])
        stats = endpoints[1].stats
        assert stats.messages_sent == 2
        assert stats.bytes_sent == 2 * (payload["g"].nbytes + payload["d"].nbytes)

    def test_sends_from_one_rank_share_one_wire_lane(self, hub_and_wire):
        hub, endpoints, coordinator = hub_and_wire
        for index in range(20):
            dests = ((5 + index % 5, index),) if index % 2 else \
                ((5, index), (7, index), (9, index))
            endpoints[3].send_group(Group(CTX, 3, index, dests))
        order = [wire.read_frame(coordinator).payload()[2] for _ in range(20)]
        assert order == list(range(20))
        lanes = [t.name for t in threading.enumerate()
                 if t.name.startswith("mpi-send-3->")]
        assert lanes == ["mpi-send-3->wire"]

    def test_unknown_destination_rejected(self, hub_and_wire):
        from repro.mpi.errors import MpiError

        _hub, endpoints, _coordinator = hub_and_wire
        with pytest.raises(MpiError, match="unknown destination rank 10"):
            endpoints[1].send_group(Group(CTX, 1, None, ((2, 0), (10, 0))))


# -- coordinator ------------------------------------------------------------------


def _received_group_frame(routes, payload):
    """A MSG frame exactly as the coordinator's reader gets it: read off a
    socket, so the body is the receive-pool window ``read_frame`` filled."""
    a, b = socket.socketpair()
    try:
        wire.write_frame(a, wire.pack_frame_parts(
            wire.MSG, 0, (CTX, 1, payload), routes=routes))
        return wire.read_frame(b)
    finally:
        a.close()
        b.close()


@pytest.fixture()
def coordinator():
    """A coordinator past its rendezvous with three registered workers
    (ranks 0-3 | 4-6 | 7-9) on socketpairs, no I/O thread running: what
    ``_route`` queues is inspected directly."""
    transport = SocketTransport(10, hosts="127.0.0.1:4,127.0.0.1:3,127.0.0.1:3")
    transport._pending.clear()
    far_ends = []
    for index, block in enumerate(transport._blocks):
        near, far = socket.socketpair()
        far.settimeout(30)
        far_ends.append(far)
        conn = _WorkerConnection(index, "127.0.0.1", near, block)
        transport._connections[index] = conn
        for rank in block:
            transport._rank_conn[rank] = conn
    yield transport, far_ends
    for conn, far in zip(transport._connections, far_ends):
        conn.sock.close()
        far.close()


def _queued(conn):
    items = []
    while True:
        try:
            items.append(conn.outbound.get_nowait())
        except queue.Empty:
            return items


class TestCoordinatorRouting:
    def test_forwarded_once_per_connection_as_the_received_objects(self, coordinator):
        transport, far_ends = coordinator
        a, b, c = transport._connections
        frame = _received_group_frame(
            [(4, 1), (5, 2), (5, 2), (8, 3), (6, 4)], _genomes())
        assert isinstance(frame.body, memoryview)
        transport._route(frame)
        assert _queued(a) == []                      # no destination there
        for conn in (b, c):
            (parts,) = _queued(conn)                 # once, whatever the routes
            header, body = parts
            assert header is frame.header            # no re-pack
            assert body is frame.body                # no re-pickle, no copy
        # What a worker reads back is the whole group; it picks its ranks.
        b.outbound.put(frame.parts)
        b.outbound.put(None)
        transport._writer_loop(b)
        relayed = wire.read_frame(far_ends[1])
        assert relayed.routes == frame.routes
        np.testing.assert_array_equal(relayed.payload()[2]["g"], _genomes()["g"])

    def test_dead_and_respawn_pending_shares_are_dropped(self, coordinator):
        transport, _far_ends = coordinator
        a, b, c = transport._connections
        b.dead = True                                # dead, no replacement
        c.dead = True                                # dead, replacement awaited
        transport._respawn_pending.add(c.index)
        frame = _received_group_frame([(1, 1), (5, 2), (8, 3), (9, 3)], "genome")
        transport._route(frame)
        (parts,) = _queued(a)
        assert parts[1] is frame.body
        assert _queued(b) == [] and _queued(c) == []

    def test_a_route_to_a_dead_worker_keeps_the_others(self, coordinator):
        """Worker A's hub knows nothing of deaths: it frames every remote
        route, and the coordinator drops only the dead worker's share."""
        transport, _far_ends = coordinator
        a, b, c = transport._connections
        b.dead = True
        ours, theirs = socket.socketpair()
        theirs.settimeout(30)
        hub = _WorkerHub(ours, a.ranks, transport._blocks)
        endpoints = {rank: Endpoint(rank, hub.inboxes[rank], hub.links)
                     for rank in (1, 2)}
        try:
            group = Group(CTX, 1, "genome", ((2, 31), (5, 32), (8, 33)))
            assert endpoints[1].send_group(group) == 3   # own worker, B and C
            assert endpoints[2].recv(CTX, 1, 31, timeout=30).payload == "genome"
            frame = wire.read_frame(theirs)               # as A's reader gets it
            assert frame.routes == ((5, 32), (8, 33))
            transport._route(frame)
            assert _queued(a) == [] and _queued(b) == []
            (parts,) = _queued(c)
            assert parts[1] is frame.body
            assert frame.payload() == (CTX, 1, "genome")
        finally:
            for endpoint in endpoints.values():
                endpoint.close()
            theirs.close()
            ours.close()

    def test_readmitted_worker_gets_only_later_frames(self, coordinator):
        """A replacement starts with the respawn flag and nothing of the
        frames routed while its slot was dead: its slave skips what
        precedes its run task, whose resume directive replays every
        notice."""
        transport, _far_ends = coordinator
        c = transport._connections[2]
        c.dead = True
        transport._respawn_pending.add(c.index)
        transport._program = wire.encode_body((_fan_out, ()))
        transport._route(_received_group_frame([(2, 1), (8, 5)], "in the gap"))

        listener = socket.create_server(("127.0.0.1", 0))
        worker = socket.create_connection(listener.getsockname())
        admitted, _ = listener.accept()
        listener.close()
        worker.settimeout(30)
        try:
            wire.write_frame(worker, wire.pack_frame(
                wire.HELLO, 3, body=json.dumps({
                    "version": _WIRE_VERSION, "token": transport.token,
                    "slots": 3, "index": 2, "dtype": "float64",
                }).encode()))
            transport._admit_slots.acquire()
            transport._admit(admitted)
            assert c.index not in transport._respawn_pending
            start = wire.read_frame(worker)
            assert start.kind == wire.START
            assert start.payload()["blocks"] == transport._blocks
            assert start.payload()["respawn"] and not start.payload()["join"]
            later = _received_group_frame([(9, 6)], "after the gap")
            transport._route(later)
            relayed = wire.read_frame(worker)
            assert relayed.kind == wire.MSG
            assert relayed.payload() == (CTX, 1, "after the gap")
        finally:
            transport.shutdown()
            worker.close()
            admitted.close()
