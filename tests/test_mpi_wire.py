"""Unit tests for the TCP frame layer: framing, pickle-5 out-of-band
buffers, routing headers, and corruption handling."""

import socket
import threading

import numpy as np
import pytest

from repro.mpi import wire
from repro.mpi.stats import TransportStats, merge_transport_stats, payload_nbytes


@pytest.fixture()
def sock_pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestBodyCodec:
    def test_roundtrip_plain_objects(self):
        for obj in [None, 42, "héllo", {"a": [1, 2]}, (1, "x")]:
            assert wire.decode_body(wire.encode_body(obj)) == obj

    def test_roundtrip_numpy_exact(self):
        array = np.random.default_rng(0).standard_normal((7, 5))
        out = wire.decode_body(wire.encode_body(array))
        np.testing.assert_array_equal(out, array)
        assert out.dtype == array.dtype

    def test_received_arrays_are_writable(self):
        """In-place math on a received array must work exactly as it does
        on the in-memory transports."""
        out = wire.decode_body(wire.encode_body(np.arange(8.0)))
        assert out.flags.writeable
        out += 1  # would raise ValueError on a read-only buffer
        np.testing.assert_array_equal(out, np.arange(8.0) + 1)

    def test_numpy_travels_out_of_band(self):
        """A large contiguous array must ride in its own segment, not be
        escaped into the pickle stream (the genome fast path)."""
        array = np.zeros(10_000)
        body = wire.encode_body(array)
        (nseg,) = np.frombuffer(body[:4], dtype=">u4")
        assert nseg >= 2  # pickle blob + at least one raw buffer
        # Overhead over the raw buffer stays tiny (no escaping/copies).
        assert len(body) < array.nbytes + 1024

    def test_nested_arrays_roundtrip(self):
        payload = {"g": np.arange(10.0), "d": np.arange(5.0), "tag": 3}
        out = wire.decode_body(wire.encode_body(payload))
        np.testing.assert_array_equal(out["g"], payload["g"])
        assert out["tag"] == 3

    def test_truncated_body_rejected(self):
        body = wire.encode_body(np.arange(100.0))
        with pytest.raises(wire.WireError):
            wire.decode_body(body[: len(body) // 2])
        with pytest.raises(wire.WireError):
            wire.decode_body(b"\x00\x00")


class TestBodyParts:
    """The gather-write parts API: the send-side hot path must never
    concatenate or copy the out-of-band buffers."""

    def test_parts_join_equals_encode_body(self):
        payload = {"g": np.arange(100.0), "d": np.arange(50.0), "tag": 7}
        parts = wire.encode_body_parts(payload)
        assert b"".join(parts) == wire.encode_body(payload)
        assert wire.body_parts_nbytes(parts) == len(wire.encode_body(payload))

    def test_out_of_band_buffers_are_not_copied(self):
        """The genome vector's own memory must appear as a live memoryview
        part — no intermediate concatenation of out-of-band buffers."""
        array = np.random.default_rng(3).standard_normal(4096)
        parts = wire.encode_body_parts(("genome", array))
        views = [p for p in parts if isinstance(p, memoryview)]
        assert views, "large array should travel as an out-of-band memoryview"
        assert any(np.shares_memory(np.frombuffer(v, dtype=np.uint8), array)
                   for v in views)
        # And the parts the sender would write decode back bit-exactly.
        tag, decoded = wire.decode_body(b"".join(parts))
        np.testing.assert_array_equal(decoded, array)

    def test_pack_frame_parts_roundtrip_over_socket(self):
        a, b = socket.socketpair()
        try:
            array = np.arange(1000.0)
            parts = wire.pack_frame_parts(wire.MSG, 4, {"x": array})
            # Sender-visible structure: one header+table bytes part, then
            # the pickle blob, then the raw buffer — never one big blob.
            assert isinstance(parts, list) and len(parts) >= 3
            wire.write_frame(a, parts)
            frame = wire.read_frame(b)
            assert (frame.kind, frame.rank) == (wire.MSG, 4)
            np.testing.assert_array_equal(frame.payload()["x"], array)
        finally:
            a.close()
            b.close()

    def test_pack_frame_parts_matches_pack_frame(self):
        payload = ("payload", np.arange(32.0))
        assert b"".join(wire.pack_frame_parts(wire.MSG, 2, payload)) == \
            wire.pack_frame(wire.MSG, 2, payload)

    def test_oversized_parts_fail_at_the_sender(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1024)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.pack_frame_parts(wire.MSG, 0, np.zeros(1024))


class TestFrames:
    def test_roundtrip_over_socket(self, sock_pair):
        a, b = sock_pair
        wire.write_frame(a, wire.pack_frame(wire.MSG, 3, {"x": np.arange(4.0)}))
        frame = wire.read_frame(b)
        assert frame.kind == wire.MSG
        assert frame.rank == 3
        np.testing.assert_array_equal(frame.payload()["x"], np.arange(4.0))

    def test_forward_without_repickling(self, sock_pair):
        """A router forwards the received (header, body) parts verbatim —
        no re-pickle, no re-pack, no concatenation."""
        a, b = sock_pair
        original = wire.pack_frame(wire.MSG, 2, ("payload", np.arange(8.0)))
        wire.write_frame(a, original)
        frame = wire.read_frame(b)
        wire.write_frame(b, frame.parts)  # gather-write of the raw buffers
        relayed = wire.read_frame(a)
        assert relayed.rank == 2
        kind, array = relayed.payload()
        assert kind == "payload"
        np.testing.assert_array_equal(array, np.arange(8.0))

    def test_routes_travel_beside_the_body(self, sock_pair):
        """A MSG is addressed by its routes — struct-packed between header
        and body, duplicates and negative (collective) tags included — so
        a router reads them without touching the pickle, and forwards them
        verbatim with it."""
        a, b = sock_pair
        routes = [(3, 7), (4, 7), (4, 7), (9, -20), (2, 2**30)]
        wire.write_frame(a, wire.pack_frame_parts(
            wire.MSG, 0, ("genome", np.arange(8.0)), routes=routes))
        frame = wire.read_frame(b)
        assert frame.routes == tuple(routes)
        assert frame.nbytes == len(frame.header) + len(frame.body)
        wire.write_frame(b, frame.parts)
        relayed = wire.read_frame(a)
        assert relayed.routes == tuple(routes)
        assert relayed.header == frame.header
        np.testing.assert_array_equal(relayed.payload()[1], np.arange(8.0))
        # Packed and parts forms agree; frames without routes carry none.
        assert b"".join(wire.pack_frame_parts(wire.MSG, 0, "x", routes=routes)) \
            == wire.pack_frame(wire.MSG, 0, "x", routes=routes)
        wire.write_frame(a, wire.pack_frame(wire.RESULT, 5, "done"))
        assert wire.read_frame(b).routes == ()

    def test_unpackable_route_fails_at_the_sender(self):
        with pytest.raises(wire.WireError, match="unroutable"):
            wire.pack_frame_parts(wire.MSG, 0, "x", routes=[(2**40, 0)])

    def test_routes_count_against_a_capped_read(self, sock_pair):
        """A pre-auth peer cannot buy buffer space with a routing table."""
        a, b = sock_pair
        wire.write_frame(a, wire.pack_frame(
            wire.HELLO, 0, body=b"{}", routes=[(0, 0)] * 400))
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.read_frame(b, max_body=4096)

    def test_repack_with_new_rank_still_possible(self, sock_pair):
        a, b = sock_pair
        wire.write_frame(a, wire.pack_frame(wire.MSG, 1, "x"))
        frame = wire.read_frame(b)
        wire.write_frame(b, wire.pack_frame(wire.MSG, 9, body=frame.body))
        assert wire.read_frame(a).rank == 9

    @pytest.mark.parametrize("pickle_padding", range(9))
    def test_received_arrays_are_aligned_windows_onto_the_body(
            self, sock_pair, pickle_padding):
        """The receive path copies nothing: the arrays a frame decodes to
        *are* its receive buffer — writable, and aligned wherever the
        pickle's length happens to put them (NumPy would otherwise copy a
        misaligned GEMM operand on every use)."""
        a, b = sock_pair
        payload = {"pad": "x" * pickle_padding,
                   "g": np.arange(4096.0), "d": np.arange(1025.0)[::-1].copy(),
                   "h": np.arange(64, dtype=np.float32)}
        wire.write_frame(a, wire.pack_frame_parts(wire.MSG, 1, payload))
        frame = wire.read_frame(b)
        assert isinstance(frame.body, memoryview)     # a receive-pool window
        out = frame.payload()
        raw = np.frombuffer(frame.body, dtype=np.uint8)
        for key in ("g", "d", "h"):
            np.testing.assert_array_equal(out[key], payload[key])
            assert out[key].flags.aligned and out[key].flags.writeable
            assert np.shares_memory(out[key], raw)
        wire.write_frame(b, frame.parts)   # the body still forwards verbatim
        assert bytes(wire.read_frame(a).body) == bytes(frame.body)

    @pytest.mark.parametrize("pickle_padding", range(9))
    def test_misplaced_buffers_are_copied_not_handed_out_misaligned(
            self, pickle_padding):
        """A writable body that was not placed by ``read_frame`` (or whose
        placement was lost) still decodes to aligned arrays."""
        payload = ("x" * pickle_padding, np.arange(513.0))
        body = bytearray(wire.encode_body(payload))
        text, array = wire.decode_body(body)
        assert text == payload[0] and array.flags.aligned and array.flags.writeable
        np.testing.assert_array_equal(array, payload[1])

    def test_json_hello_body_reads_like_any_other(self, sock_pair):
        """HELLO bodies are JSON, not segments: a size-capped read takes
        them as they come, whatever their first bytes spell."""
        import json

        a, b = sock_pair
        hello = json.dumps({"token": "t" * 40, "slots": 3}).encode()
        wire.write_frame(a, wire.pack_frame(wire.HELLO, 0, body=hello))
        assert json.loads(wire.read_frame(b, max_body=4096).body) == \
            {"token": "t" * 40, "slots": 3}

    def test_connection_lost_mid_body_surfaces(self, sock_pair):
        a, b = sock_pair
        frame = wire.pack_frame(wire.MSG, 0, np.arange(1000.0))
        a.sendall(frame[: len(frame) // 2])
        a.close()
        with pytest.raises(wire.WireError, match="mid-frame"):
            wire.read_frame(b)

    def test_bad_magic_rejected(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"XX" + bytes(20))
        with pytest.raises(wire.WireError, match="magic"):
            wire.read_frame(b)

    def test_oversized_length_rejected(self, sock_pair):
        import struct

        a, b = sock_pair
        a.sendall(struct.pack("!2sBiHI", wire.MAGIC, wire.MSG, 0, 0, 2**31 - 1)
                  + struct.pack("!I", 0))
        with pytest.raises(wire.WireError):
            wire.read_frame(b)

    def test_oversized_body_fails_at_the_sender(self, monkeypatch):
        """An over-limit frame must raise at pack time with the real cause,
        not surface at the receiver as a bogus lost-connection failure."""
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1024)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.pack_frame(wire.MSG, 0, body=bytes(2048))
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.pack_frame(wire.MSG, 0, np.zeros(1024))

    def test_max_body_cap_tightens_limit(self, sock_pair):
        """Pre-auth reads pass a small max_body: a body within the global
        frame limit but above the caller's cap must be refused before it
        is buffered."""
        a, b = sock_pair
        wire.write_frame(a, wire.pack_frame(wire.HELLO, 0, body=bytes(8192)))
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.read_frame(b, max_body=4096)

    def test_closed_connection_surfaces(self, sock_pair):
        a, b = sock_pair
        a.close()
        with pytest.raises(wire.WireError, match="closed"):
            wire.read_frame(b)

    def test_interleaved_frames_stay_framed(self, sock_pair):
        a, b = sock_pair
        frames = [wire.pack_frame(wire.MSG, i, np.full(100, float(i)))
                  for i in range(10)]

        def sender():
            for frame in frames:
                wire.write_frame(a, frame)

        thread = threading.Thread(target=sender)
        thread.start()
        for i in range(10):
            frame = wire.read_frame(b)
            assert frame.rank == i
            np.testing.assert_array_equal(frame.payload(), np.full(100, float(i)))
        thread.join()


class TestTransportStats:
    def test_payload_nbytes_counts_buffers(self):
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40
        assert payload_nbytes({"k": np.zeros(1)}) == 8
        assert payload_nbytes(object()) == 0

    def test_payload_nbytes_memoryview_counts_bytes_not_elements(self):
        """len() on a float64 memoryview is the element count — the byte
        accounting must use .nbytes or it under-counts 8x."""
        view = memoryview(np.zeros(10))
        assert len(view) == 10
        assert payload_nbytes(view) == 80
        assert payload_nbytes(memoryview(b"abcd")) == 4

    def test_payload_nbytes_walks_dataclasses(self):
        from repro.parallel.messages import ExchangePayload
        from repro.coevolution.genome import Genome

        genome = Genome(np.zeros(100), 1e-3, "bce")
        payload = ExchangePayload(0, 1, genome, genome)
        assert payload_nbytes(payload) >= 1600  # two 800-byte vectors

    @staticmethod
    def _resume_task():
        """A respawn's run task: the genomes of a cell its replayed notice
        moved sit deeper than any fixed walk limit (RunTask ->
        ResumeDirective -> notices -> FaultNotice -> cells -> FrozenCell ->
        CellSnapshot -> Genome -> vector), and every one of them counts."""
        from repro.coevolution.checkpoint import CellSnapshot
        from repro.coevolution.genome import Genome
        from repro.parallel.messages import RunTask
        from repro.parallel.recovery import FaultNotice, FrozenCell, ResumeDirective

        def record(cell):
            genome = Genome(np.zeros(100), 1e-3, "bce")
            return CellSnapshot(cell, 2, genome, genome.copy(), np.full(5, 0.2))

        notice = FaultNotice("recover", (FrozenCell(record(3), 1, 4, epoch=1),))
        task = RunTask("{}", (0,), {}, "node00",
                       resume=ResumeDirective((record(0),), 4, notices=(notice,)))
        # Two records of two 800-byte vectors + "bce" and 40 bytes of
        # weights, plus the task's and the notice's strings.
        return task, 2 * (2 * (800 + 3) + 40) + len("{}node00neighbors" + "recover")

    @staticmethod
    def _cyclic_list():
        looped = [np.zeros(4)]
        looped.append(looped)  # a container on its own path counts zero there
        return looped, 32

    @pytest.mark.parametrize("build", ["_resume_task", "_cyclic_list"])
    def test_payload_nbytes_walks_to_the_leaves(self, build):
        payload, expected = getattr(self, build)()
        assert payload_nbytes(payload) == expected

    def test_counters_and_merge(self):
        stats = TransportStats(rank=1)
        stats.count_sent(np.zeros(4))
        stats.count_received(np.zeros(2))
        assert (stats.messages_sent, stats.bytes_sent) == (1, 32)
        assert (stats.messages_received, stats.bytes_received) == (1, 16)
        total = merge_transport_stats([stats, TransportStats(2, 1, 1, 8, 8)])
        assert total.messages_sent == 2
        assert total.bytes_sent == 40
        assert "sent 1 msg" in stats.summary()
