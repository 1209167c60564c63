"""Length-prefix framing for the TCP transport.

One frame is a fixed header followed by an opaque body::

    header := magic(2) kind(1) rank(4, signed) body_len(4)
    body   := nseg(4) seg_len(8)*nseg seg*nseg

``kind`` is the protocol verb (HELLO/START/MSG/RESULT/SHUTDOWN/MEMBERSHIP/
DRAIN), ``rank`` its addressing field (destination rank for MSG, reporting
rank for RESULT, target rank for DRAIN, unused otherwise).  Segment 0 is
the pickle (protocol 5); segments 1..n are
the out-of-band buffers pickle 5 extracted — NumPy genome vectors therefore
travel as raw buffer copies instead of being embedded (and escaped) inside
the pickle stream, which is the fast path the exchange loop lives on.

The one exception is HELLO: its body is a small UTF-8 JSON object, *not* a
pickle.  HELLO arrives before the sender has proven it knows the rendezvous
token, and unpickling attacker-controlled bytes is arbitrary code
execution — the coordinator must be able to authenticate the frame without
ever touching :mod:`pickle` (see ``SocketTransport._read_hello``).

The body is opaque to routers: the coordinator forwards MSG frames by
passing header and body through untouched (the destination rank is already
in the header), so relayed genomes are never re-pickled or re-copied.

The *first* hop is zero-copy too: :func:`pack_frame_parts` returns the
frame as gather-write parts — header+segment-table, pickle blob, and the
raw out-of-band buffers as live memoryviews — and :func:`write_frame`
hands them to ``socket.sendmsg`` without ever concatenating, so a genome
vector goes from the sender's arena snapshot to the kernel in one hop.

So is the *last*: :func:`read_frame` receives a body with ``recv_into``
into one ``bytearray`` and :func:`decode_body` hands pickle writable
slices of it, so a received genome vector is that buffer — the cell reads
its GEMM operands straight out of what the socket filled.  The arrays of
one frame therefore share (and keep alive) one allocation.
"""

from __future__ import annotations

import ctypes
import pickle
import socket
import struct
from typing import Any

from repro.mpi.errors import MpiError

__all__ = [
    "Frame",
    "WireError",
    "pack_frame",
    "pack_frame_parts",
    "encode_body",
    "encode_body_parts",
    "body_parts_nbytes",
    "decode_body",
    "read_frame",
    "write_frame",
    "HELLO",
    "START",
    "MSG",
    "RESULT",
    "SHUTDOWN",
    "MEMBERSHIP",
    "DRAIN",
]

#: Protocol magic; bump when the frame layout changes.
MAGIC = b"\xc5\x01"

# Frame kinds.
HELLO = 1      #: worker -> coordinator: join the rendezvous
START = 2      #: coordinator -> worker: rank assignment + the program
MSG = 3        #: an Envelope in flight; ``rank`` = destination world rank
RESULT = 4     #: worker -> coordinator: one rank's outcome; ``rank`` = rank
SHUTDOWN = 5   #: coordinator -> worker: drain and exit
# 6 is retired (a liveness broadcast MEMBERSHIP superseded): never reuse it.
MEMBERSHIP = 7  #: coordinator -> workers: epoch-stamped membership change;
                #: body = {"epoch": int, "ranks": [...], "state": "lost"|
                #: "back"|"joined"|"left"}
DRAIN = 8      #: control verb: coordinator -> worker requests the named
               #: rank drain gracefully (checkpoint + hand off its cells);
               #: also the reply kind for the ``repro drain`` control
               #: client.  ``rank`` = target world rank; body carries the
               #: acknowledgement payload on replies.

_HEADER = struct.Struct("!2sBiI")   # magic, kind, rank, body_len
_SEG_LEN = struct.Struct("!Q")

#: Refuse frames above this size — a corrupted length prefix must not
#: trigger a multi-gigabyte allocation (or an endless blocking read).
MAX_FRAME_BYTES = 1 << 30


class WireError(MpiError):
    """Malformed frame, protocol mismatch, or a connection that died."""


class Frame:
    """One decoded frame header plus its still-serialized body.

    ``header`` keeps the raw received header bytes so routers can forward
    the frame verbatim (``write_frame(sock, frame.parts)``) without
    re-packing or concatenating anything.
    """

    __slots__ = ("kind", "rank", "body", "header")

    def __init__(self, kind: int, rank: int, body: "bytes | bytearray",
                 header: bytes | None = None):
        self.kind = kind
        self.rank = rank
        self.body = body
        self.header = (header if header is not None
                       else _HEADER.pack(MAGIC, kind, rank, len(body)))

    def payload(self) -> Any:
        return decode_body(self.body)

    @property
    def parts(self) -> "tuple[bytes, bytes | bytearray]":
        """Header and body, ready for a gather-write forward."""
        return self.header, self.body

    @property
    def nbytes(self) -> int:
        return _HEADER.size + len(self.body)


def encode_body_parts(obj: Any) -> list["bytes | memoryview"]:
    """Serialize ``obj`` into gather-write body parts — **zero buffer copies**.

    Returns ``[segment_table, pickle_blob, raw_buffer, ...]`` where the raw
    out-of-band buffers are the live :class:`memoryview`\\ s pickle 5
    extracted (e.g. a genome vector's own memory).  A sender passes the
    parts straight to :func:`write_frame`, which gather-writes them with
    ``socket.sendmsg`` — the first hop never concatenates or copies the
    payload, mirroring the coordinator's zero-copy forward path.

    The parts reference the source arrays: serialize-then-send must finish
    before the caller mutates them (every transport sender does).
    """
    buffers: list[pickle.PickleBuffer] = []
    blob = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    segments: list[Any] = [blob] + [buf.raw() for buf in buffers]
    table = bytearray(struct.pack("!I", len(segments)))
    for segment in segments:
        table += _SEG_LEN.pack(segment.nbytes if isinstance(segment, memoryview)
                               else len(segment))
    return [bytes(table), *segments]


def body_parts_nbytes(parts: list) -> int:
    """Total body length of :func:`encode_body_parts` output."""
    return sum(part.nbytes if isinstance(part, memoryview) else len(part)
               for part in parts)


def encode_body(obj: Any) -> bytes:
    """Serialize ``obj`` into one contiguous frame body.

    One ``join`` over :func:`encode_body_parts` — use the parts form on the
    send hot path; this form exists for callers that need a single buffer
    (e.g. the rendezvous program blob kept for late joiners).
    """
    return b"".join(encode_body_parts(obj))


#: Out-of-band buffers are handed to pickle in place only at addresses that
#: are a multiple of this (what float64, and everything narrower, needs):
#: NumPy copies a misaligned operand on every GEMM it feeds.
_ALIGN = 8


def _address(buffer: "bytearray | memoryview") -> int:
    """Address of the first byte of a writable buffer."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buffer))


def _first_buffer_offset(prefix: "bytes | bytearray") -> "int | None":
    """Where a body's first out-of-band buffer starts, read off the body's
    first ``4 + _SEG_LEN.size`` bytes; ``None`` if it carries no buffer."""
    if len(prefix) < 4 + _SEG_LEN.size:
        return None
    (nseg,) = struct.unpack_from("!I", prefix, 0)
    if nseg < 2:
        return None
    return 4 + nseg * _SEG_LEN.size + _SEG_LEN.unpack_from(prefix, 4)[0]


def _segment_spans(view: memoryview) -> list[tuple[int, int]]:
    """``(start, end)`` of every segment of a body, validated against it."""
    if len(view) < 4:
        raise WireError("truncated frame body")
    (nseg,) = struct.unpack_from("!I", view, 0)
    if nseg == 0:
        raise WireError("frame body with no segments")
    offset = 4 + nseg * _SEG_LEN.size
    if offset > len(view):
        raise WireError("truncated segment table")
    spans = []
    for index in range(nseg):
        (length,) = _SEG_LEN.unpack_from(view, 4 + index * _SEG_LEN.size)
        if offset + length > len(view):
            raise WireError("truncated segment data")
        spans.append((offset, offset + length))
        offset += length
    return spans


def decode_body(body: "bytes | bytearray | memoryview") -> Any:
    """Inverse of :func:`encode_body`.

    Out-of-band buffers must come back *writable*: NumPy arrays
    reconstructed over a read-only view would refuse in-place math,
    silently diverging from the thread/process transports' semantics.  A
    writable ``body`` (the ``bytearray`` :func:`read_frame` filled) is
    therefore shared, not copied — the arrays are windows onto it, which
    the caller gives up by decoding; an immutable one (``bytes``) is copied
    buffer by buffer, as is any buffer that sits misaligned in ``body``.
    """
    view = memoryview(body)
    spans = _segment_spans(view)
    base = None if view.readonly else _address(view)
    (start, end), oob = spans[0], spans[1:]
    buffers = [view[lo:hi] if base is not None and (base + lo) % _ALIGN == 0
               else bytearray(view[lo:hi])
               for lo, hi in oob]
    return pickle.loads(view[start:end], buffers=buffers)  # repro: allow[R1] -- post-auth: frames only decoded after the size-capped JSON hello verified the shared token


def _check_body_size(body_len: int) -> None:
    if body_len > MAX_FRAME_BYTES:
        # Fail at the sender with the real cause: otherwise the oversized
        # frame is only rejected by the receiver's read_frame (surfacing
        # as a misleading lost-connection failure), and a body over the
        # u32 header field would die as a struct.error inside a relay
        # thread, silently losing the message.
        raise WireError(
            f"frame body of {body_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit; send smaller payloads "
            "(e.g. a registry dataset rendered per node instead of an "
            "in-memory dataset on the wire)")


def pack_frame(kind: int, rank: int, obj: Any = None, *,
               body: bytes | None = None) -> bytes:
    """A complete wire frame; pass ``body`` to forward without re-pickling."""
    encoded = encode_body(obj) if body is None else body
    _check_body_size(len(encoded))
    return _HEADER.pack(MAGIC, kind, rank, len(encoded)) + encoded


def pack_frame_parts(kind: int, rank: int, obj: Any) -> list["bytes | memoryview"]:
    """A complete wire frame as gather-write parts (no payload copies).

    The header and the body's segment table are merged into one small
    ``bytes`` part; the pickle blob and each out-of-band buffer follow as
    their own parts.  Send with :func:`write_frame`; the out-of-band
    buffers go from their owner's memory to the kernel in one hop.
    """
    parts = encode_body_parts(obj)
    _check_body_size(body_parts_nbytes(parts))
    header = _HEADER.pack(MAGIC, kind, rank, body_parts_nbytes(parts))
    return [header + parts[0], *parts[1:]]


#: Conservative bound under every platform's IOV_MAX (Linux: 1024); frames
#: with more gather-write segments than this are joined before sending.
_MAX_IOV = 512


def write_frame(sock: socket.socket,
                frame: "bytes | tuple[bytes, ...] | list") -> int:
    """Send one frame: packed bytes, or gather-write parts — the (header,
    body) pair of a :class:`Frame` being forwarded, or the parts list from
    :func:`pack_frame_parts` — via ``sendmsg`` with no concatenation.

    Raises :class:`WireError` when the connection is gone — callers decide
    whether that is fatal (handshake) or a droppable send (dead peer).
    """
    try:
        if isinstance(frame, (tuple, list)):
            if len(frame) > _MAX_IOV:  # pragma: no cover - degenerate payloads
                frame = [b"".join(frame)]
            # len() == nbytes here: parts are bytes or 1-D uint8 memoryviews
            # (pickle 5's raw() form).
            total = sum(len(part) for part in frame)
            sent = sock.sendmsg(frame)
            while sent < total:  # pragma: no cover - huge-frame partial write
                rest = b"".join(frame)[sent:]
                sock.sendall(rest)
                sent = total
            return total
        sock.sendall(frame)
    except (OSError, ValueError) as exc:
        raise WireError(f"connection lost while sending: {exc}") from exc
    return len(frame)


def _read_into(sock: socket.socket, buffer: "bytearray | memoryview", *,
               mid_frame: bool = True) -> None:
    """Fill ``buffer`` from the socket (``recv_into``: no chunk objects)."""
    view = memoryview(buffer)
    got = 0
    while got < len(view):
        try:
            count = sock.recv_into(view[got:])
        except (OSError, ValueError) as exc:
            raise WireError(f"connection lost while receiving: {exc}") from exc
        if not count:
            raise WireError("connection closed mid-frame"
                            if mid_frame or got else "connection closed")
        got += count


def _read_body(sock: socket.socket, n: int) -> bytearray:
    """Receive an ``n``-byte segment-framed body into one ``bytearray``.

    The first table entry is read ahead: it says where the first
    out-of-band buffer — a genome vector on the exchange path — will sit.
    The body is received behind ``pad`` spare bytes chosen so that this
    offset lands on a multiple of :data:`_ALIGN` from the start of the
    allocation (itself at least that aligned), and the later buffers (whole
    float vectors) stay element-aligned behind it.  ``del body[:pad]`` then
    drops the spare bytes; CPython advances the array's start for that and
    moves nothing.  Where an implementation does move the bytes, the
    placement is lost and :func:`decode_body` copies the misaligned buffers
    instead — slower, never wrong.
    """
    prefix = bytearray(min(n, 4 + _SEG_LEN.size))
    _read_into(sock, prefix)
    first = _first_buffer_offset(prefix)
    pad = 0 if first is None else -first % _ALIGN
    body = bytearray(pad + n)
    body[pad:pad + len(prefix)] = prefix
    _read_into(sock, memoryview(body)[pad + len(prefix):])
    del body[:pad]
    return body


def read_frame(sock: socket.socket,
               max_body: int = MAX_FRAME_BYTES) -> Frame:
    """Block until one full frame arrives; validates magic and size.

    ``max_body`` tightens the size limit below :data:`MAX_FRAME_BYTES` —
    pre-auth reads (the rendezvous hello) use a few-KiB cap so a stranger
    on a routable bind cannot make the coordinator buffer near-gigabyte
    bodies before the token is ever checked.
    """
    header = bytearray(_HEADER.size)
    _read_into(sock, header, mid_frame=False)
    header = bytes(header)
    magic, kind, rank, body_len = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (protocol mismatch?)")
    if body_len > max_body:
        raise WireError(f"frame of {body_len} bytes exceeds the "
                        f"{max_body}-byte limit")
    if max_body < MAX_FRAME_BYTES:
        # A size-capped read is a pre-auth JSON hello: not segment-framed.
        body = bytearray(body_len)
        _read_into(sock, body)
    else:
        body = _read_body(sock, body_len)
    return Frame(kind, rank, body, header=header)
