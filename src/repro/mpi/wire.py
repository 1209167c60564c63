"""Length-prefix framing for every process boundary.

The TCP transport's connections and the process transport's Unix
socket-pair mailboxes carry the same frames, written and read by the same
functions here; only the TCP transport uses the verbs beyond MSG, RESULT
and SHUTDOWN.

One frame is a fixed header, a routing table and an opaque body::

    header := magic(2) kind(1) rank(4, signed) nroutes(2) body_len(4)
    routes := (rank(4, signed) tag(8, signed)) * nroutes
    body   := nseg(4) seg_len(8)*nseg seg*nseg

``kind`` is the protocol verb (HELLO/START/MSG/RESULT/SHUTDOWN/DRAIN) and
``rank`` its addressing field (reporting rank for RESULT, target
rank for DRAIN, unused otherwise).  A MSG is addressed by its **routes**
instead: every ``(destination world rank, tag)`` the one body goes to.  A
plain send is the group of one route; a genome going to four neighbour
cells is one frame with four routes, however many workers host them.  No
other kind carries routes.  :func:`pack_group_parts` and
:meth:`Frame.group` are the one way a :class:`~repro.mpi.endpoint.Group`
becomes a MSG frame and back.

Segment 0 of the body is the pickle (protocol 5); segments 1..n are the
out-of-band buffers pickle 5 extracted — NumPy genome vectors therefore
travel as raw buffer copies instead of being embedded (and escaped) inside
the pickle stream, which is the fast path the exchange loop lives on.

The one exception is HELLO: its body is a small UTF-8 JSON object, *not* a
pickle.  HELLO arrives before the sender has proven it knows the rendezvous
token, and unpickling attacker-controlled bytes is arbitrary code
execution — the coordinator must be able to authenticate the frame without
ever touching :mod:`pickle` (see ``SocketTransport._read_hello``).

The body is opaque to routers: everything the coordinator needs is in the
struct-packed routes, so it never unpickles a MSG.  It forwards the
received header+routes bytes and the received body object untouched, once
per destination *connection* (:attr:`Frame.parts`) — relayed genomes are
never re-pickled, re-packed or copied, and a body bound for two workers is
one buffer queued twice.  The receiving worker ignores the routes it does
not host.

The *first* hop is zero-copy too: :func:`pack_frame_parts` returns the
frame as gather-write parts — header+routes+segment-table, pickle blob, and
the raw out-of-band buffers as live memoryviews — and :func:`write_frame`
hands them to ``socket.sendmsg`` without ever concatenating, so a genome
vector goes from the sender's center slab (lent, not copied) to the kernel
in one hop.

So is the *last*: :func:`read_frame` receives a body with ``recv_into``
into a window of this process's receive pool and :func:`decode_body`
hands pickle writable slices of it, so a received genome vector is that
buffer — the cell reads its GEMM operands straight out of what the socket
filled.  The arrays of one frame therefore share one buffer, and so do
all the co-hosted ranks a group frame is delivered to: it is decoded
once.  The buffer comes back to the pool when the last array over it
dies, and the next frame lands in it: in steady state a receive allocates
nothing and zero-fills nothing (:class:`ReceivePool`).
"""

from __future__ import annotations

import ctypes
import os
import pickle
import socket
import struct
import threading
from typing import Any, Sequence

from repro.mpi.endpoint import Group
from repro.mpi.errors import MpiError

__all__ = [
    "Frame",
    "WireError",
    "pack_frame",
    "pack_frame_parts",
    "pack_group_parts",
    "encode_body",
    "encode_body_parts",
    "body_parts_nbytes",
    "decode_body",
    "read_frame",
    "write_frame",
    "ReceivePool",
    "RECEIVE_POOL",
    "HELLO",
    "START",
    "MSG",
    "RESULT",
    "SHUTDOWN",
    "DRAIN",
]

#: Protocol magic; bump when the frame layout changes (02: the header grew
#: the route count).
MAGIC = b"\xc5\x02"

# Frame kinds.
HELLO = 1      #: worker -> coordinator: join the rendezvous
START = 2      #: coordinator -> worker: rank assignment + the program
MSG = 3        #: one payload in flight to every ``(rank, tag)`` in its routes
RESULT = 4     #: worker -> coordinator: one rank's outcome; ``rank`` = rank
SHUTDOWN = 5   #: coordinator -> worker: drain and exit
# 6 and 7 are retired (coordinator liveness and membership broadcasts; the
# master's notices are the only membership record): never reuse them.
DRAIN = 8      #: control verb: coordinator -> worker requests the named
               #: rank drain gracefully (checkpoint + hand off its cells);
               #: also the reply kind for the ``repro drain`` control
               #: client.  ``rank`` = target world rank; body carries the
               #: acknowledgement payload on replies.

_HEADER = struct.Struct("!2sBiHI")  # magic, kind, rank, nroutes, body_len
_ROUTE = struct.Struct("!iq")       # destination world rank, tag
_SEG_LEN = struct.Struct("!Q")

#: Refuse frames above this size — a corrupted length prefix must not
#: trigger a multi-gigabyte allocation (or an endless blocking read).
MAX_FRAME_BYTES = 1 << 30


class WireError(MpiError):
    """Malformed frame, protocol mismatch, or a connection that died."""


class Frame:
    """One decoded frame header plus its still-serialized body.

    ``header`` keeps the raw received header and routing table so routers
    can forward the frame verbatim (``write_frame(sock, frame.parts)``)
    without re-packing or concatenating anything.
    """

    __slots__ = ("kind", "rank", "routes", "body", "header")

    def __init__(self, kind: int, rank: int, body: "bytes | bytearray | memoryview",
                 header: bytes | None = None,
                 routes: "Sequence[tuple[int, int]]" = ()):
        self.kind = kind
        self.rank = rank
        self.routes = tuple(routes)
        self.body = body
        self.header = (header if header is not None
                       else _pack_header(kind, rank, self.routes, len(body)))

    def payload(self) -> Any:
        return decode_body(self.body)

    def group(self) -> Group:
        """The :class:`~repro.mpi.endpoint.Group` a MSG frame carries
        (inverse of :func:`pack_group_parts`), decoded once for every
        destination it names."""
        return Group(*self.payload(), self.routes)

    @property
    def parts(self) -> "tuple[bytes, bytes | bytearray | memoryview]":
        """Header (routes included) and body, ready for a gather-write
        forward — the very objects that were received."""
        return self.header, self.body

    @property
    def nbytes(self) -> int:
        return len(self.header) + len(self.body)


def _pack_header(kind: int, rank: int, routes: "Sequence[tuple[int, int]]",
                 body_len: int) -> bytes:
    """Fixed header plus the routing table."""
    try:
        return _HEADER.pack(MAGIC, kind, rank, len(routes), body_len) + b"".join(
            _ROUTE.pack(dest, tag) for dest, tag in routes)
    except struct.error as exc:
        raise WireError(f"unroutable frame ({len(routes)} route(s)): {exc}") from exc


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
    writable ``body`` (the pool window :func:`read_frame` filled) is
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
        # u32 header field would die as a struct.error inside a lane
        # thread, silently losing the message.
        raise WireError(
            f"frame body of {body_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit; send smaller payloads "
            "(e.g. a registry dataset rendered per node instead of an "
            "in-memory dataset on the wire)")


def pack_frame(kind: int, rank: int, obj: Any = None, *,
               body: bytes | None = None,
               routes: "Sequence[tuple[int, int]]" = ()) -> bytes:
    """A complete wire frame; pass ``body`` to forward without re-pickling."""
    encoded = encode_body(obj) if body is None else body
    _check_body_size(len(encoded))
    return _pack_header(kind, rank, routes, len(encoded)) + encoded


def pack_frame_parts(kind: int, rank: int, obj: Any, *,
                     routes: "Sequence[tuple[int, int]]" = ()
                     ) -> list["bytes | memoryview"]:
    """A complete wire frame as gather-write parts (no payload copies).

    The header, the routes and the body's segment table are merged into one
    small ``bytes`` part; the pickle blob and each out-of-band buffer
    follow as their own parts.  Send with :func:`write_frame`; the
    out-of-band buffers go from their owner's memory to the kernel in one
    hop.  ``routes`` is every ``(destination rank, tag)`` of a MSG.
    """
    parts = encode_body_parts(obj)
    body_len = body_parts_nbytes(parts)
    _check_body_size(body_len)
    return [_pack_header(kind, rank, routes, body_len) + parts[0], *parts[1:]]


def pack_group_parts(group: Group,
                     routes: "Sequence[tuple[int, int]] | None" = None
                     ) -> list["bytes | memoryview"]:
    """One group as a MSG frame's gather-write parts: ``(context, source,
    payload)`` addressed to ``routes`` (default: all of the group's).
    :meth:`Frame.group` reads it back on the receiving side."""
    return pack_frame_parts(MSG, 0, (group.context, group.source, group.payload),
                            routes=group.routes if routes is None else routes)


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


def _idle(buffer: bytearray) -> bool:
    """True when no view of ``buffer`` is left — no window, no array
    decoded over one.  A ``bytearray`` refuses to change size while it
    is exported, so a one-byte shrink and regrow (within its allocation:
    nothing moves) is the test."""
    try:
        del buffer[-1:]
    except BufferError:
        return False
    buffer.append(0)
    return True


#: The most buffers :class:`ReceivePool` keeps: two rounds of a worker's
#: exchange frames (one per neighbour hosted elsewhere) with room to spare.
_POOL_BUFFERS = 16


class ReceivePool:
    """This process's receive buffers for frame bodies.

    :meth:`window` hands out a buffer as a ``memoryview`` window, and every
    array decoded from the frame is a view onto it, so the buffer is
    exported exactly as long as one of them lives: it is idle again when
    the last array over it dies, and the next body of at most its size is
    received into it — no allocation, no zero-fill.  The pool is bounded:
    it grows only while every buffer it keeps is busy, to at most
    :data:`_POOL_BUFFERS`; an idle buffer too small for a body makes way
    for a new one, and a body that finds every pooled buffer busy gets a
    buffer of its own, freed with its arrays.
    """

    def __init__(self):
        self._buffers: list[bytearray] = []
        self._lock = threading.Lock()

    def window(self, n: int, first: int) -> memoryview:
        """``n`` writable bytes, placed so that body offset ``first`` (the
        first out-of-band buffer) lies on a multiple of :data:`_ALIGN`."""
        with self._lock:
            idle = [buffer for buffer in self._buffers if _idle(buffer)]
            fits = [buffer for buffer in idle if len(buffer) >= n + _ALIGN]
            if fits:
                buffer = min(fits, key=len)
            else:
                # Some slack, so that a frame a little longer than the one
                # before (a result after the exchange frames) still fits.
                buffer = bytearray(n + n // 64 + _ALIGN)
                if idle:
                    # The pool grows only while every buffer is busy: an
                    # idle one too small makes way.
                    self._buffers.remove(max(idle, key=len))
                if len(self._buffers) < _POOL_BUFFERS:
                    self._buffers.append(buffer)
            view = memoryview(buffer)   # busy from here on
        pad = -(_address(view) + first) % _ALIGN
        return view[pad:pad + n]

    @property
    def nbytes(self) -> int:
        """Bytes the pool keeps, busy or idle."""
        with self._lock:
            return sum(len(buffer) for buffer in self._buffers)

    def forget(self) -> None:
        """Start empty (a forked child: its parent's readers are not its own)."""
        self._buffers = []
        self._lock = threading.Lock()


#: Every frame body of this process that carries an out-of-band buffer
#: lands here.
RECEIVE_POOL = ReceivePool()
os.register_at_fork(after_in_child=RECEIVE_POOL.forget)


def _read_body(sock: socket.socket, n: int) -> "bytearray | memoryview":
    """Receive an ``n``-byte segment-framed body.

    The first table entry is read ahead: it says where the first
    out-of-band buffer — a genome vector on the exchange path — will sit.
    A body that carries one is received into a :data:`RECEIVE_POOL` window
    placed so that this offset lands on a multiple of :data:`_ALIGN`, and
    the later buffers (whole float vectors) stay element-aligned behind
    it.  A body without one (a control message: it decodes into objects
    that keep nothing of it) gets a ``bytearray`` of its own.
    """
    prefix = bytearray(min(n, 4 + _SEG_LEN.size))
    _read_into(sock, prefix)
    first = _first_buffer_offset(prefix)
    if first is None:
        body = bytearray(n)
    else:
        body = RECEIVE_POOL.window(n, first)
    body[:len(prefix)] = prefix
    _read_into(sock, memoryview(body)[len(prefix):])
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
    magic, kind, rank, nroutes, body_len = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (protocol mismatch?)")
    # The routing table counts against the cap: a stranger must not buy
    # buffer space with routes either.
    frame_len = nroutes * _ROUTE.size + body_len
    if frame_len > max_body:
        raise WireError(f"frame of {frame_len} bytes exceeds the "
                        f"{max_body}-byte limit")
    table = bytearray(nroutes * _ROUTE.size)
    _read_into(sock, table)
    routes = _ROUTE.iter_unpack(table)
    if max_body < MAX_FRAME_BYTES:
        # A size-capped read is a pre-auth JSON hello: not segment-framed.
        body = bytearray(body_len)
        _read_into(sock, body)
    else:
        body = _read_body(sock, body_len)
    return Frame(kind, rank, body, header=bytes(header + table), routes=routes)
