"""The length-prefixed binary wire format, and the shared connection loop.

Every frame names its own format by its first byte: ``R`` starts a binary
frame, anything else one NDJSON line (:mod:`repro.server.protocol`).  One
connection may mix the two and each reply travels in the format of the
request it answers, so there is no handshake.  A binary frame is::

    offset  size  field
    0       4     magic  b"RBF1"
    4       4     u32 little-endian header length H
    8       8     u64 little-endian body length B
    16      H     UTF-8 JSON header (the payload, tensors/bytes lifted out)
    16+H    B     body: the lifted sections, concatenated in order

The header is the ordinary protocol payload with every numeric tensor
(box rows, partial counters, xi coefficients) and raw byte blob (snapshot
bytes) *lifted* into the body.  Lifted values are described by
the reserved header key ``"_b"``: a list of ``[path, kind, meta]`` entries
where ``path`` locates the value in the payload tree, ``kind`` is a numpy
dtype string (``"<i8"``, ``"<f8"``, ``"<u8"``) with ``meta`` the tensor
shape, or ``"raw"`` with ``meta`` the byte length.  Decoding slices the
body without copying — tensors come back as read-only ``np.frombuffer``
views, which is exactly what :func:`~repro.server.protocol.boxes_from_rows`
and ``load_state_dict`` accept.  The write-ahead log stores each record
payload as one such frame (:mod:`repro.wal.framing`).

Why JSON headers instead of a fully struct-packed opcode table: the JSON
part of a hot-path frame is tiny (tens of bytes) once tensors are lifted
out, so the win of packing it further is noise next to skipping the
per-coordinate JSON number formatting — and every op, present and future,
works over both formats without a second schema.

The module also hosts :func:`serve_connection`, the pipelined in-order
reader/writer pair every :class:`~repro.server.front.ServingFront` runs per
connection: per-frame format detection, ``frame_too_large`` handling and
per-format wire metrics.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from collections.abc import Mapping
from typing import Any, BinaryIO

import numpy as np

from repro.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    ProtocolError,
    ReproError,
)
from repro.server import protocol

WIRE_NDJSON = "ndjson"
WIRE_BINARY = "binary"

#: The two formats a frame may be written in.
WIRE_FORMATS = (WIRE_NDJSON, WIRE_BINARY)

MAGIC = b"RBF1"

#: The first byte of a binary frame (an NDJSON line starts with ``{``).
BINARY_LEAD = MAGIC[:1]

#: magic | u32 header length | u64 body length, all little-endian.
FRAME_PREFIX = struct.Struct("<4sIQ")
PREFIX_SIZE = FRAME_PREFIX.size

#: Reserved header key listing the lifted body sections.
BODY_KEY = "_b"

#: Tensor dtypes allowed in the body (fixed-width little-endian only, so a
#: frame means the same thing on every host).  Anything else falls back to
#: JSON lists in the header.
TENSOR_DTYPES = ("<i8", "<f8", "<u8")

#: Requests one connection may have in flight before its reader stops
#: consuming frames (an :class:`~repro.client.InProcessClient` burst is fed
#: in windows of this size too).
MAX_INFLIGHT_PER_CONNECTION = 128

#: How far past the size bound a reader will drain an oversized binary
#: frame to keep the connection framed.  Beyond this the declared length
#: is treated as hostile/corrupt and the connection is dropped instead.
_DRAIN_LIMIT_FACTOR = 4


class FramingLostError(ProtocolError):
    """The byte stream can no longer be split into frames (bad magic,
    EOF mid-frame): the connection must be dropped, not answered."""


# -- binary codec -------------------------------------------------------------------


def encode_binary(payload: Mapping[str, Any]) -> bytes:
    """One binary frame for ``payload`` (see the module docstring)."""
    sections: list[tuple[list, Any]] = []

    def lift(value: Any, path: list) -> Any:
        if isinstance(value, np.ndarray):
            array = np.ascontiguousarray(value)
            if array.dtype.str not in TENSOR_DTYPES:
                return array.tolist()
            sections.append((path, array))
            return None
        if isinstance(value, (bytes, bytearray, memoryview)):
            sections.append((path, bytes(value)))
            return None
        if isinstance(value, Mapping):
            return {str(key): lift(item, path + [str(key)])
                    for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [lift(item, path + [index])
                    for index, item in enumerate(value)]
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        return value

    tree = {str(key): lift(item, [str(key)])
            for key, item in payload.items()}
    descriptors: list[list] = []
    chunks: list[bytes] = []
    for path, value in sections:
        if isinstance(value, bytes):
            descriptors.append([path, "raw", len(value)])
            chunks.append(value)
        else:
            descriptors.append([path, value.dtype.str, list(value.shape)])
            chunks.append(value.tobytes())
    if descriptors:
        tree[BODY_KEY] = descriptors
    header = json.dumps(tree, separators=(",", ":")).encode("utf-8")
    body = b"".join(chunks)
    return FRAME_PREFIX.pack(MAGIC, len(header), len(body)) + header + body


def _graft(payload: dict, path: list, value: Any) -> None:
    """Put a decoded body section back at ``path`` in the payload tree."""
    try:
        node: Any = payload
        for key in path[:-1]:
            node = node[key if isinstance(node, dict) else int(key)]
        last = path[-1]
        node[last if isinstance(node, dict) else int(last)] = value
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(
            f"binary frame body path {path!r} does not match its header"
        ) from exc


def _is_size(value: Any) -> bool:
    """A byte length or tensor extent: a non-negative JSON integer."""
    return type(value) is int and value >= 0  # a bool or float is not one


def decode_binary(header: bytes, body: bytes) -> dict:
    """Payload from a frame's header and body bytes (zero-copy tensors)."""
    payload = protocol.decode(header)
    descriptors = payload.pop(BODY_KEY, [])
    if not isinstance(descriptors, list):
        raise ProtocolError("binary frame body descriptors must be a list")
    offset = 0
    for descriptor in descriptors:
        if (not isinstance(descriptor, list) or len(descriptor) != 3
                or not isinstance(descriptor[0], list)
                or not descriptor[0]):
            raise ProtocolError(
                f"malformed binary body descriptor: {descriptor!r}")
        path, kind, meta = descriptor
        value: Any
        if kind == "raw":
            if not _is_size(meta):
                raise ProtocolError(f"malformed raw section length {meta!r}")
            nbytes = meta
            value = bytes(body[offset:offset + nbytes])
            if len(value) != nbytes:
                raise ProtocolError("binary frame body is shorter than its "
                                    "header declares")
        else:
            if kind not in TENSOR_DTYPES:
                raise ProtocolError(f"unsupported tensor dtype {kind!r}")
            if not (isinstance(meta, list) and all(map(_is_size, meta))):
                raise ProtocolError(f"malformed tensor shape {meta!r}")
            count = math.prod(meta)
            nbytes = count * np.dtype(kind).itemsize
            if offset + nbytes > len(body):
                raise ProtocolError("binary frame body is shorter than its "
                                    "header declares")
            # Read-only view straight over the receive buffer: decoding a
            # 1k-box ingest copies no coordinate bytes at all.
            try:
                value = np.frombuffer(body, dtype=kind, count=count,
                                      offset=offset).reshape(meta)
            except ValueError as exc:  # an empty tensor numpy cannot shape
                raise ProtocolError(f"malformed tensor shape {meta!r}") from exc
        offset += nbytes
        _graft(payload, path, value)
    if offset != len(body):
        raise ProtocolError(f"binary frame carries {len(body) - offset} "
                            "undeclared trailing body bytes")
    return payload


def encode_frame(payload: Mapping[str, Any], wire: str) -> bytes:
    """Encode ``payload`` for either wire format."""
    if wire == WIRE_BINARY:
        return encode_binary(payload)
    return protocol.encode(payload)


# -- frame readers ------------------------------------------------------------------


def _unpack_prefix(prefix: bytes, max_bytes: int) -> tuple[int, int, int]:
    """``(header length, body length, frame length)`` of a frame prefix;
    a bad magic or a frame beyond the drain limit loses the framing."""
    magic, header_len, body_len = FRAME_PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise FramingLostError(
            f"bad frame magic {magic!r}; expected {MAGIC!r}")
    total = PREFIX_SIZE + header_len + body_len
    if total > max_bytes * _DRAIN_LIMIT_FACTOR:
        raise FramingLostError(
            f"frame declares {total} bytes, too large to drain — dropping "
            "the connection")
    return header_len, body_len, total


def _drain_steps(total: int) -> list[int]:
    """The reads, 64 KiB at most, that skip an oversized frame's body."""
    return [min(1 << 16, total - start)
            for start in range(PREFIX_SIZE, total, 1 << 16)]


def _oversized(total: int, max_bytes: int) -> FrameTooLargeError:
    return FrameTooLargeError(
        f"binary frame of {total} bytes exceeds {max_bytes} bytes",
        recoverable=True)


async def read_binary_frame(reader: asyncio.StreamReader, max_bytes: int,
                            lead: bytes = b"") -> tuple[dict, int]:
    """One binary frame from an asyncio stream; returns (payload, nbytes).

    ``lead`` is the start of the prefix when the caller has read it
    already (the connection loop reads one byte to pick the format).

    Raises :class:`ConnectionLostError` on EOF at a frame boundary,
    :class:`FramingLostError` when the stream cannot be re-synchronised,
    :class:`FrameTooLargeError` (after draining the oversized frame, so
    the connection stays usable) when the declared size exceeds
    ``max_bytes``, and plain :class:`ProtocolError` for frames whose
    lengths were honoured but whose content is malformed.
    """
    try:
        prefix = lead + await reader.readexactly(PREFIX_SIZE - len(lead))
    except asyncio.IncompleteReadError as exc:
        if not (lead or exc.partial):
            raise ConnectionLostError("connection closed") from exc
        raise FramingLostError("connection closed mid-frame prefix") from exc
    header_len, body_len, total = _unpack_prefix(prefix, max_bytes)
    try:
        if total > max_bytes:
            for step in _drain_steps(total):
                await reader.readexactly(step)
            raise _oversized(total, max_bytes)
        header = await reader.readexactly(header_len)
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise FramingLostError("connection closed mid-frame") from exc
    return decode_binary(header, body), total


def _read_exact(stream: BinaryIO, count: int, *, what: str) -> bytes:
    data = stream.read(count)  # a buffered stream blocks for all of it
    if len(data) == count:
        return data
    if not data and what == "frame prefix":
        raise ConnectionLostError("server closed the connection")
    raise FramingLostError(f"connection closed mid {what}")


def read_binary_frame_sync(stream: BinaryIO) -> dict:
    """Blocking mirror of :func:`read_binary_frame` for the sync client,
    bounded by :data:`~repro.server.protocol.MAX_LINE_BYTES` and draining
    an oversized frame the same way."""
    max_bytes = protocol.MAX_LINE_BYTES
    prefix = _read_exact(stream, PREFIX_SIZE, what="frame prefix")
    header_len, body_len, total = _unpack_prefix(prefix, max_bytes)
    if total > max_bytes:
        for step in _drain_steps(total):
            _read_exact(stream, step, what="oversized frame")
        raise _oversized(total, max_bytes)
    header = _read_exact(stream, header_len, what="frame header")
    body = _read_exact(stream, body_len, what="frame body")
    return decode_binary(header, body)


# -- the shared server-side connection loop -----------------------------------------


class _ConnectionState:
    """Per-connection accounting shared by the reader and writer tasks."""

    __slots__ = ("inflight", "slot_free", "tenant")

    def __init__(self) -> None:
        self.inflight = 0
        self.slot_free = asyncio.Event()
        # Principal the connection is bound to after an ``auth`` step: a
        # tenant id, the admin sentinel, or None (unauthenticated).
        self.tenant: str | None = None


async def serve_connection(owner, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
    """Drive one client connection for ``owner``.

    ``owner`` is the :class:`~repro.server.front.ServingFront`: it provides
    ``metrics``, ``config.max_line_bytes``, ``authenticate`` and
    ``_process``.  At most :data:`MAX_INFLIGHT_PER_CONNECTION` requests
    are in flight at once.

    The pipelining contract is unchanged from the pre-binary servers: a
    reader task turns frames into request tasks, a writer task writes each
    reply as soon as its request finishes, preserving submission order.
    In-flight accounting is a plain counter + wakeup event rather than a
    semaphore: the common (uncontended) path then costs no awaits.  The
    slot is freed by the WRITER once the reply has been written (not when
    the request task completes), so the cap bounds the replies queue and
    the transport buffer too — a client that sends fast but reads slowly
    stalls the writer in drain(), slots stay taken, and the reader stops
    consuming: true end-to-end backpressure.

    The first byte of each frame picks its format (see the module
    docstring), and its reply is written in that same format.
    """
    metrics = owner.metrics
    max_bytes = owner.config.max_line_bytes
    state = _ConnectionState()
    replies: asyncio.Queue = asyncio.Queue()
    writer_task = asyncio.create_task(
        _write_replies(metrics, replies, writer, state))
    loop = asyncio.get_running_loop()

    def enqueue(payload: dict, wire: str) -> None:
        future = loop.create_future()
        future.set_result(payload)
        replies.put_nowait((future, False, wire))

    try:
        while True:
            try:
                lead = await reader.read(1)
            except (ConnectionError, OSError):
                break
            if not lead:
                break
            wire = WIRE_BINARY if lead == BINARY_LEAD else WIRE_NDJSON
            try:
                if wire == WIRE_BINARY:
                    request, nbytes = await read_binary_frame(
                        reader, max_bytes, lead)
                else:
                    line = lead
                    if lead != b"\n":
                        try:
                            line += await reader.readline()
                        except ValueError as exc:
                            # NDJSON has no length prefix: once a line
                            # blows the limit the line framing is lost, so
                            # reply with the structured error and hang up.
                            raise FrameTooLargeError(
                                f"request line exceeds {max_bytes} bytes",
                                recoverable=False) from exc
                    if not line.strip():
                        continue
                    nbytes = len(line)
                    request = protocol.decode(line)
            except FrameTooLargeError as exc:
                enqueue(protocol.error_payload(str(exc),
                                               code="frame_too_large"), wire)
                if exc.recoverable:
                    continue
                break
            except FramingLostError as exc:
                enqueue(protocol.error_payload_for(exc), wire)
                break
            except ReproError as exc:
                # Malformed content inside an intact frame (bad JSON, bad
                # descriptors): answer and keep the connection.
                enqueue(protocol.error_payload_for(exc), wire)
                continue
            except (ConnectionError, OSError):
                break
            metrics.record_wire(wire, "in", nbytes)
            op = request.get("op")
            metrics.record_request(str(op))
            if op == "auth":
                # Handled inline: the outcome mutates the connection's
                # principal binding, which request tasks running
                # concurrently must never race against.
                try:
                    payload, principal = owner.authenticate(request)
                except Exception as exc:
                    payload, principal = (
                        protocol.error_payload_for(exc, op="auth",
                                                   request=request), None)
                enqueue(payload, wire)
                if principal is not None:
                    state.tenant = principal
                continue
            if op == "quit":
                enqueue(protocol.ok_payload("quit", request), wire)
                break
            while state.inflight >= MAX_INFLIGHT_PER_CONNECTION:
                state.slot_free.clear()
                await state.slot_free.wait()
            state.inflight += 1
            task = asyncio.create_task(owner._process(request, state.tenant))
            replies.put_nowait((task, True, wire))
    finally:
        replies.put_nowait(None)
        await writer_task


async def _write_replies(metrics, replies: asyncio.Queue,
                         writer: asyncio.StreamWriter,
                         state: _ConnectionState) -> None:
    """Write replies in request order as their tasks complete, each in
    the format of its request."""
    while True:
        entry = await replies.get()
        if entry is None:
            return
        item, counted, wire = entry
        try:
            try:
                payload = await item
            except Exception as exc:  # _process shouldn't leak; be safe
                payload = protocol.error_payload_for(exc)
            if not payload.get("ok"):
                metrics.record_error(payload.get("error_code", "error"))
            try:
                frame = encode_frame(payload, wire)
                writer.write(frame)
                metrics.record_wire(wire, "out", len(frame))
                if replies.empty():
                    # Batch kernel writes: drain once per burst of ready
                    # replies instead of once per reply.
                    await writer.drain()
            except (ConnectionError, OSError):
                # The client went away mid-reply; keep consuming the
                # queue so pending request tasks still get awaited.
                pass
        finally:
            if counted:
                state.inflight -= 1
                state.slot_free.set()
