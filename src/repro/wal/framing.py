"""On-disk framing of write-ahead log records.

A WAL segment file is the magic line :data:`WAL_MAGIC` followed by a run
of records.  Each record is::

    <Q seqno> <I payload_len> <payload bytes> <I crc32(header + payload)>

— length-prefixed and CRC-checked, with a strictly monotonic sequence
number.  The trailing CRC covers the header *and* the payload, so a torn
write (crash mid-append), a truncated file, or any bit flip in the tail is
detected and the reader stops at the last intact record: recovery keeps
exactly the durable prefix of the stream.

Each payload is one RBF1 binary frame of the wire codec
(:func:`repro.server.wire.encode_binary`): the event dict (``type``,
``name`` and the event's own fields) with an update's ``(count, 2 * dim)``
int64 row tensor lifted into the frame body exactly as ingested —
replaying never re-encodes boxes, so the replayed counters are
bit-identical to the never-crashed service.  :func:`decode_payload` adds
the log's own checks on top of the wire decode: a known event type, int64
update rows of shape ``(count, 2 * dim)`` with ``dim >= 1``, a valid tenant
action.

Upgrade rule: logs written before payloads were wire frames (a u32 header
length, a JSON header, raw rows) keep the same segment magic and record
framing, but their payloads are refused.  Recover such a directory with the
older build and checkpoint it there, which leaves no old payload behind,
then start this build on it.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

import numpy as np

from repro.errors import ProtocolError, SnapshotError
from repro.server.wire import FRAME_PREFIX, MAGIC, PREFIX_SIZE, decode_binary

#: First bytes of every WAL segment file.
WAL_MAGIC = b"REPROWAL1\n"

#: Record header: little-endian uint64 seqno + uint32 payload length.
_RECORD_HEADER = struct.Struct("<QI")
#: Trailing checksum: crc32 over header + payload.
_RECORD_CRC = struct.Struct("<I")

#: Sanity bound on one record's payload (a 16 MiB ingest line fits well).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

#: Event types a record may carry.
RECORD_TYPES = ("update", "register", "unregister", "tenant")

#: Actions a ``tenant`` record may carry.
TENANT_ACTIONS = ("create", "update", "remove")

#: What a payload that is not an RBF1 frame is refused with.
_NOT_A_FRAME = (
    "WAL payload is not an RBF1 frame: the log was written by an older "
    "build — recover and checkpoint the directory with that build first")


class WalFormatError(SnapshotError):
    """A WAL segment is malformed beyond a recoverable torn tail."""


# -- record framing --------------------------------------------------------------


def encode_record(seqno: int, payload: bytes) -> bytes:
    """One framed record: header + payload + trailing CRC."""
    if seqno < 1:
        raise WalFormatError("WAL sequence numbers start at 1")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WalFormatError(
            f"WAL payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte record bound")
    header = _RECORD_HEADER.pack(seqno, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header))
    return header + payload + _RECORD_CRC.pack(crc)


def iter_buffer_records(buffer: bytes, *, offset: int = 0
                        ) -> Iterator[tuple[int, bytes, int]]:
    """Yield ``(seqno, payload, end_offset)`` for every intact record.

    Iteration stops silently at the first torn, truncated or
    CRC-corrupted record — the caller sees exactly the durable prefix.
    The last yielded ``end_offset`` is the byte position up to which the
    buffer is known-good (where a writer may safely resume appending).
    """
    view = memoryview(buffer)
    total = len(view)
    while True:
        if offset + _RECORD_HEADER.size > total:
            return
        seqno, length = _RECORD_HEADER.unpack_from(view, offset)
        end = offset + _RECORD_HEADER.size + length + _RECORD_CRC.size
        if length > MAX_PAYLOAD_BYTES or end > total:
            return
        payload = bytes(view[offset + _RECORD_HEADER.size:end - _RECORD_CRC.size])
        (stored_crc,) = _RECORD_CRC.unpack_from(view, end - _RECORD_CRC.size)
        computed = zlib.crc32(
            payload, zlib.crc32(bytes(view[offset:offset + _RECORD_HEADER.size])))
        if stored_crc != computed:
            return
        yield seqno, payload, end
        offset = end


# -- payload decoding ------------------------------------------------------------


def decode_payload(payload: bytes) -> dict:
    """The event dict of one record payload (one RBF1 frame).

    ``update`` events come back with their ``rows`` as a read-only int64
    ``(count, 2 * dim)`` view over the payload; ``register`` events carry
    their ``spec`` dict, ``tenant`` events their ``action`` (and ``record``).
    """
    if len(payload) < PREFIX_SIZE or not payload.startswith(MAGIC):
        raise WalFormatError(_NOT_A_FRAME)
    _magic, header_len, body_len = FRAME_PREFIX.unpack_from(payload)
    if PREFIX_SIZE + header_len + body_len != len(payload):
        raise WalFormatError("WAL payload frame lengths do not match the "
                             "record")
    body_start = PREFIX_SIZE + header_len
    try:
        event = decode_binary(payload[PREFIX_SIZE:body_start],
                              memoryview(payload)[body_start:])
    except ProtocolError as exc:
        raise WalFormatError(f"corrupt WAL event: {exc}") from exc
    kind = event.get("type")
    if kind not in RECORD_TYPES:
        raise WalFormatError(f"unknown WAL event in record: {event!r}")
    if kind == "update":
        rows = event.get("rows")
        if (not isinstance(rows, np.ndarray) or rows.ndim != 2
                or rows.dtype != np.int64 or rows.shape[1] % 2 or not rows.shape[1]):
            raise WalFormatError("update rows must be a (count, 2*dim) "
                                 "int64 tensor")
    if kind == "tenant" and event.get("action") not in TENANT_ACTIONS:
        raise WalFormatError(
            f"tenant action must be one of {TENANT_ACTIONS}, got "
            f"{event.get('action')!r}")
    return event
