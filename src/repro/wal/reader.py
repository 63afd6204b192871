"""Scanning WAL segments: durable-prefix reads.

Readers are deliberately forgiving about the *tail* of a log — a torn
final record is what a crash mid-append leaves behind, and the CRC framing
turns it into a clean truncation point — and strict about everything else
(a file without the WAL magic is an error, not an empty log).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.wal.framing import WAL_MAGIC, WalFormatError, iter_buffer_records

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def segment_path(directory, start_seqno: int) -> str:
    """The canonical path of the segment starting at ``start_seqno``."""
    return os.path.join(os.fspath(directory),
                        f"{_SEGMENT_PREFIX}{start_seqno:020d}{_SEGMENT_SUFFIX}")


def segment_start(path) -> int:
    """The first sequence number a segment file may contain (from its name)."""
    stem = os.path.basename(os.fspath(path))
    return int(stem[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])


def list_segments(directory) -> list[str]:
    """Every segment file of a WAL directory, in sequence order."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return []
    names = [name for name in os.listdir(directory)
             if name.startswith(_SEGMENT_PREFIX)
             and name.endswith(_SEGMENT_SUFFIX)]
    return [os.path.join(directory, name) for name in sorted(names)]


@dataclass(frozen=True)
class SegmentScan:
    """What one segment file actually holds.

    ``records`` is the durable prefix as ``(seqno, payload)`` pairs;
    ``valid_bytes`` is where that prefix ends in the file and
    ``truncated_bytes`` how many torn/corrupt bytes follow it (0 for a
    cleanly-closed segment).
    """

    path: str
    records: tuple[tuple[int, bytes], ...]
    valid_bytes: int
    truncated_bytes: int


def scan_segment(path) -> SegmentScan:
    """Read one segment's durable prefix, stopping at any torn tail."""
    path = os.fspath(path)
    with open(path, "rb") as handle:
        buffer = handle.read()
    if not buffer.startswith(WAL_MAGIC):
        raise WalFormatError(f"{path} is not a WAL segment (bad magic bytes)")
    records: list[tuple[int, bytes]] = []
    valid = len(WAL_MAGIC)
    for seqno, payload, end in iter_buffer_records(buffer,
                                                   offset=len(WAL_MAGIC)):
        records.append((seqno, payload))
        valid = end
    return SegmentScan(path=path, records=tuple(records), valid_bytes=valid,
                       truncated_bytes=len(buffer) - valid)


def read_wal(directory, *, since: int = 0
             ) -> tuple[list[tuple[int, bytes]], list[SegmentScan]]:
    """All durable ``(seqno, payload)`` records after ``since``, in order,
    and every segment's :class:`SegmentScan` (its torn bytes among them):
    one read of each segment."""
    scans = [scan_segment(path) for path in list_segments(directory)]
    records = [record for scan in scans for record in scan.records
               if record[0] > since]
    records.sort(key=lambda record: record[0])
    return records, scans
