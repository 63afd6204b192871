"""The append-only, segmented write-ahead log writer.

A WAL lives in a directory of segment files named by the first sequence
number they may contain (``wal-00000000000000000001.log`` ...).  The
writer appends framed records (:mod:`repro.wal.framing`) with strictly
monotonic sequence numbers and supports three durability modes:

* ``none``   — userspace-buffered appends; fastest, a crash may lose the
  buffered tail (the CRC framing turns that into a clean truncation),
* ``flush``  — flush to the OS page cache per append: survives ``kill -9``
  of the process (the default for servers),
* ``fsync``  — ``os.fsync`` per append: survives power loss.

Opening an existing directory resumes after the last intact record — a
torn tail from a crashed writer is truncated away (it was never
acknowledged as durable) — and :meth:`WalWriter.truncate_through` is the
checkpoint half: after a snapshot covering everything up to sequence
number *s*, segments whose records are all ``<= s`` are deleted and a
fresh segment is rolled, keeping recovery cost proportional to the tail
written since the last checkpoint.

A log has one recovery base, :attr:`WalWriter.base` (default: the
directory's ``checkpoint.sketch``): the snapshot its tail belongs to.
Checkpoints write it and recovery reads it.
"""

from __future__ import annotations

import os
import threading
from typing import IO

import numpy as np

from repro.errors import SnapshotError
from repro.server.wire import encode_binary
from repro.wal.framing import WAL_MAGIC, WalFormatError, encode_record
from repro.wal.reader import (
    list_segments,
    scan_segment,
    segment_path,
    segment_start,
)

#: How far an append is pushed before it returns (``--wal-sync``).
SYNC_POLICIES = ("none", "flush", "fsync")


def default_checkpoint_path(wal_dir) -> str:
    """The recovery base of a log opened without an explicit one."""
    return os.path.join(os.fspath(wal_dir), "checkpoint.sketch")


class WalWriter:
    """Append framed records to the newest segment of a WAL directory.

    Thread-safe: concurrent producers (the service lock is *not* held
    around WAL appends) are serialised on an internal lock, which is also
    what makes sequence numbers strictly monotonic.
    ``checkpoint_boxes`` makes the attached service checkpoint itself
    once that many update rows are appended (``None``: manual only).
    """

    def __init__(self, directory, *, sync: str = "flush", base=None,
                 checkpoint_boxes: int | None = None) -> None:
        if sync not in SYNC_POLICIES:
            raise SnapshotError(
                f"WAL sync mode must be one of {SYNC_POLICIES}, got {sync!r}")
        if checkpoint_boxes is not None and checkpoint_boxes < 1:
            raise SnapshotError("checkpoint_boxes must be positive (or None)")
        self.directory = os.fspath(directory)
        self.sync = sync
        self.base = (os.fspath(base) if base is not None
                     else default_checkpoint_path(self.directory))
        self.checkpoint_boxes = checkpoint_boxes
        self._lock = threading.Lock()
        self._handle: IO[bytes] | None = None
        self._appended_boxes = 0
        #: The report of the recovery this log resumed from, when one did.
        self.recovery: dict | None = None
        os.makedirs(self.directory, exist_ok=True)
        self._last_seqno = self._resume()

    # -- introspection ------------------------------------------------------------

    @property
    def last_seqno(self) -> int:
        """Sequence number of the newest appended record (0 when empty)."""
        return self._last_seqno

    @property
    def appended_boxes(self) -> int:
        """Update rows appended since construction or the last checkpoint."""
        return self._appended_boxes

    def describe(self) -> dict:
        """A JSON-friendly summary (surfaces in server stats/metrics)."""
        segments = list_segments(self.directory)
        return {
            "directory": self.directory,
            "sync": self.sync,
            "base": self.base,
            "checkpoint_boxes": self.checkpoint_boxes,
            "last_seqno": self._last_seqno,
            "segments": len(segments),
            "bytes": sum(os.path.getsize(path) for path in segments),
            "recovery": self.recovery,
        }

    # -- lifecycle ----------------------------------------------------------------

    def _resume(self) -> int:
        """Open the newest segment for appending, truncating any torn tail.

        Numbering resumes after the newest segment's last intact record or,
        when it holds none, just below the seqno in its name: a checkpoint
        through ``s`` rolls the empty segment ``wal-(s+1)``, and a restarted
        log must go on at ``s + 1`` or recovery from that checkpoint skips
        what it logs.  Older segments only hold lower seqnos.
        """
        segments = list_segments(self.directory)
        if not segments:
            self._open_segment(1)
            return 0
        last_seqno = segment_start(segments[-1]) - 1
        tail = scan_segment(segments[-1])
        if tail.records:
            last_seqno = tail.records[-1][0]
        if tail.truncated_bytes:
            # The torn bytes were never durable; cut them so the next
            # append extends a fully-valid record run.
            with open(segments[-1], "r+b") as handle:
                handle.truncate(tail.valid_bytes)
        self._handle = open(segments[-1], "ab")
        return last_seqno

    def _open_segment(self, start_seqno: int) -> None:
        if self._handle is not None:
            self._handle.close()
        path = segment_path(self.directory, start_seqno)
        self._handle = open(path, "ab")
        if self._handle.tell() == 0:
            self._handle.write(WAL_MAGIC)
            self._handle.flush()

    def flush(self) -> None:
        """Push buffered appends to the OS, so a reader sees every record."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- appending ----------------------------------------------------------------

    def _append(self, event: dict) -> int:
        payload = encode_binary(event)
        with self._lock:
            if self._handle is None:
                raise SnapshotError("WAL writer is closed")
            seqno = self._last_seqno + 1
            self._handle.write(encode_record(seqno, payload))
            if self.sync != "none":
                self._handle.flush()
                if self.sync == "fsync":
                    os.fsync(self._handle.fileno())
            self._last_seqno = seqno
            return seqno

    def append_update(self, name: str, side: str, kind: str,
                      rows: np.ndarray) -> int:
        """Log one batched update; returns its sequence number.

        ``rows`` is the ``(count, 2 * dim)`` concatenation of box lows and
        highs — the exact wire/row form that ingest decodes, so replay
        feeds byte-identical coordinates back through the same code path.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise WalFormatError("update rows must be a (count, 2*dim) tensor")
        seqno = self._append({"type": "update", "name": name, "side": side,
                              "kind": kind, "rows": rows})
        with self._lock:
            self._appended_boxes += int(len(rows))
        return seqno

    def append_register(self, name: str, spec_dict: dict) -> int:
        return self._append({"type": "register", "name": name,
                             "spec": spec_dict})

    def append_unregister(self, name: str) -> int:
        return self._append({"type": "unregister", "name": name})

    def append_tenant(self, action: str, tenant_id: str,
                      record: dict | None = None) -> int:
        """Log one tenant-registry mutation (create/update/remove).

        ``record`` is the full :class:`~repro.tenancy.registry.TenantRecord`
        dict for create/update (tokens are already hashed there — plaintext
        tokens never reach the log); ``remove`` carries just the id, which
        is the event's ``name``.
        """
        event: dict = {"type": "tenant", "action": action,
                       "name": tenant_id}
        if record is not None:
            event["record"] = record
        return self._append(event)

    # -- checkpoint truncation ----------------------------------------------------

    def truncate_through(self, seqno: int) -> int:
        """Drop every record with sequence number ``<= seqno``.

        The checkpoint half: called after a snapshot that captures all
        state through ``seqno``.  The current segment is rolled first, so
        whole segment files can be unlinked; returns the number of
        segments removed.  Appends issued after the snapshot was taken are
        always in segments newer than ``seqno`` and survive.
        """
        with self._lock:
            if self._handle is None:
                raise SnapshotError("WAL writer is closed")
            if seqno < self._last_seqno:
                # A concurrent append slipped in after the snapshot was
                # captured; keep the whole current segment (it holds
                # records beyond the checkpoint).
                self._handle.flush()
                removed = self._remove_segments_before(seqno + 1)
            else:
                self._handle.flush()
                self._open_segment(seqno + 1)
                removed = self._remove_segments_before(seqno + 1)
            self._appended_boxes = 0
            return removed

    def _remove_segments_before(self, start_seqno: int) -> int:
        """Unlink closed segments whose records all precede ``start_seqno``."""
        segments = list_segments(self.directory)
        removed = 0
        for index, path in enumerate(segments):
            if path == segments[-1]:
                break  # never unlink the live segment
            next_start = segment_start(segments[index + 1])
            if next_start <= start_seqno:
                os.unlink(path)
                removed += 1
        return removed
