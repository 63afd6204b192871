"""Snapshot + replay recovery and the checkpoint lifecycle.

Recovery is ``load the base + replay tail``: restore the log's one
recovery base (:attr:`~repro.wal.writer.WalWriter.base`), whose header
records the WAL sequence number it covers, then re-apply every durable
log record *after* that position through the normal ingest path.  Sketch
counters are linear in the update stream and integer-valued in float64,
so the replayed tensors are bit-identical to the never-crashed service.

The checkpoint is the inverse half:
:meth:`~repro.service.service.EstimationService.checkpoint` writes the
base (embedding the covered sequence number) and only then truncates the
log through it, keeping recovery cost proportional to the tail written
since the last checkpoint.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.server.protocol import boxes_from_rows
from repro.wal.framing import decode_payload
from repro.wal.reader import read_wal
from repro.wal.writer import WalWriter, default_checkpoint_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import EstimationService


@dataclass(frozen=True)
class RecoveryReport:
    """What one :func:`recover_service` call reconstructed."""

    snapshot_path: str | None
    base_seqno: int
    last_seqno: int
    replayed_records: int
    replayed_boxes: int
    truncated_bytes: int

    def as_dict(self) -> dict:
        return {
            "snapshot_path": self.snapshot_path,
            "base_seqno": self.base_seqno,
            "last_seqno": self.last_seqno,
            "replayed_records": self.replayed_records,
            "replayed_boxes": self.replayed_boxes,
            "truncated_bytes": self.truncated_bytes,
        }


def _apply_record(service: "EstimationService", event: dict) -> int:
    """Apply one decoded record event; returns the update rows it carried.

    Registration replay is idempotent: a ``register`` for a name the
    service already knows (it came from the snapshot) is skipped, and an
    ``unregister`` for an unknown name is a no-op.  Updates go through the
    normal ingest path, so a record the ingest check refuses fails replay
    at that record.
    """
    from repro.service.specs import EstimatorSpec

    record_type = event["type"]
    name = event["name"]
    if record_type == "tenant":
        from repro.tenancy import TenantRecord

        if event["action"] == "remove":
            registry = service.tenants
            if registry is not None and name in registry:
                service.tenant_remove(name)
        else:
            # create and update both replay as an upsert: idempotent, and a
            # replayed create over an existing tenant converges instead of
            # failing the whole recovery.
            service.tenant_upsert(TenantRecord.from_dict(event["record"]))
        return 0
    if record_type == "register":
        if name not in service:
            service.register(name, EstimatorSpec.from_dict(event["spec"]))
        return 0
    if record_type == "unregister":
        if name in service:
            service.unregister(name)
        return 0
    rows = event["rows"]
    if name not in service:
        # The estimator was unregistered after this update was logged; the
        # later unregister record supersedes it.
        return 0
    service.ingest(name, boxes_from_rows(rows, validate=False),
                   side=event["side"], kind=event["kind"])
    return int(len(rows))


def replay_records(service: "EstimationService",
                   records: Iterable[tuple[int, bytes]]) -> tuple[int, int, int]:
    """Re-apply ``(seqno, payload)`` records; returns
    ``(records, boxes, last_seqno)``."""
    replayed = 0
    boxes = 0
    last_seqno = 0
    for seqno, payload in records:
        boxes += _apply_record(service, decode_payload(payload))
        replayed += 1
        last_seqno = seqno
    if replayed:
        service.flush()
    return replayed, boxes, last_seqno


def recover_service(wal_dir, snapshot_path=None, *, sync: str = "flush",
                    attach: bool = True, num_shards: int = 4,
                    checkpoint_boxes: int | None = None,
                    ) -> tuple["EstimationService", RecoveryReport]:
    """Rebuild a service as ``load the base + replay tail``.

    ``snapshot_path`` is the log's recovery base (default: the directory's
    ``checkpoint.sketch``); only records after its ``wal_seqno`` replay, so
    a torn tail left by a crash costs exactly the writes never acknowledged
    as durable.  With ``attach=True`` (default) a :class:`WalWriter` on
    that base resumes on the directory — truncating the torn tail — and is
    attached to the recovered service; it keeps the report as
    ``recovery``, which the ``stats`` reply's ``wal`` block carries.
    """
    from repro.service.snapshot import read_binary_snapshot_state, restore_service

    base = (os.fspath(snapshot_path) if snapshot_path is not None
            else default_checkpoint_path(wal_dir))
    base_seqno = 0
    resolved_path: str | None = None
    if os.path.exists(base):
        resolved_path = base
        state = read_binary_snapshot_state(base)
        base_seqno = state.get("wal_seqno", 0)
    else:
        state = {"estimators": {}}
    service = restore_service(state, num_shards=num_shards)

    records, scans = read_wal(wal_dir, since=base_seqno)
    replayed, boxes, last_seqno = replay_records(service, records)
    report = RecoveryReport(
        snapshot_path=resolved_path,
        base_seqno=base_seqno,
        last_seqno=max(last_seqno, base_seqno),
        replayed_records=replayed,
        replayed_boxes=boxes,
        truncated_bytes=sum(scan.truncated_bytes for scan in scans),
    )
    if attach:
        writer = WalWriter(wal_dir, sync=sync, base=base,
                           checkpoint_boxes=checkpoint_boxes)
        writer.recovery = report.as_dict()
        service.attach_wal(writer)
    return service, report
