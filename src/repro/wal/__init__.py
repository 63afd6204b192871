"""Write-ahead logging and snapshot+replay recovery.

The durability layer of the sketch service.  The source paper's turnstile
stream model (inserts *and* deletes as signed updates) makes replay-based
recovery exact by construction: sketch counters are linear in the update
stream and integer-valued in float64, so re-applying a log of raw update
rows to a snapshot reproduces the counter tensors **bit-identically**,
independent of replay batching or order.

* :mod:`repro.wal.framing` — the on-disk record format: length-prefixed,
  CRC-checked records with monotonic sequence numbers, each carrying one
  RBF1 wire frame — a batched update (raw int64 box tensor), a
  registration or a tenant event,
* :mod:`repro.wal.writer` — the append-only segmented writer with
  configurable sync modes (``none`` / ``flush`` / ``fsync``),
* :mod:`repro.wal.reader` — segment scanning with torn/corrupt tail
  detection (CRC),
* :mod:`repro.wal.recovery` — ``load the base + replay tail`` service
  recovery; the base is the writer's one recovery snapshot, which
  checkpoints write before they truncate the log.
"""

from repro.wal.framing import (
    WAL_MAGIC,
    decode_payload,
    encode_record,
    iter_buffer_records,
)
from repro.wal.reader import SegmentScan, read_wal, scan_segment
from repro.wal.recovery import (
    RecoveryReport,
    apply_wal_record,
    recover_service,
    replay_records,
)
from repro.wal.writer import SYNC_POLICIES, WalWriter

__all__ = [
    "WAL_MAGIC",
    "SYNC_POLICIES",
    "SegmentScan",
    "RecoveryReport",
    "WalWriter",
    "apply_wal_record",
    "decode_payload",
    "encode_record",
    "iter_buffer_records",
    "read_wal",
    "recover_service",
    "replay_records",
    "scan_segment",
]
