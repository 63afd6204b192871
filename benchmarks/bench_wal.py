"""Durability-cost benchmark: WAL write overhead and recovery speed.

The two perf gates of the durability layer:

* **ingest overhead** — with a buffered WAL attached (``sync="none"``)
  ingest throughput must stay at **>= 0.7x** the WAL-less service (the
  log append is one userspace write of an already-contiguous tensor), and
* **recovery speed** — recovering ``checkpoint + tail replay`` must beat
  re-ingesting the raw update stream from scratch by **at least 5x**
  (that is what checkpointing buys: recovery cost proportional to the
  tail, not the history).

The run writes ``BENCH_wal.json`` and its human-readable record
``BENCH_wal.txt`` at the repository root; CI consumes the JSON report
through ``benchmarks/check_gates.py`` (the ``wal`` gate).
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.core.domain import Domain
from repro.service import EstimationService, synthetic_boxes
from repro.wal import WalWriter, recover_service

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_wal.json"

DOMAIN = Domain.square(1024, dimension=2)
NUM_INSTANCES = 256
NUM_BATCHES = 80
BATCH_BOXES = 500
#: Batches covered by the checkpoint; only the rest replay on recovery.
CHECKPOINT_AFTER = 76
RECOVERY_ROUNDS = 3
MIN_THROUGHPUT_RATIO = 0.7
MIN_RECOVERY_SPEEDUP = 5.0


def _query():
    return synthetic_boxes(DOMAIN, 1, seed=999)


def _batches() -> list:
    return [synthetic_boxes(DOMAIN, BATCH_BOXES, seed=100 + index)
            for index in range(NUM_BATCHES)]


def _fresh_service() -> EstimationService:
    service = EstimationService(num_shards=4, flush_threshold=None)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=11)
    return service


def _timed_ingest(service: EstimationService, batches: list) -> float:
    start = time.perf_counter()
    for boxes in batches:
        service.ingest("ranges", boxes, side="data")
    service.flush()
    return time.perf_counter() - start


def test_wal_overhead_and_recovery_speed(benchmark, tmp_path, record_gate):
    """The acceptance gates: >= 0.7x ingest ratio, >= 5x recovery speedup."""
    batches = _batches()
    total_boxes = NUM_BATCHES * BATCH_BOXES

    # -- ingest overhead: WAL-off vs buffered WAL-on --------------------------
    plain = _fresh_service()
    wal_off_seconds = _timed_ingest(plain, batches)
    expected = plain.estimate("ranges", _query()).estimate

    wal_dir = tmp_path / "wal"
    durable = _fresh_service()
    durable.attach_wal(WalWriter(wal_dir, sync="none"))

    def run_wal_on() -> float:
        return _timed_ingest(durable, batches)

    wal_on_seconds = benchmark.pedantic(run_wal_on, rounds=1, iterations=1)
    throughput_ratio = wal_off_seconds / wal_on_seconds
    # Both services saw the identical stream: estimates must agree exactly.
    assert durable.estimate("ranges", _query()).estimate == expected
    durable.detach_wal()

    # -- recovery: checkpoint + tail replay vs raw re-ingest ------------------
    ckpt = tmp_path / "ckpt.sketch"
    recovery_dir = tmp_path / "recovery-wal"
    victim = _fresh_service()
    victim.attach_wal(WalWriter(recovery_dir, sync="none", base=ckpt))
    for boxes in batches[:CHECKPOINT_AFTER]:
        victim.ingest("ranges", boxes, side="data")
    victim.checkpoint()
    for boxes in batches[CHECKPOINT_AFTER:]:
        victim.ingest("ranges", boxes, side="data")
    victim.flush()
    expected_recovered = victim.estimate("ranges", _query()).estimate
    victim.detach_wal()

    recovery_seconds = float("inf")
    recovered = None
    for _ in range(RECOVERY_ROUNDS):
        start = time.perf_counter()
        recovered, report = recover_service(recovery_dir, ckpt, attach=False)
        recovery_seconds = min(recovery_seconds,
                               time.perf_counter() - start)
    assert report.replayed_records == NUM_BATCHES - CHECKPOINT_AFTER
    assert recovered.estimate("ranges", _query()).estimate == expected_recovered

    reingest_seconds = _timed_ingest(_fresh_service(), batches)
    recovery_speedup = reingest_seconds / recovery_seconds

    report_doc = {
        "domain": list(DOMAIN.requested_sizes),
        "num_instances": NUM_INSTANCES,
        "wal_ingest": {
            "boxes": total_boxes,
            "batches": NUM_BATCHES,
            "wal_off_seconds": wal_off_seconds,
            "wal_on_seconds": wal_on_seconds,
            "throughput_ratio": throughput_ratio,
            "min_throughput_ratio": MIN_THROUGHPUT_RATIO,
        },
        "recovery": {
            "tail_records": NUM_BATCHES - CHECKPOINT_AFTER,
            "tail_boxes": (NUM_BATCHES - CHECKPOINT_AFTER) * BATCH_BOXES,
            "recovery_seconds": recovery_seconds,
            "reingest_seconds": reingest_seconds,
            "speedup": recovery_speedup,
            "min_speedup": MIN_RECOVERY_SPEEDUP,
        },
    }
    REPORT_PATH.write_text(json.dumps(report_doc, indent=2) + "\n",
                           encoding="utf-8")

    record_gate("wal_durability", [
        f"WAL durability costs ({total_boxes:,d} boxes, "
        f"{NUM_INSTANCES} instances, 4 shards)",
        f"ingest  : WAL off {wal_off_seconds * 1e3:8.1f} ms   "
        f"WAL on {wal_on_seconds * 1e3:8.1f} ms   "
        f"({throughput_ratio:4.2f}x, gate >= {MIN_THROUGHPUT_RATIO}x)",
        f"recover : replay {recovery_seconds * 1e3:8.1f} ms   "
        f"re-ingest {reingest_seconds * 1e3:8.1f} ms   "
        f"({recovery_speedup:4.1f}x faster, gate >= {MIN_RECOVERY_SPEEDUP}x)",
    ])

    assert throughput_ratio >= MIN_THROUGHPUT_RATIO
    assert recovery_speedup >= MIN_RECOVERY_SPEEDUP
