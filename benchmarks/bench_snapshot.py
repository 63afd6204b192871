"""Snapshot benchmark: binary v2 save and restore latency, old files still read.

This is the perf-regression gate of the columnar state layer.  It used to
compare the binary format with the v1 JSON *writer* (3.8x larger, 78.4 ms
against 2.4 ms to save, 8.1x slower to restore); that writer is gone, so
the slow side of those ratios is gone with it and the gate holds the
binary path to absolute ceilings instead:

* saving a 4-shard service as a **binary v2** snapshot and restoring it
  (memory-mapped counter tensors) each stay under **2x their recorded
  values** (2.4 ms / 2.2 ms on the reference box — best of a few rounds,
  as that record was taken, so a busy host does not trip the gate), and
* the checked-in **v2 fixture** an earlier build wrote (all eight
  families, one state per shard, see
  ``tests/test_service_snapshot_v2.py``) still restores and answers its
  recorded estimates exactly.

The file holds one state per name — the sum of the service's shards — so
its size and save time do not grow with the shard count: 2 185 344 B for
the three names here, where one state per shard wrote 8 739 712 B.  The
restore goes into a store of the constructor's default 4 shards.

The run writes ``BENCH_snapshot.json`` and its human-readable record
``BENCH_snapshot.txt`` at the repository root; CI consumes the
JSON report and fails the perf-smoke job when a ceiling is exceeded.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.domain import Domain
from repro.service import EstimationService, synthetic_boxes

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_snapshot.json"
FIXTURES = pathlib.Path(__file__).parent.parent / "tests" / "fixtures"

DOMAIN = Domain.square(1024, dimension=2)
NUM_INSTANCES = 512
DATA_BOXES = 4000
ROUNDS = 15
#: 2x what the last recorded run took (2.4 / 2.2 ms).
MAX_SAVE_MS = 4.8
MAX_RESTORE_MS = 4.4


def _make_service() -> EstimationService:
    service = EstimationService(num_shards=4, flush_threshold=None)
    service.register("join", family="rectangle", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=11)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=12)
    service.register("containment", family="containment", domain=DOMAIN,
                     num_instances=NUM_INSTANCES // 2, seed=13)
    service.ingest("join", synthetic_boxes(DOMAIN, DATA_BOXES, seed=1),
                   side="left")
    service.ingest("join", synthetic_boxes(DOMAIN, DATA_BOXES, seed=2),
                   side="right")
    service.ingest("ranges", synthetic_boxes(DOMAIN, DATA_BOXES, seed=3),
                   side="data")
    service.ingest("containment", synthetic_boxes(DOMAIN, DATA_BOXES, seed=4),
                   side="outer")
    service.ingest("containment", synthetic_boxes(DOMAIN, DATA_BOXES, seed=5),
                   side="inner")
    service.flush()
    return service


def _best_ms(action, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _v2_fixture_restores() -> bool:
    """The reader's compatibility gate: an earlier build's file answers exactly."""
    expected = json.loads(
        (FIXTURES / "service_snapshot_v2.expected.json").read_text())["names"]
    service = EstimationService.load(FIXTURES / "service_snapshot_v2.snap")
    return all(service.estimate(name).estimate == answers["scalar"]
               for name, answers in expected.items()
               if answers["family"] != "range")


def test_binary_snapshot_save_and_restore_under_their_ceilings(benchmark,
                                                               tmp_path, record_gate):
    """The acceptance gates: binary save and restore under 2x their recorded
    values, and the v2 fixture still restores."""
    service = _make_service()
    expected_join = service.estimate("join").estimate
    path = str(tmp_path / "svc.snap")

    save_ms = benchmark.pedantic(
        lambda: _best_ms(lambda: service.save(path)), rounds=1, iterations=1)
    restore_ms = _best_ms(lambda: EstimationService.load(path))
    assert EstimationService.load(path).estimate("join").estimate == expected_join
    fixture_restores = _v2_fixture_restores()

    report = {
        "domain": list(DOMAIN.requested_sizes),
        "num_instances": NUM_INSTANCES,
        "data_boxes": DATA_BOXES,
        "estimators": service.names(),
        "rounds": ROUNDS,
        "binary": {
            "bytes": os.path.getsize(path),
            "save_ms": save_ms,
            "restore_ms": restore_ms,
            "max_save_ms": MAX_SAVE_MS,
            "max_restore_ms": MAX_RESTORE_MS,
        },
        "v2_fixture": {"restores": int(fixture_restores)},
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")

    record_gate("snapshot", [
        f"service snapshots ({len(service.names())} estimators, "
        f"{NUM_INSTANCES} instances, 4 shards summed into one state per "
        f"name; best of {ROUNDS})",
        f"size    : v2 binary {report['binary']['bytes']:9,d} B",
        f"save    : v2 binary {save_ms:8.1f} ms   (gate <= {MAX_SAVE_MS} ms)",
        f"restore : v2 binary {restore_ms:8.1f} ms   "
        f"(gate <= {MAX_RESTORE_MS} ms)",
        f"v2 fixture restores: {'yes' if fixture_restores else 'NO'}",
    ])

    assert fixture_restores
    assert save_ms <= MAX_SAVE_MS
    assert restore_ms <= MAX_RESTORE_MS
