"""Batched-estimation benchmark: scalar loop vs. vectorised batch kernels.

This is the perf-regression gate of the batched estimation engine:

* a 1000-query batch answered through ``EstimationService.estimate_batch``
  must beat the same 1000 queries answered one ``estimate`` call at a time
  by **at least 3x** (the CI perf-smoke job re-checks the recorded JSON),
* batch throughput is additionally swept across shard counts.

The run writes ``BENCH_batch_estimate.json`` and its human-readable record
``BENCH_batch_estimate.txt`` at the repository root; CI consumes
the JSON report and fails the perf-smoke job when the speedup drops below 3x.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.core.domain import Domain
from repro.service import EstimationService, synthetic_boxes, synthetic_queries

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_batch_estimate.json"

DOMAIN = Domain.square(1024, dimension=2)
NUM_INSTANCES = 128
DATA_BOXES = 8000
NUM_QUERIES = 1000
MIN_SPEEDUP = 3.0


def _make_service(num_shards: int) -> EstimationService:
    service = EstimationService(num_shards=num_shards, flush_threshold=None)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=11)
    service.ingest("ranges", synthetic_boxes(DOMAIN, DATA_BOXES, seed=1),
                   side="data")
    service.flush()
    service.estimate("ranges", synthetic_queries(DOMAIN, 1, seed=99))  # warm view
    return service


def test_batch_estimate_at_least_3x_scalar_loop(benchmark, record_gate):
    """The acceptance criterion: the batch kernel beats the scalar loop >= 3x."""
    service = _make_service(num_shards=4)
    queries = synthetic_queries(DOMAIN, NUM_QUERIES, seed=7)

    def run_batch() -> float:
        start = time.perf_counter()
        results = service.estimate_batch("ranges", queries)
        elapsed = time.perf_counter() - start
        assert len(results) == NUM_QUERIES
        return elapsed

    batch_seconds = benchmark.pedantic(run_batch, rounds=1, iterations=1)

    # A service of its own: every estimate runs on the service's caching
    # executor, and the loop must not read the letter sums the batch left.
    cold = _make_service(num_shards=4)
    start = time.perf_counter()
    scalar = [cold.estimate("ranges", queries[index])
              for index in range(NUM_QUERIES)]
    scalar_seconds = time.perf_counter() - start

    batch = service.estimate_batch("ranges", queries)
    assert [r.estimate for r in batch] == [r.estimate for r in scalar]

    speedup = scalar_seconds / batch_seconds

    shard_rates: dict[int, float] = {}
    for shards in (1, 2, 4, 8):
        sharded = _make_service(num_shards=shards)
        start = time.perf_counter()
        sharded.estimate_batch("ranges", queries)
        shard_rates[shards] = NUM_QUERIES / (time.perf_counter() - start)

    report = {
        "domain": list(DOMAIN.requested_sizes),
        "num_instances": NUM_INSTANCES,
        "data_boxes": DATA_BOXES,
        "scalar_vs_batch": {
            "num_queries": NUM_QUERIES,
            "scalar_seconds": scalar_seconds,
            "batch_seconds": batch_seconds,
            "scalar_qps": NUM_QUERIES / scalar_seconds,
            "batch_qps": NUM_QUERIES / batch_seconds,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
        },
        "batch_qps_vs_shards": {str(k): v for k, v in shard_rates.items()},
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    record_gate("batch_estimate", [
        f"batched range estimation ({NUM_QUERIES} queries, "
        f"{NUM_INSTANCES} instances, 4 shards)",
        f"scalar loop : {scalar_seconds:8.3f} s "
        f"({NUM_QUERIES / scalar_seconds:10.0f} q/s)",
        f"batch kernel: {batch_seconds:8.3f} s "
        f"({NUM_QUERIES / batch_seconds:10.0f} q/s)",
        f"speedup     : {speedup:8.1f}x (gate: >= {MIN_SPEEDUP}x)",
        *(f"shards={shards:<2d} : {rate:10.0f} q/s"
          for shards, rate in sorted(shard_rates.items())),
    ])
    assert speedup >= MIN_SPEEDUP
