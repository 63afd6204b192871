"""Service benchmark: ingestion throughput and estimate latency vs. shards.

Shape assertions:

* batched ingestion through the service (buffer + vectorised flush) is at
  least 5x faster, in boxes/sec, than feeding the same service one box at
  a time with a flush per box (the acceptance criterion of the service
  subsystem),
* the merged-view LRU cache makes repeated estimates much cheaper than the
  first (cold) one.

Following the conventions of this suite, the measured series are printed
and recorded in the gitignored ``BENCH_<record>.txt`` files at the
repository root (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import time

from repro.core.domain import Domain
from repro.service import EstimationService, synthetic_boxes

from benchmarks.conftest import write_record

DOMAIN = Domain.square(1024, dimension=2)
NUM_INSTANCES = 64
BATCHED_BOXES = 4000
PER_BOX_BOXES = 250


def _make_service(num_shards: int, flush_threshold=None) -> EstimationService:
    service = EstimationService(num_shards=num_shards,
                                flush_threshold=flush_threshold)
    service.register("join", family="rectangle", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=7)
    return service


def _ingest_rate(service: EstimationService, boxes, *, per_box: bool) -> float:
    """Boxes per second for one full ingest+flush cycle."""
    start = time.perf_counter()
    if per_box:
        for index in range(len(boxes)):
            service.ingest("join", boxes[index], side="left")
            service.flush()
    else:
        service.ingest("join", boxes, side="left")
        service.flush()
    elapsed = time.perf_counter() - start
    return len(boxes) / elapsed


def _record(name: str, lines: list[str]) -> None:
    write_record(name, "\n".join(lines))


def test_batched_ingestion_at_least_5x_per_box(benchmark):
    """The acceptance criterion: batching beats per-box inserts >= 5x."""
    batched_data = synthetic_boxes(DOMAIN, BATCHED_BOXES, seed=1)
    per_box_data = synthetic_boxes(DOMAIN, PER_BOX_BOXES, seed=2)

    service = _make_service(num_shards=4)
    batched_rate = benchmark.pedantic(
        lambda: _ingest_rate(service, batched_data, per_box=False),
        rounds=1, iterations=1)

    per_box_rate = _ingest_rate(_make_service(num_shards=4), per_box_data,
                                per_box=True)

    _record("service_ingest_batched_vs_perbox", [
        "service ingestion throughput (rectangle family, "
        f"{NUM_INSTANCES} instances, 4 shards)",
        f"batched ({BATCHED_BOXES} boxes)   : {batched_rate:12.0f} boxes/s",
        f"per-box ({PER_BOX_BOXES} boxes)    : {per_box_rate:12.0f} boxes/s",
        f"speedup                  : {batched_rate / per_box_rate:12.1f}x",
    ])
    assert batched_rate >= 5.0 * per_box_rate


def test_throughput_vs_shard_count(benchmark):
    """Throughput stays in the same ballpark as shards scale (no collapse)."""
    data = synthetic_boxes(DOMAIN, BATCHED_BOXES, seed=3)
    rates: dict[int, float] = {}

    def sweep() -> dict[int, float]:
        for shards in (1, 2, 4, 8):
            rates[shards] = _ingest_rate(_make_service(shards), data,
                                         per_box=False)
        return rates

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    _record("service_throughput_vs_shards", [
        "service ingestion throughput vs shard count "
        f"({BATCHED_BOXES} boxes, {NUM_INSTANCES} instances)",
        *(f"shards={shards:<2d} : {rate:12.0f} boxes/s"
          for shards, rate in sorted(rates.items())),
    ])
    # Sharding splits one vectorised insert into N smaller ones; allow
    # overhead but reject a collapse.
    assert rates[8] > rates[1] / 10.0


def test_estimate_latency_cold_vs_cached(benchmark):
    """The merged-view cache amortises shard merging across estimates."""
    service = _make_service(num_shards=8)
    service.ingest("join", synthetic_boxes(DOMAIN, 2000, seed=4), side="left")
    service.ingest("join", synthetic_boxes(DOMAIN, 2000, seed=5), side="right")
    service.flush()

    start = time.perf_counter()
    service.estimate("join")
    cold = time.perf_counter() - start

    def cached() -> float:
        start = time.perf_counter()
        for _ in range(20):
            service.estimate("join")
        return (time.perf_counter() - start) / 20

    warm = benchmark.pedantic(cached, rounds=1, iterations=1)
    _record("service_estimate_latency", [
        "service estimate latency (8 shards, "
        f"{NUM_INSTANCES} instances, rectangle family)",
        f"cold (merge all shards) : {cold * 1e3:10.3f} ms",
        f"cached merged view      : {warm * 1e3:10.3f} ms",
    ])
    assert service.stats.cache_hits >= 20
    assert warm <= cold  # a cached estimate never costs more than a cold one
