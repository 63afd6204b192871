"""A sharded sketch service ingesting a stream and serving concurrent queries.

The example stands up a 4-shard :class:`~repro.service.EstimationService`
holding a rectangle-join sketch and a range-query sketch, replays a
reproducible insert/delete stream (:mod:`repro.data.streams`) through the
batched ingestion pipeline, and — while ingestion is still running — serves
join and range estimates from merged shard views on a pool of query
threads.  At the end it checkpoints the service to the binary (v2) snapshot
format and verifies that a memory-mapped restore answers identically.

Run with::

    python examples/streaming_service.py
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.domain import Domain
from repro.data.streams import UpdateStream
from repro.errors import EstimationError
from repro.exact import range_query_count, rectangle_join_count
from repro.geometry import BoxSet
from repro.experiments.harness import adaptive_domain
from repro.service import EstimationService, synthetic_boxes


def main() -> None:
    domain = Domain.square(1024, dimension=2)

    # 1. Stream data: the right join input is loaded up front, the left
    #    input arrives as a stream of inserts and deletes.
    left_data = synthetic_boxes(domain, 8_000, seed=1, max_extent_fraction=0.1)
    right_data = synthetic_boxes(domain, 8_000, seed=2, max_extent_fraction=0.1)

    # 2. A service with four hash partitions.  Every registered estimator
    #    keeps one merge-compatible sketch per shard (shared seed spec).
    #    The dyadic maxLevel is tuned from a sample (Section 6.5), exactly
    #    as in examples/quickstart.py — it cuts the estimator variance by
    #    orders of magnitude.
    tuned = adaptive_domain(left_data, right_data, domain, seed=1)
    service = EstimationService(num_shards=4, flush_threshold=2048)
    service.register("join", family="rectangle", domain=tuned,
                     num_instances=512, seed=42)
    service.register("ranges", family="range", domain=tuned,
                     num_instances=512, seed=43)
    service.ingest("join", right_data, side="right")
    stream = UpdateStream(left_data, delete_fraction=0.25, seed=7)
    print(f"stream: {stream.expected_length():,} operations "
          f"({len(left_data):,} inserts + deletes) into 4 shards")

    # 3. Ingest on one thread, query concurrently on three others.  Merged
    #    views are immutable snapshots, so queries never block ingestion for
    #    longer than one flush.
    queries = [BoxSet((lo, lo), (lo + 300, lo + 300))
               for lo in (0, 256, 512)]
    done = threading.Event()
    observations: list[tuple[str, float]] = []

    def ingest() -> None:
        # Same-kind batches of the stream go straight to ingest: a
        # stream's UpdateKind is the str kind ingest takes.
        batches = 0
        for name, side in (("join", "left"), ("ranges", "data")):
            for kind, boxes in stream.batches(256):
                service.ingest(name, boxes, side=side, kind=kind)
                batches += 1
        done.set()
        print(f"ingested: the stream into join and ranges in {batches} batches")

    def query(index: int) -> None:
        while not done.is_set():
            # An estimator that has seen no data yet raises EstimationError;
            # a serving front-end reports "no data" and retries.
            try:
                observations.append(("join", service.estimate("join").estimate))
                observations.append((
                    "range", service.estimate("ranges", queries[index]).estimate))
            except EstimationError:
                pass
            time.sleep(0.01)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(ingest)]
        futures += [pool.submit(query, index) for index in range(3)]
        for future in futures:
            future.result()
    elapsed = time.perf_counter() - start
    print(f"concurrent run: {len(observations):,} estimates served while "
          f"ingesting, {elapsed:.2f} s total")

    # 4. Compare the final estimates with exact answers on the survivors.
    survivors = stream.final_state()
    service.flush()
    join_estimate = service.estimate("join")
    join_truth = rectangle_join_count(survivors, right_data)
    print(f"join      : estimate {join_estimate.estimate:12,.0f}   "
          f"exact {join_truth:12,}")
    for query in queries:
        estimate = service.estimate("ranges", query)
        truth = range_query_count(survivors, query)
        corner = tuple(query.lows[0].tolist())
        print(f"range {corner!s:>12}: estimate {estimate.estimate:10,.0f}   "
              f"exact {truth:10,}")

    # 4b. Batched estimation: a whole query batch is answered through one
    #     vectorised kernel (shared dyadic covers, one median-of-means
    #     reduction) — bit-identical to the scalar loop above but many
    #     times faster.
    query_batch = synthetic_boxes(tuned, 1_000, seed=9, max_extent_fraction=0.2)
    start = time.perf_counter()
    batch_results = service.estimate_batch("ranges", query_batch)
    batch_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    scalar_results = [service.estimate("ranges", query_batch[i])
                      for i in range(64)]
    scalar_rate = 64 / (time.perf_counter() - start)
    assert all(batch_results[i].estimate == scalar_results[i].estimate
               for i in range(64))
    print(f"batch     : {len(batch_results):,} range queries in "
          f"{batch_elapsed * 1e3:.1f} ms "
          f"({len(batch_results) / batch_elapsed:,.0f} q/s vs "
          f"{scalar_rate:,.0f} q/s scalar), bit-identical results")

    # 5. Checkpoint and restore: the binary (v2) snapshot stores the
    #    columnar counter tensors raw, so saving is one write per tensor and
    #    restoring memory-maps them back — a restored service answers
    #    bit-identically.
    with tempfile.TemporaryDirectory(prefix="repro-svc-") as tmp:
        path = os.path.join(tmp, "service.snap")
        service.save(path)
        start = time.perf_counter()
        restored = EstimationService.load(path)
        restore_ms = (time.perf_counter() - start) * 1e3
        assert restored.estimate("join").estimate == join_estimate.estimate
        size_kb = os.path.getsize(path) / 1024
        print(f"snapshot  : binary v2 {size_kb:7.0f} KiB, restored "
              f"identically in {restore_ms:6.1f} ms")
    print(f"stats     : {service.stats.as_dict()}")


if __name__ == "__main__":
    main()
