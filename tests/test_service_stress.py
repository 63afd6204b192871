"""Concurrency stress tests for :class:`EstimationService` and its stats.

Satellite of the network-serving PR: the server keeps one long-lived
service under concurrent ingest / estimate / snapshot traffic, so the
service must hold up under exactly that mix from plain threads too.
"""

import threading

import pytest

from repro.core.domain import Domain
from repro.service import EstimationService, ServiceStats, restore_service, \
    synthetic_boxes, synthetic_queries

pytestmark = pytest.mark.e2e

DOMAIN = Domain.square(128, dimension=2)


class TestServiceStatsAtomicity:
    """Satellite: stats reads are atomic copies taken under the lock."""

    def test_stats_property_returns_a_copy(self):
        service = EstimationService(num_shards=2)
        first = service.stats
        assert isinstance(first, ServiceStats)
        assert first is not service.stats
        # Mutating the copy must not leak back into the service.
        first.estimates = 10 ** 9
        assert service.stats.estimates == 0

    def test_new_counters_exposed(self, monkeypatch):
        monkeypatch.setattr("repro.service.service.VIEW_CACHE_SIZE", 1)
        service = EstimationService(num_shards=2)
        service.register("a", family="range", domain=DOMAIN, num_instances=8)
        service.register("b", family="range", domain=DOMAIN, num_instances=8,
                         seed=1)
        service.ingest("a", synthetic_boxes(DOMAIN, 10, seed=1), side="data")
        service.ingest("b", synthetic_boxes(DOMAIN, 10, seed=2), side="data")
        service.flush()
        queries = synthetic_queries(DOMAIN, 4, seed=3)
        service.estimate_batch("a", queries)
        service.estimate_batch("b", queries)  # evicts a's view (one-entry cache)
        service.estimate_batch("a", queries)  # rebuild -> second eviction
        stats = service.stats
        assert stats.batch_estimates == 3
        assert stats.estimates == 12
        assert stats.evictions >= 1
        assert stats.coalesced_queries == 0  # only the server layer coalesces
        service.record_coalesced(7)
        assert service.stats.coalesced_queries == 7
        as_dict = service.stats.as_dict()
        for key in ("evictions", "batch_estimates", "coalesced_queries"):
            assert key in as_dict

    def test_describe_includes_new_counters(self):
        service = EstimationService(num_shards=2)
        description = service.describe()
        assert description["stats"]["batch_estimates"] == 0
        assert description["stats"]["evictions"] == 0


def test_concurrent_ingest_estimate_snapshot_stress():
    """Satellite: threads drive ingest + estimate + snapshot on one service."""
    service = EstimationService(num_shards=4, flush_threshold=256)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=16, seed=5)
    service.register("join", family="rectangle", domain=DOMAIN,
                     num_instances=16, seed=7)
    service.ingest("join", synthetic_boxes(DOMAIN, 50, seed=90), side="left")
    service.ingest("join", synthetic_boxes(DOMAIN, 50, seed=91), side="right")
    service.flush()

    errors: list[Exception] = []
    ingest_rounds, boxes_per_round = 15, 64
    estimate_rounds = 25
    snapshot_rounds = 8
    queries = synthetic_queries(DOMAIN, 8, seed=6)

    def guard(fn):
        def run():
            try:
                fn()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
        return run

    def ingester(seed: int):
        def work():
            for round_index in range(ingest_rounds):
                boxes = synthetic_boxes(DOMAIN, boxes_per_round,
                                        seed=seed * 1000 + round_index)
                service.ingest("ranges", boxes, side="data")
        return work

    def estimator():
        for round_index in range(estimate_rounds):
            single = service.estimate("ranges", queries[round_index % 8])
            assert single.estimate == single.estimate  # not NaN
            batch = service.estimate_batch("ranges", queries)
            assert len(batch) == 8
            service.estimate("join")

    def snapshotter():
        for _ in range(snapshot_rounds):
            state = service.snapshot()
            restored = restore_service(state)
            # A snapshot is internally consistent: the restored service
            # answers (it reflects *some* consistent prefix of ingestion).
            restored.estimate("ranges", queries[0])

    threads = [threading.Thread(target=guard(ingester(seed)))
               for seed in range(4)]
    threads += [threading.Thread(target=guard(estimator)) for _ in range(2)]
    threads += [threading.Thread(target=guard(snapshotter))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    service.flush()
    total = 4 * ingest_rounds * boxes_per_round
    view = service.merged_view("ranges")
    assert view.count == total  # no ingested box was lost or double-applied
    stats = service.stats
    assert stats.ingested_boxes == total + 100
    assert stats.estimates >= 2 * estimate_rounds * (1 + 8 + 1)


def test_concurrent_stats_reads_are_consistent():
    """Readers hammering `.stats` during traffic never see torn counters."""
    service = EstimationService(num_shards=2, flush_threshold=64)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=8, seed=3)
    queries = synthetic_queries(DOMAIN, 4, seed=1)
    stop = threading.Event()
    errors: list[Exception] = []

    def reader():
        try:
            while not stop.is_set():
                stats = service.stats
                # estimates is bumped together with batch_estimates in one
                # critical section; a torn read could show batch_estimates
                # ahead of estimates, which is impossible under the lock.
                assert stats.estimates >= stats.batch_estimates
                # The single writer thread has at most one request in
                # flight, whose cache touch lands one lock acquisition
                # before its estimate count does.
                assert stats.cache_hits + stats.cache_misses \
                    <= stats.estimates + 1
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def writer():
        try:
            for index in range(40):
                service.ingest("ranges",
                               synthetic_boxes(DOMAIN, 16, seed=index),
                               side="data")
                service.estimate_batch("ranges", queries)
                service.estimate("ranges", queries[0])
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
