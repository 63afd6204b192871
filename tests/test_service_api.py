"""Tests for the EstimationService front-end: caching, snapshots, streams."""

import json
import threading

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.data.streams import UpdateStream
from repro.errors import ServiceError, SnapshotError
from repro.geometry.boxset import BoxSet
from repro.server.protocol import json_default
from repro.service import (
    EstimationService,
    EstimatorSpec,
    restore_service,
    synthetic_boxes,
)
from repro.service.snapshot import store_snapshot, write_binary_snapshot_state

from tests.conftest import random_boxes


def _service(**kwargs):
    kwargs.setdefault("num_shards", 4)
    service = EstimationService(**kwargs)
    service.register("join", family="rectangle", domain=(256, 256),
                     num_instances=16, seed=5)
    return service


class TestRegistration:
    def test_register_inline_and_by_spec(self):
        service = EstimationService(num_shards=2)
        spec = EstimatorSpec.create("range", (256,), 8, seed=1)
        service.register("by-spec", spec)
        service.register("inline", family="range", domain=(256,),
                         num_instances=8, seed=1)
        assert service.spec("by-spec") == service.spec("inline")

    def test_register_conflicting_arguments_rejected(self):
        service = EstimationService(num_shards=2)
        spec = EstimatorSpec.create("range", (256,), 8)
        with pytest.raises(ServiceError):
            service.register("x", spec, family="range")
        with pytest.raises(ServiceError):
            service.register("x")

    def test_unregister_clears_views(self, rng):
        service = _service()
        service.ingest("join", random_boxes(rng, 10, 256, 2))
        service.estimate("join")
        service.unregister("join")
        assert "join" not in service
        with pytest.raises(ServiceError):
            service.estimate("join")


class TestEstimateAndCache:
    def test_estimate_flushes_pending(self, rng):
        service = _service(flush_threshold=None)
        service.ingest("join", random_boxes(rng, 60, 256, 2), side="left")
        service.ingest("join", random_boxes(rng, 60, 256, 2), side="right")
        assert service.pending == 120
        result = service.estimate("join")
        assert service.pending == 0
        assert result.left_count == 60 and result.right_count == 60

    def test_cache_hit_and_invalidation(self, rng):
        service = _service(flush_threshold=None)
        service.ingest("join", random_boxes(rng, 40, 256, 2))
        service.estimate("join")
        assert service.stats.cache_misses == 1
        service.estimate("join")
        assert service.stats.cache_hits == 1
        # New data invalidates the cached view on flush.
        service.ingest("join", random_boxes(rng, 10, 256, 2))
        service.estimate("join")
        assert service.stats.cache_misses == 2

    def test_cache_eviction(self, rng, monkeypatch):
        monkeypatch.setattr("repro.service.service.VIEW_CACHE_SIZE", 1)
        service = EstimationService(num_shards=2)
        for name in ("a", "b"):
            service.register(name, family="range", domain=(256,),
                             num_instances=8, seed=2)
            service.ingest(name, random_boxes(rng, 20, 256, 1), side="data")
        query = BoxSet((10,), (200,))
        service.estimate("a", query)
        service.estimate("b", query)  # evicts a
        service.estimate("a", query)  # miss again
        assert service.stats.cache_misses == 3

    def test_estimates_against_unsharded_reference(self, rng):
        service = _service(flush_threshold=32)
        left = random_boxes(rng, 300, 256, 2)
        right = random_boxes(rng, 300, 256, 2)
        service.ingest("join", left, side="left")
        service.ingest("join", right, side="right")
        single = service.spec("join").build()
        single.update("left", left)
        single.update("right", right)
        assert service.estimate("join").estimate == single.estimate().estimate

    def test_query_argument_validation(self, rng):
        service = _service()
        service.ingest("join", random_boxes(rng, 10, 256, 2))
        with pytest.raises(ServiceError):
            service.estimate("join", BoxSet((0, 0), (10, 10)))
        service.register("rq", family="range", domain=(256, 256),
                         num_instances=8, seed=1)
        service.ingest("rq", random_boxes(rng, 10, 256, 2), side="data")
        with pytest.raises(ServiceError):
            service.estimate("rq")  # range estimates need a query

    def test_concurrent_ingest_and_estimate(self, rng):
        service = _service(flush_threshold=64)
        service.ingest("join", random_boxes(rng, 100, 256, 2), side="right")
        batches = [random_boxes(rng, 50, 256, 2) for _ in range(8)]
        errors = []

        def producer():
            try:
                for boxes in batches:
                    service.ingest("join", boxes, side="left")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def consumer():
            try:
                for _ in range(8):
                    service.estimate("join")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=producer),
                   threading.Thread(target=consumer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        service.flush()
        assert service.estimate("join").left_count == 400


class TestSnapshots:
    def test_dict_round_trip_preserves_estimates(self, rng):
        service = _service()
        service.ingest("join", random_boxes(rng, 120, 256, 2), side="left")
        service.ingest("join", random_boxes(rng, 120, 256, 2), side="right")
        expected = service.estimate("join").estimate
        # The tensor tree survives a JSON hop (tensors as nested lists).
        blob = json.dumps(service.snapshot(), default=json_default)
        restored = restore_service(json.loads(blob))
        assert restored.estimate("join").estimate == expected

    def test_file_round_trip_and_resume(self, rng, tmp_path):
        path = tmp_path / "svc.json"
        service = _service()
        first = random_boxes(rng, 80, 256, 2)
        service.ingest("join", first, side="left")
        service.save(path)

        restored = EstimationService.load(path)
        later = random_boxes(rng, 40, 256, 2)
        restored.ingest("join", later, side="left")
        # The restored service keeps accepting updates and stays exact.
        single = restored.spec("join").build()
        single.update("left", first.concat(later))
        merged = restored.merged_view("join")
        assert merged.left_count == 120
        for word in single.side_bank("left").words:
            assert np.array_equal(merged.side_bank("left").counter(word),
                                  single.side_bank("left").counter(word))

    def test_snapshot_includes_pending_updates(self, rng, tmp_path):
        service = _service(flush_threshold=None)
        service.ingest("join", random_boxes(rng, 30, 256, 2))
        state = service.snapshot()  # flushes first
        restored = restore_service(state)
        assert restored.estimate("join").left_count == 30

    def test_malformed_snapshot_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            restore_service({"format": "something-else"})
        with pytest.raises(SnapshotError):
            restore_service({"num_shards": 2})  # missing estimators
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SnapshotError):
            EstimationService.load(path)

    def test_snapshot_version_guard(self):
        with pytest.raises(SnapshotError):
            restore_service({"format": "repro.service.snapshot",
                             "snapshot_version": 99,
                             "num_shards": 2, "estimators": {}})

    def test_bare_store_snapshot_restores(self, rng, tmp_path):
        service = _service()
        service.ingest("join", random_boxes(rng, 10, 256, 2))
        service.flush()
        path = tmp_path / "store.snap"
        write_binary_snapshot_state(store_snapshot(service.store), path)
        assert EstimationService.load(path).estimate("join").left_count == 10


class TestStreamIngest:
    def test_stream_replay_matches_final_state(self, rng):
        """After inserts+deletes, the sketch equals one over the survivors."""
        domain = Domain.square(256, dimension=2)
        data = synthetic_boxes(domain, 400, seed=9)
        stream = UpdateStream(data, delete_fraction=0.3, seed=4)

        service = _service(flush_threshold=128)
        for kind, boxes in stream.batches(64):
            service.ingest("join", boxes, side="left", kind=kind)

        single = service.spec("join").build()
        final = stream.final_state()
        single.update("left", final)
        merged = service.merged_view("join")
        assert merged.left_count == len(final) == 400 - round(0.3 * 400)
        for word in single.side_bank("left").words:
            assert np.array_equal(merged.side_bank("left").counter(word),
                                  single.side_bank("left").counter(word))

    def test_synthetic_boxes_shapes(self):
        domain = Domain.square(128, dimension=3)
        boxes = synthetic_boxes(domain, 100, seed=1)
        assert len(boxes) == 100 and boxes.dimension == 3
        domain.validate_boxes(boxes)
        points = synthetic_boxes(domain, 10, seed=1, degenerate=True)
        assert np.array_equal(points.lows, points.highs)
        with pytest.raises(ServiceError):
            synthetic_boxes(domain, -1)
