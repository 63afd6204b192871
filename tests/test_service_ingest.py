"""Tests for the batched ingestion pipeline."""

import threading

import numpy as np
import pytest

from repro.errors import ReproError, ServiceError
from repro.geometry.boxset import BoxSet
from repro.service import EstimationService
from repro.service.ingest import IngestPipeline
from repro.service.specs import (
    EstimatorSpec,
    apply_update,
    check_update,
    shrunk_sides,
)
from repro.service.store import ShardedSketchStore, partition_boxes
from repro.wal import WalWriter, decode_payload, read_wal

from tests.conftest import random_boxes


def _store(num_shards=4, **spec_kwargs):
    store = ShardedSketchStore(num_shards)
    store.register("est", EstimatorSpec.create(
        "rectangle", (256, 256), spec_kwargs.pop("num_instances", 16), seed=5))
    return store


class TestBuffering:
    def test_submit_does_not_touch_shards(self, rng):
        store = _store()
        pipeline = IngestPipeline(store)
        pipeline.submit("est", random_boxes(rng, 50, 256, 2))
        assert pipeline.pending == 50
        for estimator in store.shard_estimators("est"):
            assert estimator.left_count == 0
        assert store.version("est") == 0

    def test_flush_applies_and_clears(self, rng):
        store = _store()
        pipeline = IngestPipeline(store)
        pipeline.submit("est", random_boxes(rng, 50, 256, 2))
        report = pipeline.flush()
        assert report.boxes == 50
        assert pipeline.pending == 0
        assert sum(e.left_count for e in store.shard_estimators("est")) == 50
        assert store.version("est") == 1
        assert not pipeline.flush()  # nothing left

    def test_empty_batches_ignored(self):
        pipeline = IngestPipeline(_store())
        pipeline.submit("est", BoxSet.empty(2))
        assert pipeline.pending == 0

    def test_auto_flush_threshold(self, rng):
        """The pipeline only buffers; the owning service flushes once the
        buffered count reaches its threshold."""
        service = EstimationService(num_shards=4, flush_threshold=64)
        service.register("est", family="rectangle", domain=(256, 256),
                         num_instances=16, seed=5)
        service.ingest("est", random_boxes(rng, 63, 256, 2))
        assert service.pending == 63
        service.ingest("est", random_boxes(rng, 1, 256, 2))
        assert service.pending == 0
        assert service.describe()["ingest"]["auto_flushes"] == 1

    def test_flush_threshold_must_be_positive(self):
        with pytest.raises(ServiceError):
            EstimationService(flush_threshold=0)

    def test_bad_inputs_rejected(self, rng):
        service = EstimationService(num_shards=4, flush_threshold=None)
        service.register("est", family="rectangle", domain=(256, 256),
                         num_instances=16, seed=5)
        with pytest.raises(ServiceError):
            service.ingest("nope", random_boxes(rng, 3, 256, 2))
        with pytest.raises(ServiceError):
            service.ingest("est", random_boxes(rng, 3, 256, 2), kind="upsert")
        with pytest.raises(ServiceError):
            service.ingest("est", random_boxes(rng, 3, 256, 2), side="top")
        assert service.pending == 0

    def test_submit_still_refuses_an_unknown_name(self, rng):
        """The pipeline trusts its caller's check, but not a name the
        store does not hold."""
        pipeline = IngestPipeline(_store())
        with pytest.raises(ServiceError, match="unknown estimator"):
            pipeline.submit("nope", random_boxes(rng, 3, 256, 2))
        assert pipeline.pending == 0

    def test_a_batch_the_flush_would_refuse_is_refused_at_submit(self, rng):
        """Out-of-domain coordinates and boxes on a point side used to be
        buffered, then raise half-way through the flush and drop every
        other buffered box with them."""
        service = EstimationService(num_shards=4, flush_threshold=None)
        for name in ("a", "b"):
            service.register(name, family="range", domain=(64, 64),
                             num_instances=8, seed=1)
        service.register("eps", family="epsilon", domain=(64, 64),
                         num_instances=8, seed=2, epsilon=1)
        service.ingest("b", random_boxes(rng, 4, 64, 2), side="data")
        good = random_boxes(rng, 4, 64, 2)
        highs = good.highs.copy()
        highs[1, 0] = 64
        with pytest.raises(ServiceError, match="outside the domain"):
            service.ingest("a", BoxSet(good.lows, highs), side="data")
        with pytest.raises(ServiceError, match="takes points"):
            service.ingest("eps", good, side="left")
        with pytest.raises(ServiceError, match="1-dimensional"):
            service.ingest("a", random_boxes(rng, 2, 64, 1), side="data")
        assert service.pending == 4
        assert service.flush().boxes == 4
        assert service.merged_view("b").count == 4


def _refused_write(case: str, rng) -> tuple[str, BoxSet, str, str]:
    """``(name, boxes, side, kind)`` of one write the service refuses."""
    good = random_boxes(rng, 4, 64, 2)
    if case == "unknown name":
        return "nope", good, "data", "insert"
    if case == "bad kind":
        return "rq", good, "data", "upsert"
    if case == "unknown side":
        return "rq", good, "top", "insert"
    if case == "out of domain":
        highs = good.highs.copy()
        highs[1, 0] = 64
        return "rq", BoxSet(good.lows, highs), "data", "insert"
    if case == "inverted box":
        return "rq", BoxSet(good.highs, good.lows, validate=False), "data", \
            "insert"
    assert case == "box on a point side"
    return "eps", good, "left", "insert"


@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "wal"])
@pytest.mark.parametrize("case", [
    "unknown name", "bad kind", "unknown side", "out of domain",
    "inverted box", "box on a point side"])
def test_a_refused_write_changes_nothing(tmp_path, rng, case, durable):
    """A write ``check_update`` refuses leaves the buffer, the ingest count
    and the log as they were, whether or not a WAL is attached."""
    service = EstimationService(num_shards=2, flush_threshold=None)
    if durable:
        service.attach_wal(WalWriter(tmp_path / "wal", sync="none"))
    try:
        service.register("rq", family="range", domain=(64, 64),
                         num_instances=8, seed=1)
        service.register("eps", family="epsilon", domain=(64, 64),
                         num_instances=8, seed=2, epsilon=1)
        service.ingest("rq", random_boxes(rng, 4, 64, 2), side="data")

        def state():
            return (service.pending, service.stats.ingested_boxes,
                    service.wal.last_seqno if durable else None)

        before = state()
        name, boxes, side, kind = _refused_write(case, rng)
        with pytest.raises(ServiceError):
            service.ingest(name, boxes, side=side, kind=kind)
        assert state() == before
        assert service.flush().boxes == 4
    finally:
        service.detach_wal()


class TestUnregisterRacingIngest:
    """An ``unregister`` racing an ``ingest`` lands wholly before or wholly
    after it, on the volatile and on the WAL path.

    Each test hooks the store's name lookup: the ingest's first lookup of
    ``a`` starts the racing steps on a second thread and gives them
    ``RACE_WAIT`` seconds before it returns.  While the ingest holds the
    service lock from its check to its buffer, those steps wait for it;
    when it does not, they run between the check and the buffer.
    """

    RACE_WAIT = 0.5

    @staticmethod
    def _service(tmp_path=None):
        service = EstimationService(num_shards=2, flush_threshold=None)
        if tmp_path is not None:
            service.attach_wal(WalWriter(tmp_path / "wal", sync="none"))
        for seed, name in enumerate("ab"):
            service.register(name, family="rectangle", domain=(64, 64),
                             num_instances=8, seed=seed)
        return service

    def _race(self, monkeypatch, service, *steps):
        """Run ``steps`` on a second thread at the next lookup of ``a``;
        returns a call that waits for them and raises what they raised."""
        store = service.store
        lookup = store.spec
        threads, errors = [], []

        def run():
            try:
                for step in steps:
                    step()
            except Exception as exc:  # handed to the test thread by finish()
                errors.append(exc)

        def hooked(name):
            spec = lookup(name)
            if name == "a" and not threads:
                threads.append(threading.Thread(target=run))
                threads[0].start()
                threads[0].join(self.RACE_WAIT)
            return spec

        def finish():
            threads[0].join(10)
            assert not threads[0].is_alive()
            if errors:
                raise errors[0]

        monkeypatch.setattr(store, "spec", hooked)
        return finish

    def test_a_batch_acked_behind_an_unregistered_name_is_applied(
            self, monkeypatch, rng):
        service = self._service()
        finish = self._race(monkeypatch, service, lambda: service.unregister("a"))
        service.ingest("a", random_boxes(rng, 10, 64, 2))
        service.ingest("b", random_boxes(rng, 10, 64, 2))
        finish()
        service.flush()
        assert service.names() == ["b"]
        assert service.merged_view("b").left_count == 10

    def test_a_name_registered_again_starts_empty(self, monkeypatch, rng):
        service = self._service()
        spec = service.store.spec("a")
        finish = self._race(monkeypatch, service, lambda: service.unregister("a"),
                            lambda: service.register("a", spec))
        service.ingest("a", random_boxes(rng, 10, 64, 2))
        finish()
        service.flush()
        assert service.merged_view("a").left_count == 0

    def test_no_update_is_logged_after_its_name_is_unregistered(
            self, monkeypatch, rng, tmp_path):
        service = self._service(tmp_path)
        finish = self._race(monkeypatch, service, lambda: service.unregister("a"))
        try:
            service.ingest("a", random_boxes(rng, 10, 64, 2))
        except ServiceError:
            pass  # refused: the unregister came first
        finish()
        service.detach_wal()
        live, late = set(), []
        for _seqno, payload in read_wal(tmp_path / "wal")[0]:
            event = decode_payload(payload)
            if event["type"] == "register":
                live.add(event["name"])
            elif event["type"] == "unregister":
                live.discard(event["name"])
            elif event["name"] not in live:
                late.append(event["name"])
        assert late == []


class TestExactness:
    def _reference(self, spec, batches):
        single = spec.build()
        for side, kind, boxes in batches:
            single.update(side, boxes, -1.0 if kind == "delete" else 1.0)
        return single

    def test_buffered_mixed_ops_match_direct_application(self, rng):
        """Regrouping inserts/deletes inside a flush must be lossless."""
        store = _store()
        spec = store.spec("est")
        pipeline = IngestPipeline(store)
        batches = []
        for index in range(6):
            boxes = random_boxes(rng, 40, 256, 2)
            side = "left" if index % 2 == 0 else "right"
            batches.append((side, "insert", boxes))
            if index >= 2:
                removed = boxes[np.arange(0, len(boxes), 4)]
                batches.append((side, "delete", removed))
        for side, kind, boxes in batches:
            pipeline.submit("est", boxes, side=side, kind=kind)
        pipeline.flush()

        single = self._reference(spec, batches)
        merged = store.merge_view("est")
        for word in single.side_bank("left").words:
            assert np.array_equal(merged.side_bank("left").counter(word),
                                  single.side_bank("left").counter(word))
        for word in single.side_bank("right").words:
            assert np.array_equal(merged.side_bank("right").counter(word),
                                  single.side_bank("right").counter(word))
        assert merged.left_count == single.left_count
        assert merged.right_count == single.right_count

    def test_flush_is_independent_of_shard_order(self, rng):
        """No two shards share state: a flush equals applying the same
        per-shard parts directly, last shard first."""
        batches = [random_boxes(rng, 80, 256, 2) for _ in range(5)]
        flushed = _store()
        pipeline = IngestPipeline(flushed)
        for boxes in batches:
            pipeline.submit("est", boxes)
        report = pipeline.flush()
        assert report.boxes == sum(len(b) for b in batches)

        backwards = _store()
        spec = backwards.spec("est")
        shards = backwards.shard_estimators("est")
        parts = [partition_boxes(boxes, len(shards)) for boxes in batches]
        for shard in reversed(range(len(shards))):
            for batch in parts:
                if batch[shard] is not None:
                    apply_update(spec, shards[shard], "left", "insert",
                                 batch[shard])

        for ours, theirs in zip(flushed.shard_estimators("est"),
                                backwards.shard_estimators("est")):
            assert np.array_equal(ours.side_bank("left").counter_tensor,
                                  theirs.side_bank("left").counter_tensor)
        assert np.array_equal(
            flushed.merge_view("est").side_bank("left").counter_tensor,
            backwards.merge_view("est").side_bank("left").counter_tensor)

    def test_flush_report_contents(self, rng):
        store = ShardedSketchStore(2)
        for name in ("a", "b"):
            store.register(name, EstimatorSpec.create("range", (256,), 8, seed=3))
        pipeline = IngestPipeline(store)
        pipeline.submit("a", random_boxes(rng, 30, 256, 1), side="data")
        pipeline.submit("b", random_boxes(rng, 20, 256, 1), side="data")
        pipeline.submit("a", random_boxes(rng, 5, 256, 1), side="data",
                        kind="delete")
        pipeline.submit("a", random_boxes(rng, 10, 256, 1), side="data")
        report = pipeline.flush()
        assert report.boxes == 65
        assert bool(report)
        # One entry per destination, its batches concatenated in arrival
        # order; each destination splits into at most one batch per shard.
        assert [(name, side, kind, len(boxes))
                for name, side, kind, boxes in report.updates] == [
            ("a", "data", "delete", 5), ("a", "data", "insert", 40),
            ("b", "data", "insert", 20)]
        assert 3 <= report.batches <= 3 * store.num_shards
        assert pipeline.stats.flushed_batches == report.batches


#: Every family with a box side, with and without the options that switch
#: the endpoint transform on or off.
ZERO_EXTENT_SPECS = [
    ("interval", (64,), {}), ("interval", (64,), {"endpoint_policy": "explicit"}),
    ("rectangle", (64, 64), {}),
    ("rectangle", (64, 64), {"endpoint_policy": "assume_distinct"}),
    ("hyperrect", (16, 16, 16), {}), ("extended_overlap", (64, 64), {}),
    ("common_endpoint", (64, 64), {}), ("containment", (64, 64), {}),
    ("range", (64, 64), {}), ("range", (64, 64), {"strict": True}),
]


@pytest.mark.parametrize("family, sizes, options", ZERO_EXTENT_SPECS)
def test_a_zero_extent_is_refused_exactly_where_it_cannot_be_applied(
        family, sizes, options):
    """``check_update``'s verdict on a box with lo == hi in one dimension
    is the estimator's own: refused on a side whose update would fail,
    accepted where the update goes through."""
    spec = EstimatorSpec.create(family, sizes, 4, seed=1, **options)
    highs = np.full((1, len(sizes)), 7)
    highs[0, 0] = 3
    flat = BoxSet(np.full((1, len(sizes)), 3), highs)
    verdicts = {}
    for side in spec.info.sides:
        if side in spec.info.point_sides:
            continue
        try:
            check_update(spec, side, "insert", flat)
        except ServiceError:
            verdicts[side] = "refused"
            with pytest.raises(ReproError):
                apply_update(spec, spec.build(), side, "insert", flat)
        else:
            verdicts[side] = "applied"
            apply_update(spec, spec.build(), side, "insert", flat)
    assert verdicts
    assert {side for side, verdict in verdicts.items()
            if verdict == "refused"} == shrunk_sides(spec)
