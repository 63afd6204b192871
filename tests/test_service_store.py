"""Tests for the sharded sketch store: routing, exact merging, views."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.errors import ServiceError
from repro.geometry.boxset import BoxSet
from repro.service.specs import EstimatorSpec, apply_update
from repro.service.store import ShardedSketchStore, partition_boxes, shard_ids

from tests.conftest import random_boxes

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _degenerate(boxes):
    from repro.geometry.boxset import BoxSet

    return BoxSet(boxes.lows, boxes.lows.copy(), validate=False)


#: (family, domain sizes, options) for every estimator family in the registry.
ALL_FAMILY_SPECS = [
    ("interval", (256,), {}),
    ("rectangle", (256, 256), {}),
    ("hyperrect", (64, 64, 64), {}),
    ("extended_overlap", (256, 256), {}),
    ("common_endpoint", (256, 256), {}),
    ("containment", (256, 256), {}),
    ("epsilon", (256, 256), {"epsilon": 3}),
    ("range", (256, 256), {}),
]


def _make_spec(family, sizes, options, *, num_instances=16, seed=11):
    return EstimatorSpec.create(family, sizes, num_instances, seed=seed, **options)


def _family_data(rng, family, sizes, count):
    boxes = random_boxes(rng, count, sizes[0], len(sizes))
    if family == "epsilon":
        return _degenerate(boxes)
    return boxes


def _all_banks(estimator):
    """The underlying SketchBanks of any estimator family, by declared side."""
    banks = [(side.name, estimator.side_bank(side.name))
             for side in type(estimator).SIDES]
    assert banks, f"{type(estimator).__name__} declares no sides"
    return banks


class TestRouting:
    def test_shard_ids_deterministic_and_in_range(self, rng):
        boxes = random_boxes(rng, 500, 256, 2)
        ids_a = shard_ids(boxes, 4)
        ids_b = shard_ids(boxes, 4)
        assert np.array_equal(ids_a, ids_b)
        assert ids_a.min() >= 0 and ids_a.max() < 4

    def test_same_box_always_same_shard(self, rng):
        boxes = random_boxes(rng, 50, 256, 2)
        doubled = boxes.concat(boxes)
        ids = shard_ids(doubled, 8)
        assert np.array_equal(ids[:50], ids[50:])

    def test_shard_ids_follow_the_box_not_its_row(self, rng):
        boxes = random_boxes(rng, 200, 256, 2)
        order = rng.permutation(200)
        shuffled = BoxSet(boxes.lows[order], boxes.highs[order])
        assert np.array_equal(shard_ids(shuffled, 5), shard_ids(boxes, 5)[order])

    def test_shard_ids_are_process_independent(self, rng):
        """A router and its workers run in separate processes: the split
        must not depend on per-process state such as string-hash salting."""
        boxes = random_boxes(rng, 100, 256, 2)
        script = (
            "import json, sys\n"
            "from repro.geometry.boxset import BoxSet\n"
            "from repro.service.store import shard_ids\n"
            "lows, highs = json.load(sys.stdin)\n"
            "print(json.dumps(shard_ids(BoxSet(lows, highs), 7).tolist()))\n")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=60,
            input=json.dumps([boxes.lows.tolist(), boxes.highs.tolist()]),
            capture_output=True, text=True)
        assert json.loads(out.stdout) == shard_ids(boxes, 7).tolist()

    def test_routing_spreads_load(self, rng):
        boxes = random_boxes(rng, 2000, 1024, 2)
        counts = np.bincount(shard_ids(boxes, 4), minlength=4)
        # A uniform hash should land far away from all-on-one-shard.
        assert counts.min() > 0
        assert counts.max() < 2000 * 0.5

    def test_single_shard_short_circuit(self, rng):
        boxes = random_boxes(rng, 10, 256, 1)
        assert np.array_equal(shard_ids(boxes, 1), np.zeros(10, dtype=np.int64))

    def test_partition_covers_everything(self, rng):
        boxes = random_boxes(rng, 300, 256, 2)
        parts = partition_boxes(boxes, 4)
        assert sum(len(p) for p in parts if p is not None) == len(boxes)

    def test_invalid_shard_count(self, rng):
        with pytest.raises(ServiceError):
            shard_ids(random_boxes(rng, 3, 256, 1), 0)


class TestShardedStore:
    @pytest.mark.parametrize("family,sizes,options", ALL_FAMILY_SPECS,
                             ids=[f[0] for f in ALL_FAMILY_SPECS])
    def test_sharded_equals_unsharded_bit_identical(self, rng, family, sizes, options):
        """The acceptance criterion: 4 shards merge to the unsharded sketch.

        Counter updates are integer-valued, so float64 accumulation is exact
        and the equality is bit-for-bit, not approximate.
        """
        spec = _make_spec(family, sizes, options)
        store = ShardedSketchStore(4)
        store.register("est", spec)

        single = spec.build()
        for side in spec.info.sides:
            data = _family_data(rng, family, sizes, 200)
            store.apply("est", side, "insert", data)
            apply_update(spec, single, side, "insert", data)
            # ... and exercise the delete path with a subset.
            removed = data[np.arange(0, len(data), 3)]
            store.apply("est", side, "delete", removed)
            apply_update(spec, single, side, "delete", removed)

        merged = store.merge_view("est")
        for (attr, merged_bank), (_, single_bank) in zip(_all_banks(merged),
                                                         _all_banks(single),
                                                         strict=True):
            assert single_bank.words and single_bank.counter_tensor.any(), attr
            for word in single_bank.words:
                assert np.array_equal(merged_bank.word_cells(word).sum(axis=1),
                                      single_bank.word_cells(word).sum(axis=1)), (attr, word)

        query = None
        if spec.info.queryable:
            query = random_boxes(rng, 1, sizes[0], len(sizes))
        merged_result = merged.estimate(query)
        single_result = single.estimate(query)
        assert merged_result.estimate == single_result.estimate
        assert merged_result.left_count == single_result.left_count
        assert merged_result.right_count == single_result.right_count

    def test_merge_view_is_a_snapshot(self, rng):
        spec = _make_spec("rectangle", (256, 256), {})
        store = ShardedSketchStore(3)
        store.register("est", spec)
        data = random_boxes(rng, 100, 256, 2)
        store.apply("est", "left", "insert", data)
        view = store.merge_view("est")
        bank = view.side_bank("left")
        before = bank.word_cells(bank.words[0]).sum(axis=1)
        store.apply("est", "left", "insert", random_boxes(rng, 50, 256, 2))
        assert np.array_equal(bank.word_cells(bank.words[0]).sum(axis=1), before)

    def test_version_bumps_on_updates(self, rng):
        store = ShardedSketchStore(2)
        store.register("est", _make_spec("rectangle", (256, 256), {}))
        assert store.version("est") == 0
        store.apply("est", "left", "insert", random_boxes(rng, 10, 256, 2))
        assert store.version("est") == 1
        from repro.geometry.boxset import BoxSet

        store.apply("est", "left", "insert", BoxSet.empty(2))
        assert store.version("est") == 1  # empty batches are no-ops

    def test_duplicate_registration_rejected(self):
        store = ShardedSketchStore(2)
        spec = _make_spec("rectangle", (256, 256), {})
        store.register("est", spec)
        with pytest.raises(ServiceError):
            store.register("est", spec)

    def test_unknown_name_rejected(self, rng):
        store = ShardedSketchStore(2)
        with pytest.raises(ServiceError):
            store.apply("nope", "left", "insert", random_boxes(rng, 3, 256, 2))
        with pytest.raises(ServiceError):
            store.merge_view("nope")

    def test_unknown_side_and_kind_rejected(self, rng):
        store = ShardedSketchStore(2)
        store.register("est", _make_spec("rectangle", (256, 256), {}))
        data = random_boxes(rng, 3, 256, 2)
        with pytest.raises(ServiceError):
            store.apply("est", "middle", "insert", data)
        with pytest.raises(ServiceError):
            store.apply("est", "left", "upsert", data)

    def test_containment_side_aliases(self, rng):
        store = ShardedSketchStore(2)
        store.register("est", _make_spec("containment", (256, 256), {}))
        data = random_boxes(rng, 20, 256, 2)
        store.apply("est", "left", "insert", data)   # alias for "outer"
        store.apply("est", "inner", "insert", data)
        view = store.merge_view("est")
        state = view.state_dict()
        assert state["outer_count"] == 20 and state["inner_count"] == 20

    def test_merged_view_estimates(self, rng):
        store = ShardedSketchStore(4)
        store.register("est", _make_spec("rectangle", (256, 256),
                                         {}, num_instances=32))
        store.apply("est", "left", "insert", random_boxes(rng, 100, 256, 2))
        store.apply("est", "right", "insert", random_boxes(rng, 100, 256, 2))
        result = store.merge_view("est").estimate()
        assert result.left_count == 100 and result.right_count == 100

    def test_unregister(self, rng):
        store = ShardedSketchStore(2)
        store.register("est", _make_spec("rectangle", (256, 256), {}))
        store.unregister("est")
        assert "est" not in store
        with pytest.raises(ServiceError):
            store.unregister("est")


class TestSpecs:
    def test_spec_round_trip(self):
        for family, sizes, options in ALL_FAMILY_SPECS:
            spec = _make_spec(family, sizes, options)
            assert EstimatorSpec.from_dict(spec.to_dict()) == spec

    def test_spec_from_domain_preserves_max_level(self):
        domain = Domain((256, 256), max_levels=4)
        spec = EstimatorSpec.create("rectangle", domain, 8)
        assert spec.domain().signature() == domain.signature()

    def test_unknown_family_rejected(self):
        with pytest.raises(ServiceError):
            EstimatorSpec.create("voronoi", (256,), 8)

    def test_unknown_option_rejected(self):
        with pytest.raises(ServiceError):
            EstimatorSpec.create("rectangle", (256, 256), 8, wibble=3)

    def test_missing_required_option_rejected(self):
        with pytest.raises(ServiceError):
            EstimatorSpec.create("epsilon", (256, 256), 8)

    def test_bad_endpoint_policy_rejected(self):
        with pytest.raises(ServiceError):
            EstimatorSpec.create("rectangle", (256, 256), 8,
                                 endpoint_policy="sometimes")

    def test_shared_seed_specs_build_merge_compatible_estimators(self, rng):
        spec = _make_spec("rectangle", (256, 256), {})
        first, second = spec.build(), spec.build()
        first.update("left", random_boxes(rng, 10, 256, 2))
        second.update("left", random_boxes(rng, 10, 256, 2))
        first.merge(second)  # must not raise
        assert first.left_count == 20


class TestDeltaPropagation:
    """Delta-applied merged views: O(delta) refresh, bit-identical results."""

    @staticmethod
    def _run_rounds(family, sizes, options, *, delta_propagation, seed,
                    rounds=4, inserts=40, deletions=5):
        from repro.service.service import EstimationService

        rng = np.random.default_rng(seed)
        service = EstimationService(num_shards=3, flush_threshold=None,
                                    delta_propagation=delta_propagation)
        spec = _make_spec(family, sizes, options)
        service.register("est", spec)
        query = None
        if spec.info.queryable:
            query = random_boxes(rng, 1, sizes[0], len(sizes))
        outputs = []
        for round_index in range(rounds):
            for side in spec.info.sides:
                data = _family_data(rng, family, sizes, inserts)
                service.ingest("est", data, side=side)
                if round_index % 2 == 1 and deletions:
                    service.ingest("est", data[:deletions], side=side,
                                   kind="delete")
            service.flush()
            result = service.estimate("est", query)
            outputs.append((result.estimate,
                            result.instance_values.tobytes(),
                            result.left_count, result.right_count))
        return outputs, service

    @pytest.mark.parametrize("family,sizes,options", ALL_FAMILY_SPECS,
                             ids=[f[0] for f in ALL_FAMILY_SPECS])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_delta_applied_views_bit_identical(self, family, sizes, options,
                                               seed):
        """Interleaved flushes + deletions: delta on == delta off, bit for bit.

        Counter updates are exact integers in float64, so the fused
        ``base + delta`` tensor add reproduces the full shard re-merge
        exactly — including the instance-value vectors, not just the
        boosted estimates.
        """
        with_delta, on = self._run_rounds(family, sizes, options,
                                          delta_propagation=True, seed=seed)
        without_delta, off = self._run_rounds(family, sizes, options,
                                              delta_propagation=False,
                                              seed=seed)
        assert with_delta == without_delta
        # Round 1 rebuilds (cold name); every later refresh delta-applies.
        assert on.stats.delta_applies == len(with_delta) - 1
        assert on.stats.rebuilds == 1
        assert off.stats.delta_applies == 0
        assert off.stats.rebuilds == len(without_delta)
        for stats in (on.stats, off.stats):
            assert stats.delta_applies + stats.rebuilds == stats.cache_misses

    @staticmethod
    def _watched(service):
        return service.describe()["delta_watches"]

    def test_view_delta_roundtrip_and_drop_semantics(self, rng):
        from repro.service.service import EstimationService

        spec = _make_spec("rectangle", (256, 256), {})
        service = EstimationService(num_shards=2, flush_threshold=None)
        service.register("est", spec)
        assert self._watched(service) == []  # no cached view, no delta

        first = service.merged_view("est")
        assert self._watched(service) == ["est"]
        data = random_boxes(rng, 30, 256, 2)
        service.ingest("est", data, side="left")
        service.flush()
        assert self._watched(service) == ["est"]  # fed, still covering
        refreshed = service.merged_view("est")
        assert refreshed.left_count == first.left_count + 30
        assert (service.stats.delta_applies, service.stats.rebuilds) == (1, 1)
        # The refreshed view starts a fresh delta of its own.
        assert self._watched(service) == ["est"]

        # A mutation the service did not feed leaves the delta behind the
        # store version: no longer a watch, and the next miss rebuilds.
        service.store.apply("est", "left", "insert", data)
        assert self._watched(service) == []
        service.ingest("est", data, side="left")
        service.flush()
        assert self._watched(service) == []  # feeding cannot close the gap
        assert service.merged_view("est").left_count == first.left_count + 90
        assert (service.stats.delta_applies, service.stats.rebuilds) == (1, 2)

        service.unregister("est")
        assert self._watched(service) == []
        service.register("est", _make_spec("rectangle", (256, 256), {}, seed=12))
        service.ingest("est", data, side="left")
        assert service.merged_view("est").left_count == 30
        assert (service.stats.delta_applies, service.stats.rebuilds) == (1, 3)

    def test_budget_overflow_drops_watch(self, rng, monkeypatch):
        import repro.service.delta as delta_module
        from repro.service.service import EstimationService

        monkeypatch.setattr(delta_module, "DELTA_BOX_BUDGET", 50)
        service = EstimationService(num_shards=2, flush_threshold=None)
        service.register("est", _make_spec("rectangle", (256, 256), {}))
        service.merged_view("est")
        service.ingest("est", random_boxes(rng, 40, 256, 2), side="left")
        service.flush()
        assert self._watched(service) == ["est"]
        service.ingest("est", random_boxes(rng, 40, 256, 2), side="left")
        service.flush()
        assert self._watched(service) == []  # cached-but-unqueried cap hit
        assert service.merged_view("est").left_count == 80
        assert (service.stats.delta_applies, service.stats.rebuilds) == (0, 2)

    def test_eviction_unwatches_and_falls_back_to_rebuild(self, rng,
                                                          monkeypatch):
        import repro.service.service as service_module

        monkeypatch.setattr(service_module, "VIEW_CACHE_SIZE", 1)
        service = service_module.EstimationService(
            num_shards=2, flush_threshold=None, delta_propagation=True)
        for name in ("a", "b"):
            service.register(name, _make_spec("rectangle", (256, 256), {}))
            service.ingest(name, random_boxes(rng, 20, 256, 2), side="left")
            service.ingest(name, random_boxes(rng, 20, 256, 2), side="right")
        service.flush()
        service.estimate("a")
        assert self._watched(service) == ["a"]
        service.estimate("b")  # evicts "a" from the single-entry cache
        assert self._watched(service) == ["b"]
        assert service.stats.evictions == 1
        # "a" lost both its cached view and its delta: next refresh rebuilds.
        service.ingest("a", random_boxes(rng, 10, 256, 2), side="left")
        service.flush()
        service.estimate("a")
        assert service.stats.delta_applies == 0
        assert service.stats.rebuilds == service.stats.cache_misses

    def test_direct_store_mutation_falls_back_to_rebuild(self, rng):
        """Mutations that bypass the flush path must not poison the cache."""
        from repro.service.service import EstimationService

        service = EstimationService(num_shards=2, flush_threshold=None,
                                    delta_propagation=True)
        service.register("est", _make_spec("rectangle", (256, 256), {}))
        service.ingest("est", random_boxes(rng, 30, 256, 2), side="left")
        service.flush()
        first = service.estimate("est")
        assert service.stats.rebuilds == 1

        extra = random_boxes(rng, 25, 256, 2)
        service.store.apply("est", "left", "insert", extra)  # no delta recorded
        refreshed = service.estimate("est")
        assert service.stats.rebuilds == 2  # fell back, no stale delta-apply
        assert service.stats.delta_applies == 0
        assert refreshed.left_count == first.left_count + len(extra)
