"""Tests for the mini spatial query engine."""

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.data import synthetic
from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.operators import (
    IndexNestedLoopJoin,
    NestedLoopJoin,
    PlaneSweepJoin,
    RangeScan,
    RTreeJoin,
)
from repro.engine.optimizer import Optimizer
from repro.engine.query import JoinQuery, RangeQuery
from repro.engine.relation import SpatialRelation
from repro.engine.synopses import SynopsisManager
from repro.errors import EngineError
from repro.exact.range_query import range_query_count
from repro.exact.rectangle_join import brute_force_join_count
from repro.geometry.boxset import BoxSet
from repro.geometry.rectangle import Rect

from tests.conftest import random_boxes


@pytest.fixture
def engine_setup(rng):
    domain = Domain.square(512, dimension=2)
    catalog = Catalog(domain)
    roads = catalog.create("roads", boxes=synthetic.generate_rectangles(300, domain, rng=rng))
    lakes = catalog.create("lakes", boxes=synthetic.generate_rectangles(200, domain, rng=rng))
    parks = catalog.create("parks", boxes=synthetic.generate_rectangles(120, domain,
                                                                        skew=0.8, rng=rng))
    synopses = SynopsisManager(domain.with_max_level(4), num_instances=128, seed=3)
    return domain, catalog, synopses, (roads, lakes, parks)


class TestRelation:
    def test_insert_and_cardinality(self, rng, domain_2d):
        relation = SpatialRelation("items", domain_2d)
        relation.insert(random_boxes(rng, 25, 256, 2))
        assert relation.cardinality == 25

    def test_delete_removes_single_occurrence(self, rng, domain_2d):
        data = random_boxes(rng, 10, 256, 2)
        relation = SpatialRelation("items", domain_2d, boxes=data)
        removed = relation.delete(data[:3])
        assert removed == 3
        assert len(relation) == 7

    def test_delete_missing_object_raises(self, rng, domain_2d):
        relation = SpatialRelation("items", domain_2d, boxes=random_boxes(rng, 5, 256, 2))
        missing = BoxSet(np.array([[1, 1]]), np.array([[2, 2]]))
        with pytest.raises(EngineError):
            relation.delete(missing)

    def test_listeners_receive_mutations(self, rng, domain_2d):
        events = []

        class Recorder:
            def on_insert(self, relation, boxes):
                events.append(("insert", len(boxes)))

            def on_delete(self, relation, boxes):
                events.append(("delete", len(boxes)))

        relation = SpatialRelation("items", domain_2d)
        relation.add_listener(Recorder())
        data = random_boxes(rng, 4, 256, 2)
        relation.insert(data)
        relation.delete(data[:2])
        assert events == [("insert", 4), ("delete", 2)]

    def test_equal_listener_registered_once(self, rng, domain_2d):
        events = []

        class Recorder:
            def __eq__(self, other):
                return isinstance(other, Recorder)

            def on_insert(self, relation, boxes):
                events.append(len(boxes))

            def on_delete(self, relation, boxes):
                pass

        relation = SpatialRelation("items", domain_2d)
        relation.add_listener(Recorder())
        relation.add_listener(Recorder())
        relation.insert(random_boxes(rng, 3, 256, 2))
        assert events == [3]

    def test_out_of_domain_insert_rejected(self, domain_2d):
        relation = SpatialRelation("items", domain_2d)
        with pytest.raises(Exception):
            relation.insert(BoxSet(np.array([[0, 0]]), np.array([[999, 1]])))

    def test_empty_name_rejected(self, domain_2d):
        with pytest.raises(EngineError):
            SpatialRelation("", domain_2d)


class TestCatalog:
    def test_create_get_drop(self, domain_2d):
        catalog = Catalog(domain_2d)
        catalog.create("a")
        assert "a" in catalog
        assert catalog.get("a").name == "a"
        catalog.drop("a")
        assert "a" not in catalog

    def test_duplicate_name_rejected(self, domain_2d):
        catalog = Catalog(domain_2d)
        catalog.create("a")
        with pytest.raises(EngineError):
            catalog.create("a")

    def test_missing_relation(self, domain_2d):
        catalog = Catalog(domain_2d)
        with pytest.raises(EngineError):
            catalog.get("missing")
        with pytest.raises(EngineError):
            catalog.drop("missing")

    def test_names_and_iteration(self, domain_2d):
        catalog = Catalog(domain_2d)
        catalog.create("b")
        catalog.create("a")
        assert catalog.names() == ["a", "b"]
        assert len(catalog) == 2
        assert {relation.name for relation in catalog} == {"a", "b"}


class TestOperators:
    def test_all_join_operators_agree(self, engine_setup):
        _, catalog, _, (roads, lakes, _) = engine_setup
        expected = brute_force_join_count(roads.boxes(), lakes.boxes())
        for operator_cls in (NestedLoopJoin, PlaneSweepJoin, IndexNestedLoopJoin, RTreeJoin):
            result = operator_cls(roads, lakes).execute()
            assert result.cardinality == expected, operator_cls.name

    def test_closed_semantics(self, engine_setup):
        _, catalog, _, (roads, lakes, _) = engine_setup
        strict = NestedLoopJoin(roads, lakes).execute().cardinality
        closed = NestedLoopJoin(roads, lakes, closed=True).execute().cardinality
        assert closed >= strict

    def test_nested_loop_collect_pairs(self, engine_setup):
        _, _, _, (roads, lakes, _) = engine_setup
        result = NestedLoopJoin(roads, lakes).execute(collect_pairs=True)
        assert len(result.pairs) == result.cardinality

    def test_empty_relation_join(self, engine_setup, domain_2d):
        _, catalog, _, (roads, _, _) = engine_setup
        empty = SpatialRelation("empty", roads.domain)
        assert NestedLoopJoin(roads, empty).execute().cardinality == 0

    def test_range_scan(self, engine_setup):
        _, _, _, (roads, _, _) = engine_setup
        window = Rect.from_bounds((100, 100), (300, 260))
        result = RangeScan(roads, window).execute()
        assert result.cardinality == range_query_count(roads.boxes(), window)

    def test_dimension_mismatch_rejected(self, engine_setup):
        domain, *_ = engine_setup
        one_d = SpatialRelation("one", Domain(64))
        two_d = SpatialRelation("two", Domain.square(64, 2))
        with pytest.raises(EngineError):
            NestedLoopJoin(one_d, two_d)


class TestSynopsisManager:
    def test_join_sketch_tracks_mutations(self, engine_setup, rng):
        domain, catalog, synopses, (roads, lakes, _) = engine_setup
        assert synopses.join_sketch(roads, lakes).left_count == len(roads)
        extra = random_boxes(rng, 20, 512, 2)
        roads.insert(extra)
        assert synopses.join_sketch(roads, lakes).left_count == len(roads)
        roads.delete(extra)
        assert synopses.join_sketch(roads, lakes).left_count == len(roads)

    def test_join_sketch_estimate_is_plausible(self, engine_setup):
        _, catalog, synopses, (roads, lakes, _) = engine_setup
        truth = brute_force_join_count(roads.boxes(), lakes.boxes())
        estimate = synopses.estimated_join_cardinality(roads, lakes)
        assert estimate >= 0
        # 128 instances on small data: just require the right order of magnitude.
        assert estimate <= max(20 * truth, len(roads) * len(lakes))

    def test_join_sketch_requires_distinct_relations(self, engine_setup):
        _, _, synopses, (roads, _, _) = engine_setup
        with pytest.raises(EngineError):
            synopses.join_sketch(roads, roads)

    def test_range_sketch_tracks_relation(self, engine_setup, rng):
        _, _, synopses, (roads, _, _) = engine_setup
        before = synopses.range_sketch(roads).count
        roads.insert(random_boxes(rng, 10, 512, 2))
        assert synopses.range_sketch(roads).count == before + 10

    def test_histogram_synopsis(self, engine_setup, rng):
        _, _, synopses, (roads, lakes, _) = engine_setup
        gh_roads = synopses.histogram(roads, "geometric", level=3)
        gh_lakes = synopses.histogram(lakes, "geometric", level=3)
        truth = brute_force_join_count(roads.boxes(), lakes.boxes())
        assert gh_roads.estimate_join(gh_lakes) == pytest.approx(truth, rel=0.8)

    def test_unknown_histogram_kind(self, engine_setup):
        _, _, synopses, (roads, _, _) = engine_setup
        with pytest.raises(EngineError):
            synopses.histogram(roads, "wavelet")


class TestCostModel:
    def test_nested_loop_is_quadratic(self):
        model = CostModel()
        assert model.nested_loop_join(100, 200) == 20_000

    def test_index_join_cheaper_than_nested_loop_for_selective_output(self):
        model = CostModel()
        nested = model.nested_loop_join(10_000, 10_000)
        indexed = model.index_nested_loop_join(10_000, 10_000, estimated_output=1000)
        assert indexed < nested

    def test_costs_are_non_negative(self):
        model = CostModel()
        assert model.plane_sweep_join(0, 0, 0) == 0.0
        assert model.index_nested_loop_join(0, 10, 5) == 0.0
        assert model.rtree_join(10, 10, 0) > 0.0
        assert model.range_scan(42) == 42.0


class TestOptimizer:
    def test_pair_selectivity_in_unit_range(self, engine_setup):
        _, catalog, synopses, (roads, lakes, _) = engine_setup
        optimizer = Optimizer(catalog, synopses)
        selectivity = optimizer.estimated_pair_selectivity(roads, lakes)
        assert 0.0 <= selectivity <= 1.0

    def test_plan_join_enumerates_orders(self, engine_setup):
        _, catalog, synopses, _ = engine_setup
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(relations=("roads", "lakes", "parks")))
        assert set(plan.order) == {"roads", "lakes", "parks"}
        assert len(plan.steps) == 2
        assert plan.estimated_cost > 0

    def test_execute_plan_result_is_order_independent(self, engine_setup):
        import itertools

        _, catalog, synopses, _ = engine_setup
        optimizer = Optimizer(catalog, synopses)
        cardinalities = set()
        for order in itertools.permutations(("roads", "lakes", "parks")):
            plan = optimizer._cost_order(tuple(order))
            cardinalities.add(optimizer.execute_plan(plan).cardinality)
        assert len(cardinalities) == 1

    def test_binary_join_execution_matches_truth(self, engine_setup):
        _, catalog, synopses, (roads, lakes, _) = engine_setup
        optimizer = Optimizer(catalog, synopses)
        truth = brute_force_join_count(roads.boxes(), lakes.boxes())
        result = optimizer.execute_binary_join("roads", "lakes")
        assert result.cardinality == truth

    def test_binary_join_with_named_operator(self, engine_setup):
        _, catalog, synopses, (roads, lakes, _) = engine_setup
        optimizer = Optimizer(catalog, synopses)
        result = optimizer.execute_binary_join("roads", "lakes", operator="rtree_join")
        assert result.operator == "rtree_join"

    def test_unknown_operator_rejected(self, engine_setup):
        _, catalog, synopses, _ = engine_setup
        optimizer = Optimizer(catalog, synopses)
        with pytest.raises(EngineError):
            optimizer.execute_binary_join("roads", "lakes", operator="hash_join")

    def test_plan_and_execute(self, engine_setup):
        _, catalog, synopses, _ = engine_setup
        optimizer = Optimizer(catalog, synopses)
        execution = optimizer.plan_and_execute(JoinQuery(relations=("roads", "parks")))
        truth = brute_force_join_count(catalog.get("roads").boxes(),
                                       catalog.get("parks").boxes())
        assert execution.cardinality == truth

    def test_join_query_validation(self):
        with pytest.raises(ValueError):
            JoinQuery(relations=("solo",))
        with pytest.raises(ValueError):
            JoinQuery(relations=("a", "a"))

    def test_range_query_dataclass(self):
        query = RangeQuery(relation="roads", window=Rect.from_bounds((0, 0), (10, 10)))
        assert query.closed
