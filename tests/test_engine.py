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
    RTreeJoin,
)
from repro.engine.optimizer import Optimizer
from repro.engine.query import JoinQuery
from repro.engine.relation import SpatialRelation
from repro.engine.synopses import SynopsisManager
from repro.errors import EngineError
from repro.exact.rectangle_join import brute_force_join_count
from repro.geometry.boxset import BoxSet
from repro.geometry.predicates import overlap_matrix

from tests.conftest import random_boxes


OPERATORS = (NestedLoopJoin, PlaneSweepJoin, IndexNestedLoopJoin, RTreeJoin)


def _name(operator_cls):
    return operator_cls.name


def _relation_pair(rng, dimension, *, count=60, size=128, allow_degenerate=False):
    domain = Domain.square(size, dimension=dimension)
    left = SpatialRelation("left", domain, boxes=random_boxes(
        rng, count, size, dimension, allow_degenerate=allow_degenerate))
    right = SpatialRelation("right", domain, boxes=random_boxes(
        rng, count + 15, size, dimension, allow_degenerate=allow_degenerate))
    return left, right


def _common_intersection_count(relations, *, closed=False):
    """Tuples (one object per relation) whose boxes share a point: the
    oracle of a left-deep plan's result cardinality."""
    lows = relations[0].boxes().lows
    highs = relations[0].boxes().highs
    for relation in relations[1:]:
        boxes = relation.boxes()
        lows = np.maximum(lows[:, None, :], boxes.lows[None, :, :]).reshape(-1, lows.shape[1])
        highs = np.minimum(highs[:, None, :], boxes.highs[None, :, :]).reshape(-1, highs.shape[1])
    keep = np.all(lows <= highs, axis=1) if closed else np.all(lows < highs, axis=1)
    return int(np.count_nonzero(keep))


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
    def test_create_get(self, domain_2d):
        catalog = Catalog(domain_2d)
        catalog.create("a")
        assert "a" in catalog
        assert catalog.get("a").name == "a"

    def test_duplicate_name_rejected(self, domain_2d):
        catalog = Catalog(domain_2d)
        catalog.create("a")
        with pytest.raises(EngineError):
            catalog.create("a")

    def test_missing_relation(self, domain_2d):
        catalog = Catalog(domain_2d)
        with pytest.raises(EngineError):
            catalog.get("missing")

    def test_create_back_fills_the_given_boxes(self, rng, domain_2d):
        catalog = Catalog(domain_2d)
        data = random_boxes(rng, 12, 256, 2)
        relation = catalog.create("a", boxes=data)
        assert relation.cardinality == 12
        assert np.array_equal(relation.boxes().lows, data.lows)
        assert relation.domain == domain_2d

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

    @pytest.mark.parametrize("operator_cls", OPERATORS, ids=_name)
    def test_closed_join_matches_the_oracle(self, operator_cls, rng):
        left, right = _relation_pair(rng, 2, allow_degenerate=True)
        expected = brute_force_join_count(left.boxes(), right.boxes(), closed=True)
        assert operator_cls(left, right, closed=True).execute().cardinality == expected

    @pytest.mark.parametrize("operator_cls", OPERATORS, ids=_name)
    def test_strict_join_with_shared_coordinates(self, operator_cls, rng):
        # Coordinates snapped to a coarse grid, so many boxes only touch.
        domain = Domain.square(128, dimension=2)
        relations = []
        for name, count in (("left", 70), ("right", 80)):
            raw = random_boxes(rng, count, 128, 2)
            lows = (raw.lows // 8) * 8
            highs = np.minimum(np.maximum((raw.highs // 8) * 8, lows + 8), 127)
            relations.append(SpatialRelation(name, domain, boxes=BoxSet(lows, highs)))
        left, right = relations
        expected = brute_force_join_count(left.boxes(), right.boxes())
        assert expected < brute_force_join_count(left.boxes(), right.boxes(), closed=True)
        assert operator_cls(left, right).execute().cardinality == expected

    @pytest.mark.parametrize("dimension", [1, 3])
    @pytest.mark.parametrize("operator_cls", [NestedLoopJoin, IndexNestedLoopJoin, RTreeJoin],
                             ids=_name)
    def test_non_planar_join_matches_the_oracle(self, operator_cls, dimension, rng):
        left, right = _relation_pair(rng, dimension, size=64)
        expected = int(overlap_matrix(left.boxes(), right.boxes()).sum())
        assert operator_cls(left, right).execute().cardinality == expected

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_plane_sweep_refuses_non_planar_data(self, dimension, rng):
        left, right = _relation_pair(rng, dimension, size=64)
        with pytest.raises(EngineError):
            PlaneSweepJoin(left, right).execute()

    @pytest.mark.parametrize("operator_cls", OPERATORS, ids=_name)
    def test_an_empty_input_costs_no_comparisons(self, operator_cls, rng):
        left, _ = _relation_pair(rng, 2)
        empty = SpatialRelation("empty", left.domain)
        for pair in ((left, empty), (empty, left)):
            result = operator_cls(*pair).execute()
            assert (result.cardinality, result.comparisons) == (0, 0)
            assert result.operator == operator_cls.name

    def test_nested_loop_compares_every_pair(self, rng):
        left, right = _relation_pair(rng, 2)
        result = NestedLoopJoin(left, right).execute(chunk_size=7)
        assert result.comparisons == len(left) * len(right)
        assert result.cardinality == brute_force_join_count(left.boxes(), right.boxes())

    def test_collected_pairs_are_the_overlapping_pairs(self, rng):
        left, right = _relation_pair(rng, 2)
        result = NestedLoopJoin(left, right).execute(collect_pairs=True, chunk_size=16)
        hits = overlap_matrix(left.boxes(), right.boxes())
        assert set(result.pairs) == {(int(i), int(j)) for i, j in zip(*np.nonzero(hits))}
        assert len(result.pairs) == result.cardinality

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

    @pytest.mark.parametrize("method", ["plane_sweep_join", "index_nested_loop_join",
                                        "rtree_join"])
    def test_cost_grows_with_the_estimated_output(self, method):
        cost = getattr(CostModel(), method)
        assert cost(500, 400, 10.0) < cost(500, 400, 10_000.0)
        assert cost(500, 400, -5.0) == cost(500, 400, 0.0)

    @pytest.mark.parametrize("method", ["nested_loop_join", "plane_sweep_join",
                                        "index_nested_loop_join", "rtree_join"])
    def test_cost_grows_with_the_input_size(self, method):
        cost = getattr(CostModel(), method)
        args = (100.0,) if method != "nested_loop_join" else ()
        assert cost(1_000, 1_000, *args) < cost(8_000, 1_000, *args)
        assert cost(1_000, 1_000, *args) < cost(1_000, 8_000, *args)


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

    def test_two_way_plan_executes_to_the_exact_count(self, engine_setup):
        _, catalog, synopses, (roads, lakes, _) = engine_setup
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(relations=("roads", "lakes")))
        expected = brute_force_join_count(roads.boxes(), lakes.boxes())
        assert optimizer.execute_plan(plan).cardinality == expected

    @pytest.mark.parametrize("closed", [False, True])
    def test_three_way_plan_executes_to_the_exact_count(self, engine_setup, closed):
        _, catalog, synopses, relations = engine_setup
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(relations=("roads", "lakes", "parks")))
        execution = optimizer.execute_plan(plan, closed=closed)
        assert execution.cardinality == _common_intersection_count(relations, closed=closed)
        assert execution.comparisons > 0

    def test_a_plan_over_an_empty_relation_returns_nothing(self, engine_setup):
        _, catalog, synopses, _ = engine_setup
        catalog.create("empty")
        optimizer = Optimizer(catalog, synopses)
        assert optimizer.estimated_pair_selectivity(catalog.get("roads"),
                                                    catalog.get("empty")) == 0.0
        plan = optimizer.plan_join(JoinQuery(relations=("roads", "empty")))
        execution = optimizer.execute_plan(plan)
        assert (execution.cardinality, execution.comparisons) == (0, 0)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_choose_operator_returns_the_cheapest(self, engine_setup, dimension):
        _, catalog, synopses, _ = engine_setup
        model = CostModel()
        optimizer = Optimizer(catalog, synopses, cost_model=model)
        for probe, indexed, output in ((10, 10, 5.0), (5_000, 5_000, 100.0),
                                       (5_000, 5_000, 1e7), (1, 100_000, 1.0)):
            costs = {
                NestedLoopJoin.name: model.nested_loop_join(probe, indexed),
                IndexNestedLoopJoin.name: model.index_nested_loop_join(probe, indexed, output),
                RTreeJoin.name: model.rtree_join(probe, indexed, output),
            }
            if dimension == 2:
                costs[PlaneSweepJoin.name] = model.plane_sweep_join(probe, indexed, output)
            name, cost = optimizer.choose_operator(probe, indexed, output,
                                                   dimension=dimension)
            assert cost == min(costs.values())
            assert costs[name] == cost

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_plane_sweep_is_chosen_in_two_dimensions_only(self, engine_setup, dimension):
        _, catalog, synopses, _ = engine_setup
        cheap_sweep = CostModel(sweep_constant=1e-9, output_constant=1e-9)
        optimizer = Optimizer(catalog, synopses, cost_model=cheap_sweep)
        name, _ = optimizer.choose_operator(5_000, 5_000, 100.0, dimension=dimension)
        assert (name == PlaneSweepJoin.name) == (dimension == 2)

    def test_greedy_order_beyond_the_enumeration_limit(self, rng):
        domain = Domain.square(256, dimension=2)
        catalog = Catalog(domain)
        names = [f"r{index}" for index in range(Optimizer._ENUMERATION_LIMIT + 1)]
        for name in names:
            catalog.create(name, boxes=synthetic.generate_rectangles(15, domain, rng=rng))
        synopses = SynopsisManager(domain.with_max_level(3), num_instances=16, seed=5)
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(relations=tuple(names)))
        assert sorted(plan.order) == names
        assert len(plan.steps) == len(names) - 1
        assert [step.right for step in plan.steps] == list(plan.order[1:])
        assert plan.estimated_cost == pytest.approx(
            sum(step.estimated_cost for step in plan.steps))

    def test_join_query_validation(self):
        with pytest.raises(ValueError):
            JoinQuery(relations=("solo",))
        with pytest.raises(ValueError):
            JoinQuery(relations=("a", "a"))
