"""Tests for the mini spatial query engine."""

import itertools

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.data import synthetic
from repro.engine import optimizer as optimizer_module
from repro.engine.catalog import Catalog
from repro.engine.optimizer import JoinPlan, Optimizer, PlanExecution
from repro.engine.query import JoinQuery, PlannedJoin
from repro.engine.relation import SpatialRelation
from repro.engine.synopses import SynopsisManager
from repro.errors import EngineError
from repro.exact.rectangle_join import brute_force_join_count
from repro.geometry.boxset import BoxSet
from repro.geometry.predicates import overlap_matrix

from tests.conftest import random_boxes


def _common_intersection_count(relations):
    """Tuples (one object per relation) whose boxes share interior points:
    the oracle of a left-deep plan's result cardinality."""
    lows = relations[0].boxes().lows
    highs = relations[0].boxes().highs
    for relation in relations[1:]:
        boxes = relation.boxes()
        lows = np.maximum(lows[:, None, :], boxes.lows[None, :, :]).reshape(-1, lows.shape[1])
        highs = np.minimum(highs[:, None, :], boxes.highs[None, :, :]).reshape(-1, highs.shape[1])
    return int(np.count_nonzero(np.all(lows < highs, axis=1)))


def _execute(catalog, names):
    """Execute a hand-built plan (its synopses are never probed)."""
    optimizer = Optimizer(catalog, SynopsisManager(catalog.domain, num_instances=16))
    return optimizer.execute_plan(JoinPlan(order=tuple(names)))


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

    def test_listeners_receive_inserts(self, rng, domain_2d):
        events = []

        class Recorder:
            def on_insert(self, relation, boxes):
                events.append(("insert", len(boxes)))

        relation = SpatialRelation("items", domain_2d)
        relation.add_listener(Recorder())
        data = random_boxes(rng, 4, 256, 2)
        relation.insert(data)
        relation.insert(data[:2])
        assert events == [("insert", 4), ("insert", 2)]

    def test_every_added_listener_hears_each_mutation(self, rng, domain_2d):
        """Listeners are kept as added, even ones that compare equal: two
        synopsis managers over one relation each need every mutation."""
        events = []

        class Recorder:
            def __init__(self, label):
                self.label = label

            def __eq__(self, other):
                return isinstance(other, Recorder)

            __hash__ = object.__hash__

            def on_insert(self, relation, boxes):
                events.append((self.label, len(boxes)))

        relation = SpatialRelation("items", domain_2d)
        relation.add_listener(Recorder("first"))
        relation.add_listener(Recorder("second"))
        data = random_boxes(rng, 3, 256, 2)
        relation.insert(data)
        relation.insert(data[:1])
        assert events == [("first", 3), ("second", 3), ("first", 1), ("second", 1)]

    def test_out_of_domain_insert_rejected(self, domain_2d):
        relation = SpatialRelation("items", domain_2d)
        with pytest.raises(Exception):
            relation.insert(BoxSet(np.array([[0, 0]]), np.array([[999, 1]])))

    def test_a_refused_insert_changes_nothing_and_reaches_no_listener(
            self, rng, domain_2d):
        heard = []

        class Recorder:
            def on_insert(self, relation, boxes):
                heard.append(len(boxes))

        data = random_boxes(rng, 5, 256, 2)
        relation = SpatialRelation("items", domain_2d, boxes=data)
        relation.add_listener(Recorder())
        outside = BoxSet(np.vstack([data.lows, [[0, 0]]]),
                         np.vstack([data.highs, [[999, 1]]]))
        with pytest.raises(Exception):
            relation.insert(outside)
        assert len(relation) == 5 and heard == []
        assert np.array_equal(relation.boxes().lows, data.lows)

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


class TestSynopsisManager:
    def test_join_sketch_tracks_inserts(self, engine_setup, rng):
        """``lakes`` sorts before ``roads``, so it is the pair's left side
        whichever way round the pair is asked for."""
        domain, catalog, synopses, (roads, lakes, _) = engine_setup
        sketch = synopses.join_sketch(roads, lakes)
        assert (sketch.left_count, sketch.right_count) == (len(lakes), len(roads))
        extra = random_boxes(rng, 20, 512, 2)
        roads.insert(extra)
        assert (sketch.left_count, sketch.right_count) == (200, 320) == (len(lakes), len(roads))

    def test_join_sketch_estimate_is_plausible(self, engine_setup):
        _, catalog, synopses, (roads, lakes, _) = engine_setup
        truth = brute_force_join_count(roads.boxes(), lakes.boxes())
        [estimate] = synopses.estimated_join_cardinalities([(roads, lakes)])
        assert estimate >= 0
        # 128 instances on small data: just require the right order of magnitude.
        assert estimate <= max(20 * truth, len(roads) * len(lakes))

    def test_join_sketch_requires_distinct_relations(self, engine_setup):
        _, _, synopses, (roads, _, _) = engine_setup
        with pytest.raises(EngineError):
            synopses.join_sketch(roads, roads)


class TestExecution:
    """``execute_plan`` counts every intermediate result exactly."""

    #: Boxes per relation, so the oracle's cross product stays small.
    SIZES = {2: 70, 3: 30, 4: 14}

    @pytest.mark.parametrize("degenerate", [False, True], ids=["proper", "degenerate"])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("ways", [2, 3, 4])
    def test_every_step_executes_to_the_common_intersection_count(
            self, rng, ways, dimension, degenerate):
        domain = Domain.square(64, dimension=dimension)
        catalog = Catalog(domain)
        relations = [catalog.create(f"r{index}", boxes=random_boxes(
            rng, self.SIZES[ways] + 5 * index, 64, dimension, max_extent=24,
            allow_degenerate=degenerate)) for index in range(ways)]
        execution = _execute(catalog, catalog.names())
        expected = tuple(_common_intersection_count(relations[:stop])
                         for stop in range(2, ways + 1))
        assert execution.step_cardinalities == expected
        assert execution.cardinality == expected[-1]
        assert execution.cost == sum(expected)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_strict_execution_drops_pairs_that_only_touch(self, rng, dimension):
        # Coordinates snapped to a coarse grid, so many boxes only touch.
        catalog = Catalog(Domain.square(128, dimension=dimension))
        relations = []
        for name, count in (("left", 70), ("right", 80), ("third", 40)):
            raw = random_boxes(rng, count, 128, dimension)
            lows = (raw.lows // 8) * 8
            highs = np.minimum(np.maximum((raw.highs // 8) * 8, lows + 8), 127)
            relations.append(catalog.create(name, boxes=BoxSet(lows, highs)))
        strict = _execute(catalog, ("left", "right", "third"))
        assert strict.step_cardinalities == (
            _common_intersection_count(relations[:2]), _common_intersection_count(relations))
        touching = int(overlap_matrix(relations[0].boxes(), relations[1].boxes(),
                                      closed=True).sum())
        assert strict.step_cardinalities[0] < touching

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_probe_chunks_do_not_change_the_counts(self, rng, monkeypatch, chunk):
        catalog = Catalog(Domain.square(128, dimension=2))
        relations = [catalog.create(name, boxes=random_boxes(rng, count, 128, 2,
                                                             allow_degenerate=True))
                     for name, count in (("a", 300), ("b", 40), ("c", 25))]
        monkeypatch.setattr(optimizer_module, "_PROBE_CHUNK", chunk)
        execution = _execute(catalog, ("a", "b", "c"))
        assert execution.step_cardinalities == (
            _common_intersection_count(relations[:2]), _common_intersection_count(relations))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_an_empty_relation_empties_every_step_after_it(self, rng, position):
        catalog = Catalog(Domain.square(64, dimension=2))
        relations = [catalog.create(name, boxes=None if index == position else
                                    random_boxes(rng, 20, 64, 2))
                     for index, name in enumerate(("a", "b", "c"))]
        first = _common_intersection_count(relations[:2]) if position == 2 else 0
        assert _execute(catalog, ("a", "b", "c")).step_cardinalities == (first, 0)

    def test_a_zero_width_box_inside_another_is_no_strict_pair(self):
        catalog = Catalog(Domain.square(16, dimension=2))
        catalog.create("outer", boxes=BoxSet(np.array([[0, 0]]), np.array([[10, 10]])))
        catalog.create("line", boxes=BoxSet(np.array([[5, 5]]), np.array([[5, 9]])))
        assert _execute(catalog, ("outer", "line")).cardinality == 0

    def test_q_errors_compare_each_step_estimate_with_its_exact_count(self):
        plan = JoinPlan(order=("a", "b", "c", "d"), steps=[
            PlannedJoin("a", "b", 10.0), PlannedJoin("<intermediate>", "c", 0.0),
            PlannedJoin("<intermediate>", "d", 4.0)])
        execution = PlanExecution(plan=plan, step_cardinalities=(5, 0, 8))
        assert execution.q_errors() == (2.0, 1.0, 2.0)


class TestOptimizer:
    def test_pair_selectivity_in_unit_range(self, engine_setup):
        _, catalog, synopses, (roads, lakes, _) = engine_setup
        optimizer = Optimizer(catalog, synopses)
        selectivity = optimizer.estimated_pair_selectivity(roads, lakes)
        assert 0.0 <= selectivity <= 1.0

    def test_pair_selectivity_is_the_estimated_join_size_over_the_pair_size(
            self, engine_setup):
        _, catalog, synopses, (roads, lakes, parks) = engine_setup
        optimizer = Optimizer(catalog, synopses)
        for left, right in ((roads, lakes), (lakes, roads), (parks, roads)):
            [cardinality] = synopses.estimated_join_cardinalities([(left, right)])
            expected = min(1.0, max(0.0, cardinality / (len(left) * len(right))))
            assert optimizer.estimated_pair_selectivity(left, right) == expected

    def test_plan_join_enumerates_orders(self, engine_setup):
        _, catalog, synopses, _ = engine_setup
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(relations=("roads", "lakes", "parks")))
        assert set(plan.order) == {"roads", "lakes", "parks"}
        assert len(plan.steps) == 2
        assert plan.estimated_cost >= 0

    def test_plan_join_picks_the_least_estimated_c_out(self, engine_setup):
        _, catalog, synopses, _ = engine_setup
        optimizer = Optimizer(catalog, synopses)
        names = ("roads", "lakes", "parks")
        plan = optimizer.plan_join(JoinQuery(relations=names))
        costs = [optimizer.cost_order(order).estimated_cost
                 for order in itertools.permutations(names)]
        assert plan.estimated_cost == min(costs)

    @pytest.mark.parametrize("ways", [2, 3, 4, Optimizer._ENUMERATION_LIMIT + 1])
    def test_c_out_is_the_sum_of_the_per_step_estimates(self, rng, ways):
        """Each step's estimate is the previous one times the next relation's
        size times its pair selectivities with every placed relation (the
        greedy path above the enumeration limit costs the same way)."""
        domain = Domain.square(256, dimension=2)
        catalog = Catalog(domain)
        names = tuple(f"r{index}" for index in range(ways))
        for index, name in enumerate(names):
            catalog.create(name, boxes=synthetic.generate_rectangles(
                20 + 10 * index, domain, rng=rng))
        optimizer = Optimizer(catalog, SynopsisManager(domain.with_max_level(3),
                                                       num_instances=16, seed=5))
        plan = optimizer.plan_join(JoinQuery(relations=names))
        relations = [catalog.get(name) for name in plan.order]
        expected = float(len(relations[0]))
        for step, (index, relation) in zip(plan.steps, enumerate(relations[1:], 1)):
            for placed in relations[:index]:
                expected *= optimizer.estimated_pair_selectivity(placed, relation)
            expected *= len(relation)
            assert step.estimated_cardinality == pytest.approx(expected)
        assert plan.estimated_cardinality == pytest.approx(expected)
        assert plan.estimated_cost == pytest.approx(
            sum(step.estimated_cardinality for step in plan.steps))

    def test_every_order_reads_one_selectivity_per_pair(self, rng):
        """The join is symmetric, so orders that start with the same pair
        estimate the same first step, and every order of a 3-way join
        estimates the same final cardinality."""
        domain = Domain.square(256, dimension=2)
        catalog = Catalog(domain)
        for name, size in (("r", 150), ("s", 120), ("t", 90)):
            catalog.create(name, boxes=synthetic.generate_rectangles(
                size, domain, mean_length=60, rng=rng))
        optimizer = Optimizer(catalog, SynopsisManager(domain.with_max_level(4),
                                                       num_instances=256, seed=2))
        plans = {order: optimizer.cost_order(order)
                 for order in itertools.permutations(("r", "s", "t"))}
        for first, second, third in plans:
            assert (plans[(first, second, third)].steps[0].estimated_cardinality
                    == pytest.approx(plans[(second, first, third)].steps[0]
                                     .estimated_cardinality))
        finals = [plan.estimated_cardinality for plan in plans.values()]
        assert finals[0] > 0
        assert finals == [pytest.approx(finals[0])] * len(finals)

    def test_execute_plan_result_is_order_independent(self, engine_setup):
        _, catalog, synopses, _ = engine_setup
        optimizer = Optimizer(catalog, synopses)
        cardinalities = set()
        for order in itertools.permutations(("roads", "lakes", "parks")):
            plan = optimizer.cost_order(tuple(order))
            cardinalities.add(optimizer.execute_plan(plan).cardinality)
        assert len(cardinalities) == 1

    def test_two_way_plan_executes_to_the_exact_count(self, engine_setup):
        _, catalog, synopses, (roads, lakes, _) = engine_setup
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(relations=("roads", "lakes")))
        expected = brute_force_join_count(roads.boxes(), lakes.boxes())
        assert optimizer.execute_plan(plan).step_cardinalities == (expected,)

    def test_three_way_plan_executes_to_the_exact_count(self, engine_setup):
        _, catalog, synopses, relations = engine_setup
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(relations=("roads", "lakes", "parks")))
        execution = optimizer.execute_plan(plan)
        assert execution.cardinality == _common_intersection_count(relations)
        first = [catalog.get(name) for name in plan.order[:2]]
        assert execution.cost == execution.cardinality + _common_intersection_count(first)

    def test_a_plan_over_an_empty_relation_returns_nothing(self, engine_setup):
        _, catalog, synopses, _ = engine_setup
        catalog.create("empty")
        optimizer = Optimizer(catalog, synopses)
        assert optimizer.estimated_pair_selectivity(catalog.get("roads"),
                                                    catalog.get("empty")) == 0.0
        plan = optimizer.plan_join(JoinQuery(relations=("roads", "empty")))
        assert plan.estimated_cost == 0.0
        execution = optimizer.execute_plan(plan)
        assert (execution.cardinality, execution.cost) == (0, 0)

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

    def test_the_sketch_order_avoids_the_dense_pair_that_counts_only_joins_first(self):
        """Where selectivity, not size, decides, the sketch path carries the
        signal.  ``a`` and ``b`` overlap densely and ``c`` lies apart from
        both, so joining the two smallest relations first (``a`` and ``b``)
        is the worst start; the sketch-driven order starts elsewhere."""
        def boxes_in(rng, count, low_y, high_y, high_x):
            lows = np.column_stack([rng.integers(0, high_x - 150, count),
                                    rng.integers(low_y, high_y - 150, count)])
            return BoxSet(lows, lows + rng.integers(50, 151, size=(count, 2)))

        domain = Domain.square(1024, dimension=2)
        avoided = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            catalog = Catalog(domain)
            catalog.create("a", boxes=boxes_in(rng, 100, 0, 300, 300))
            catalog.create("b", boxes=boxes_in(rng, 200, 0, 300, 300))
            catalog.create("c", boxes=boxes_in(rng, 400, 400, 1024, 1024))
            optimizer = Optimizer(catalog, SynopsisManager(
                domain.with_max_level(5), num_instances=64, seed=seed))
            plan = optimizer.plan_join(JoinQuery(relations=("a", "b", "c")))
            avoided += set(plan.order[:2]) != {"a", "b"}
        assert avoided >= 9

    def test_join_query_validation(self):
        with pytest.raises(ValueError):
            JoinQuery(relations=("solo",))
        with pytest.raises(ValueError):
            JoinQuery(relations=("a", "a"))

    def test_a_join_query_has_no_semantics_flag(self):
        """The sketches estimate strict overlap only, and so does
        ``execute_plan``: a query cannot ask for what planning ignores."""
        with pytest.raises(TypeError):
            JoinQuery(relations=("a", "b"), closed=True)
