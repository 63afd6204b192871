"""Tests for the engine's join synopses."""

import itertools

import pytest

from repro.core.hashing import stable_seed_offset
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.data import synthetic
from repro.engine import Catalog, Optimizer, SynopsisManager
from repro.engine.query import JoinQuery
from repro.errors import EngineError


@pytest.fixture
def catalog(rng, domain_2d):
    catalog = Catalog(domain_2d)
    for name in ("R", "S", "T"):
        catalog.create(name, boxes=synthetic.generate_rectangles(120, domain_2d,
                                                                 rng=rng))
    return catalog


class TestSynopsisManager:
    def test_matches_a_direct_join_estimator(self, rng, catalog, domain_2d):
        """Each pair's estimate equals one estimator built directly with
        the pair's seed and fed the relations' final contents."""
        synopses = SynopsisManager(domain_2d, num_instances=64, seed=9)
        pairs = [(catalog.get("R"), catalog.get("S")),
                 (catalog.get("S"), catalog.get("T"))]
        synopses.estimated_join_cardinalities(pairs)
        extra = synthetic.generate_rectangles(30, domain_2d, rng=rng)
        catalog.get("S").insert(extra)
        for left, right in pairs:
            direct = SpatialJoinEstimator(
                domain_2d, 64, seed=9 + stable_seed_offset((left.name, right.name)))
            direct.update("left", left.boxes())
            direct.update("right", right.boxes())
            expected = max(0.0, direct.estimate().estimate)
            assert synopses.estimated_join_cardinalities([(left, right)]) == [expected]

    def test_inserts_reach_the_live_sketch(self, rng, catalog, domain_2d):
        synopses = SynopsisManager(domain_2d, num_instances=32, seed=2)
        left, right = catalog.get("R"), catalog.get("S")
        assert synopses.join_sketch(left, right).left_count == 120
        extra = synthetic.generate_rectangles(30, domain_2d, rng=rng)
        left.insert(extra)
        assert synopses.join_sketch(left, right).left_count == 150

    def test_optimizer_runs_on_the_synopses(self, catalog, domain_2d):
        synopses = SynopsisManager(domain_2d, num_instances=32, seed=1)
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(("R", "S", "T")))
        assert set(plan.order) == {"R", "S", "T"}
        assert plan.estimated_cost >= 0.0

    def test_empty_relation_short_circuits(self, catalog, domain_2d):
        catalog.create("empty")
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=1)
        assert synopses.estimated_join_cardinalities(
            [(catalog.get("empty"), catalog.get("R"))]) == [0.0]

    def test_self_join_rejected(self, catalog, domain_2d):
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=1)
        with pytest.raises(EngineError):
            synopses.join_sketch(catalog.get("R"), catalog.get("R"))

    def test_a_sketch_is_built_once_and_fed_once(self, rng, catalog, domain_2d):
        """Re-probing a pair reuses its estimator and attaches no second
        listener, so every later mutation reaches the counters once."""
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=2)
        left, right = catalog.get("R"), catalog.get("S")
        sketch = synopses.join_sketch(left, right)
        for _ in range(3):
            synopses.estimated_join_cardinalities([(left, right)])
            assert synopses.join_sketch(left, right) is sketch
        left.insert(synthetic.generate_rectangles(10, domain_2d, rng=rng))
        assert (sketch.left_count, sketch.right_count) == (130, 120)

    def test_each_manager_counts_each_mutation_once(self, rng, catalog, domain_2d):
        """Two managers over the same relations each keep their own sketch of
        a pair, and every mutation reaches each of them exactly once."""
        first, second = (SynopsisManager(domain_2d, num_instances=16, seed=4)
                         for _ in range(2))
        left, right = catalog.get("R"), catalog.get("S")
        sketches = [manager.join_sketch(left, right) for manager in (first, second)]
        assert sketches[0] is not sketches[1]
        extra = synthetic.generate_rectangles(10, domain_2d, rng=rng)
        left.insert(extra)
        right.insert(extra[:4])
        for sketch in sketches:
            assert (sketch.left_count, sketch.right_count) == (130, 124)
        assert (sketches[0].estimate().estimate
                == sketches[1].estimate().estimate)

    def test_a_first_probe_back_fills_what_the_relations_hold(self, rng, catalog,
                                                              domain_2d):
        """Mutations made before a pair's first probe are not lost: the
        sketch is back-filled from the relations' current contents."""
        left, right = catalog.get("R"), catalog.get("S")
        left.insert(synthetic.generate_rectangles(30, domain_2d, rng=rng))
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=6)
        sketch = synopses.join_sketch(left, right)
        assert (sketch.left_count, sketch.right_count) == (len(left), len(right)) == (150, 120)
        direct = SpatialJoinEstimator(domain_2d, 16,
                                      seed=6 + stable_seed_offset(("R", "S")))
        direct.update("left", left.boxes())
        direct.update("right", right.boxes())
        assert sketch.estimate().estimate == direct.estimate().estimate

    def test_a_relation_feeds_its_side_of_every_pair(self, rng, catalog, domain_2d):
        """A relation feeds the side its name sorts to in each pair: ``S`` is
        the right side of {R, S} and the left side of {S, T}, whichever way
        round the pairs are asked for."""
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=3)
        r, s, t = (catalog.get(name) for name in ("R", "S", "T"))
        as_right = synopses.join_sketch(s, r)
        as_left = synopses.join_sketch(t, s)
        extra = synthetic.generate_rectangles(25, domain_2d, rng=rng)
        s.insert(extra[5:])
        assert (as_right.left_count, as_right.right_count) == (120, 140)
        assert (as_left.left_count, as_left.right_count) == (140, 120)

    def test_a_pair_has_one_sketch_whichever_way_round(self, catalog, domain_2d):
        """``join_sketch(b, a)`` is ``join_sketch(a, b)``: the name-sorted
        pair's estimator, seeded from the sorted names."""
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=8)
        r, s = catalog.get("R"), catalog.get("S")
        assert synopses.join_sketch(s, r) is synopses.join_sketch(r, s)
        direct = SpatialJoinEstimator(domain_2d, 16,
                                      seed=8 + stable_seed_offset(("R", "S")))
        direct.update("left", r.boxes())
        direct.update("right", s.boxes())
        assert (synopses.estimated_join_cardinalities([(s, r), (r, s)])
                == [max(0.0, direct.estimate().estimate)] * 2)

    def test_n_relations_keep_one_sketch_per_unordered_pair(self, rng, catalog,
                                                            domain_2d):
        """Planning over 4 relations leaves 4 * 3 / 2 = 6 sketches, whichever
        way round each pair is asked for, and an insert into one relation
        updates the 3 sketches it is part of."""
        catalog.create("U", boxes=synthetic.generate_rectangles(60, domain_2d, rng=rng))
        names = ("R", "S", "T", "U")
        relations = [catalog.get(name) for name in names]
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=1)
        Optimizer(catalog, synopses).plan_join(JoinQuery(names))
        assert len({id(synopses.join_sketch(left, right))
                    for left, right in itertools.permutations(relations, 2)}) == 6
        sketches = {(left.name, right.name): synopses.join_sketch(left, right)
                    for left, right in itertools.combinations(relations, 2)}

        def sides():
            return {pair: (sketch.left_count, sketch.right_count)
                    for pair, sketch in sketches.items()}

        before = sides()
        catalog.get("T").insert(synthetic.generate_rectangles(7, domain_2d, rng=rng))
        after = sides()
        assert {pair for pair in sketches if before[pair] != after[pair]} == {
            ("R", "T"), ("S", "T"), ("T", "U")}

    def test_sketch_seeds_are_process_independent(self, catalog, domain_2d):
        """Sketch seeds must not depend on PYTHONHASHSEED or on creation
        order: a pair's sketch equals one built directly with the seed
        ``seed + stable_seed_offset(names)``."""
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=5)
        left, right = catalog.get("R"), catalog.get("S")
        sketch = synopses.join_sketch(left, right)
        direct = SpatialJoinEstimator(domain_2d, 16,
                                      seed=5 + stable_seed_offset(("R", "S")))
        direct.update("left", left.boxes())
        direct.update("right", right.boxes())
        assert sketch.estimate().estimate == direct.estimate().estimate
        assert stable_seed_offset(("R", "S")) != stable_seed_offset(("S", "R"))
