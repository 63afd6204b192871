"""End-to-end integration tests across modules.

These tests mirror the example applications: streaming maintenance of a
join sketch, the query-optimizer workflow and a full small-scale
"figure"-style comparison of SKETCH against the histogram baselines.
"""

import numpy as np

from repro.core.domain import Domain
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.core.range_query import RangeQueryEstimator
from repro.data import synthetic
from repro.data.reallife import load_real_life_pair
from repro.data.streams import UpdateKind, UpdateStream
from repro.engine.catalog import Catalog
from repro.engine.optimizer import Optimizer
from repro.engine.query import JoinQuery
from repro.engine.synopses import SynopsisManager
from repro.exact.range_query import range_query_count
from repro.exact.rectangle_join import rectangle_join_count
from repro.experiments.harness import adaptive_domain, histogram_errors
from repro.experiments.metrics import relative_error
from repro.geometry.boxset import BoxSet


class TestStreamingIntegration:
    def test_sketch_follows_insert_delete_stream(self, rng):
        """A sketch maintained over a stream equals one built on the final state."""
        domain = Domain.square(512, dimension=2)
        objects = synthetic.generate_rectangles(300, domain, rng=rng)
        right = synthetic.generate_rectangles(250, domain, rng=rng)
        stream = UpdateStream(objects, delete_fraction=0.3, warmup_fraction=0.5, seed=9)

        streamed = SpatialJoinEstimator(domain.with_max_level(4), 96, seed=4)
        streamed.update("right", right)
        for kind, batch in stream.batches(batch_size=32):
            if kind is UpdateKind.INSERT:
                streamed.update("left", batch)
            else:
                streamed.update("left", batch, -1.0)

        final_state = stream.final_state()
        rebuilt = SpatialJoinEstimator(domain.with_max_level(4), 96, seed=4)
        rebuilt.update("left", final_state)
        rebuilt.update("right", right)

        assert streamed.left_count == len(final_state)
        assert np.allclose(streamed.estimate().instance_values, rebuilt.estimate().instance_values)

    def test_range_sketch_over_stream(self, rng):
        domain = Domain.square(256, dimension=2)
        objects = synthetic.generate_rectangles(250, domain, rng=rng)
        stream = UpdateStream(objects, delete_fraction=0.2, seed=3)
        estimator = RangeQueryEstimator(domain.with_max_level(4), 512, seed=7)
        for kind, batch in stream.batches(batch_size=64):
            if kind is UpdateKind.INSERT:
                estimator.update("data", batch)
            else:
                estimator.update("data", batch, -1.0)
        final_state = stream.final_state()
        query = BoxSet((40, 40), (200, 180))
        truth = range_query_count(final_state, query)
        estimate = estimator.estimate(query).estimate
        assert relative_error(estimate, max(truth, 1)) < 1.0


class TestOptimizerIntegration:
    def test_sketch_driven_plan_is_not_much_worse_than_best(self, rng):
        import itertools

        domain = Domain.square(1024, dimension=2)
        catalog = Catalog(domain)
        catalog.create("big", boxes=synthetic.generate_rectangles(600, domain, rng=rng))
        catalog.create("medium", boxes=synthetic.generate_rectangles(300, domain,
                                                                     skew=0.8, rng=rng))
        catalog.create("small", boxes=synthetic.generate_rectangles(100, domain,
                                                                    skew=0.5, rng=rng))
        synopses = SynopsisManager(domain.with_max_level(5), num_instances=192, seed=5)
        optimizer = Optimizer(catalog, synopses)

        query = JoinQuery(relations=("big", "medium", "small"))
        chosen_execution = optimizer.execute_plan(optimizer.plan_join(query))

        costs = []
        for order in itertools.permutations(query.relations):
            plan = optimizer.cost_order(tuple(order))
            costs.append(optimizer.execute_plan(plan).cost)
        best, worst = min(costs), max(costs)
        assert chosen_execution.cost <= worst
        # The chosen plan's true C_out should stay within a factor of the
        # best plan's rather than degenerating to the worst one.
        assert chosen_execution.cost <= best * 4 + 1000


class TestEndToEndComparison:
    def test_sketch_and_baselines_on_simulated_real_data(self):
        """A miniature Figure-9-style run: all techniques produce finite errors
        and the sketch's *selectivity* error is small.

        At this tiny scale the true join cardinality is only a few dozen pairs,
        so the relative error of any probabilistic estimator is noisy; the
        selectivity error (absolute deviation divided by |R|*|S|) is the stable
        quantity to assert on.
        """
        left, right, domain = load_real_life_pair("LANDC", "SOIL", scale=0.02, seed=11)
        truth = rectangle_join_count(left, right)
        assert truth > 0

        tuned = adaptive_domain(left, right, domain, seed=1)
        estimator = SpatialJoinEstimator(tuned, num_instances=256, seed=2)
        estimator.update("left", left)
        estimator.update("right", right)
        estimate = estimator.estimate().estimate
        baseline = histogram_errors(left, right, domain, truth, budget_words=2500)

        assert np.isfinite(estimate)
        assert np.isfinite(baseline["GH"])
        assert np.isfinite(baseline["EH"])
        selectivity_error = abs(estimate - truth) / (len(left) * len(right))
        assert selectivity_error < 0.05

    def test_quickstart_workflow(self, rng):
        """The README quick-start sequence works end to end."""
        domain = Domain.square(1024, dimension=2)
        left = synthetic.generate_rectangles(800, domain, rng=rng)
        right = synthetic.generate_rectangles(800, domain, rng=rng)
        truth = rectangle_join_count(left, right)

        estimator = SpatialJoinEstimator(domain.with_max_level(4), num_instances=512, seed=1)
        estimator.update("left", left)
        estimator.update("right", right)
        result = estimator.estimate()

        assert result.estimate > 0
        assert result.relative_error(truth) < 1.0
        assert 0.0 <= result.selectivity <= 1.0
