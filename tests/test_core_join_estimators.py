"""Tests for the spatial-join estimators (Sections 4, 6.1, Appendices B/C).

Two layers of checks:

* *Exact expectation* — using the closed-form expectation helper from
  ``tests.helpers`` the estimator's E[Z] is computed without sampling and
  compared with the true join cardinality.  This verifies covers,
  combination coefficients and endpoint handling exactly.
* *Statistical behaviour* — with many instances the boosted estimate must
  land near the truth; insert/delete streams must behave like the final
  dataset.
"""

import numpy as np
import pytest

from repro.core.boosting import BoostingPlan, plan_boosting
from repro.core.domain import Domain
from repro.core.join_extended import ExtendedOverlapJoinEstimator
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.errors import DimensionalityError, EstimationError, SketchConfigError
from repro.exact.interval_join import interval_join_count
from repro.exact.rectangle_join import brute_force_join_count
from repro.geometry.boxset import BoxSet
from repro.service import EstimationService, EstimatorSpec

from tests.conftest import random_boxes
from tests.helpers import assert_same_state, expected_estimator_value


def snapped_boxes(rng, count, domain_size, dimension, pitch=8):
    """Boxes whose coordinates snap to a coarse grid (many shared endpoints)."""
    boxes = random_boxes(rng, count, domain_size, dimension)
    lows = (boxes.lows // pitch) * pitch
    highs = np.maximum(((boxes.highs // pitch) + 1) * pitch - 1, lows + 1)
    highs = np.minimum(highs, domain_size - 1)
    return BoxSet(lows, highs)


class TestExactExpectation1D:
    """E[Z] equals the true join cardinality (no sampling involved)."""

    @pytest.mark.parametrize("policy", ["transform", "explicit"])
    def test_random_intervals(self, rng, policy):
        domain = Domain(64)
        for _ in range(5):
            left = random_boxes(rng, 15, 64, 1)
            right = random_boxes(rng, 15, 64, 1)
            estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0,
                                             endpoint_policy=policy)
            truth = interval_join_count(left, right)
            assert expected_estimator_value(estimator, left, right) == pytest.approx(truth)

    @pytest.mark.parametrize("policy", ["transform", "explicit"])
    def test_shared_endpoints(self, rng, policy):
        domain = Domain(64)
        for _ in range(5):
            left = snapped_boxes(rng, 12, 64, 1)
            right = snapped_boxes(rng, 12, 64, 1)
            estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0,
                                             endpoint_policy=policy)
            truth = interval_join_count(left, right)
            assert expected_estimator_value(estimator, left, right) == pytest.approx(truth)

    def test_assume_distinct_correct_without_shared_endpoints(self):
        domain = Domain(64)
        left = BoxSet.from_intervals([(0, 10), (20, 30), (40, 50)])
        right = BoxSet.from_intervals([(5, 15), (25, 45), (55, 60)])
        estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0,
                                         endpoint_policy="assume_distinct")
        truth = interval_join_count(left, right)
        assert expected_estimator_value(estimator, left, right) == pytest.approx(truth)

    def test_assume_distinct_biased_with_shared_endpoints(self):
        domain = Domain(64)
        left = BoxSet.from_intervals([(0, 10)])
        right = BoxSet.from_intervals([(10, 20)])  # touches at 10: not a join pair
        estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0,
                                         endpoint_policy="assume_distinct")
        assert expected_estimator_value(estimator, left, right) > 0.5

    @pytest.mark.parametrize("max_level", [0, 2, None])
    def test_max_level_does_not_change_expectation(self, rng, max_level):
        domain = Domain(64, max_levels=max_level)
        left = random_boxes(rng, 10, 64, 1)
        right = random_boxes(rng, 10, 64, 1)
        estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0)
        truth = interval_join_count(left, right)
        assert expected_estimator_value(estimator, left, right) == pytest.approx(truth)


class TestExactExpectation2D:
    @pytest.mark.parametrize("policy", ["transform", "explicit"])
    def test_random_rectangles(self, rng, policy):
        domain = Domain.square(32, dimension=2)
        for _ in range(4):
            left = random_boxes(rng, 10, 32, 2)
            right = random_boxes(rng, 10, 32, 2)
            estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0,
                                             endpoint_policy=policy)
            truth = brute_force_join_count(left, right)
            assert expected_estimator_value(estimator, left, right) == pytest.approx(truth)

    def test_shared_endpoints_2d(self, rng):
        domain = Domain.square(32, dimension=2)
        left = snapped_boxes(rng, 8, 32, 2, pitch=4)
        right = snapped_boxes(rng, 8, 32, 2, pitch=4)
        estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0,
                                         endpoint_policy="transform")
        truth = brute_force_join_count(left, right)
        assert expected_estimator_value(estimator, left, right) == pytest.approx(truth)


class TestExactExpectation3D:
    def test_three_dimensional_join(self, rng):
        domain = Domain.square(16, dimension=3)
        left = random_boxes(rng, 8, 16, 3)
        right = random_boxes(rng, 8, 16, 3)
        estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0)
        truth = brute_force_join_count(left, right)
        assert expected_estimator_value(estimator, left, right) == pytest.approx(truth)


class TestExtendedOverlap:
    def test_expectation_counts_touching_pairs(self, rng):
        domain = Domain(64)
        for _ in range(5):
            left = snapped_boxes(rng, 10, 64, 1)
            right = snapped_boxes(rng, 10, 64, 1)
            estimator = ExtendedOverlapJoinEstimator(domain, num_instances=1, seed=0)
            truth = interval_join_count(left, right, closed=True)
            assert expected_estimator_value(estimator, left, right) == pytest.approx(truth)

    def test_expectation_counts_touching_pairs_2d(self, rng):
        domain = Domain.square(32, dimension=2)
        left = snapped_boxes(rng, 8, 32, 2, pitch=4)
        right = snapped_boxes(rng, 8, 32, 2, pitch=4)
        estimator = ExtendedOverlapJoinEstimator(domain, num_instances=1, seed=0)
        truth = brute_force_join_count(left, right, closed=True)
        assert expected_estimator_value(estimator, left, right) == pytest.approx(truth)

    def test_statistical_estimate(self, rng):
        domain = Domain(128)
        left = snapped_boxes(rng, 60, 128, 1)
        right = snapped_boxes(rng, 60, 128, 1)
        truth = interval_join_count(left, right, closed=True)
        estimator = ExtendedOverlapJoinEstimator(domain.with_max_level(4), 3000, seed=2)
        estimator.update("left", left)
        estimator.update("right", right)
        values = estimator.estimate().instance_values
        standard_error = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 5 * standard_error + 1e-9


class TestCommonEndpointEstimator:
    def test_is_explicit_policy(self):
        estimator = EstimatorSpec.create("common_endpoint", (256,), 4).build()
        assert estimator.endpoint_policy == "explicit"

    @pytest.mark.parametrize("family,sizes", [("interval", (64,)), ("hyperrect", (64,)),
                                              ("rectangle", (32, 32)),
                                              ("hyperrect", (16, 16, 16))])
    def test_is_the_explicit_join_bit_for_bit(self, rng, family, sizes):
        """The Appendix C family is the plain join's ``"explicit"`` policy:
        on one seed and one stream both hold the same counters and give
        the same estimate, to the bit."""
        common = EstimatorSpec.create("common_endpoint", sizes, 16, seed=5).build()
        explicit = EstimatorSpec.create(family, sizes, 16, seed=5,
                                        endpoint_policy="explicit").build()
        for side in ("left", "right"):
            data = snapped_boxes(rng, 30, sizes[0], len(sizes))
            common.update(side, data)
            explicit.update(side, data)
        assert_same_state(common.state_dict(), explicit.state_dict())
        ours, theirs = common.estimate(), explicit.estimate()
        assert ours.estimate == theirs.estimate
        assert ours.instance_values.tobytes() == theirs.instance_values.tobytes()


class TestStatisticalBehaviour:
    def test_unbiased_instance_values_1d(self, rng):
        domain = Domain(256)
        left = random_boxes(rng, 60, 256, 1)
        right = random_boxes(rng, 60, 256, 1)
        truth = interval_join_count(left, right)
        estimator = SpatialJoinEstimator(domain, num_instances=4000, seed=3)
        estimator.update("left", left)
        estimator.update("right", right)
        values = estimator.estimate().instance_values
        standard_error = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 5 * standard_error + 1e-9

    def test_boosted_estimate_is_reasonable(self, rng):
        domain = Domain(1024, max_levels=5)
        left = random_boxes(rng, 300, 1024, 1, max_extent=64)
        right = random_boxes(rng, 300, 1024, 1, max_extent=64)
        truth = interval_join_count(left, right)
        estimator = SpatialJoinEstimator(domain, num_instances=1500, seed=5)
        estimator.update("left", left)
        estimator.update("right", right)
        result = estimator.estimate()
        assert result.relative_error(truth) < 0.5

    def test_deletes_reconcile_with_final_state(self, rng):
        domain = Domain(256)
        keep = random_boxes(rng, 40, 256, 1)
        transient = random_boxes(rng, 25, 256, 1)
        right = random_boxes(rng, 40, 256, 1)

        streaming = SpatialJoinEstimator(domain, num_instances=64, seed=7)
        streaming.update("left", keep)
        streaming.update("left", transient)
        streaming.update("right", right)
        streaming.update("left", transient, -1.0)

        rebuilt = SpatialJoinEstimator(domain, num_instances=64, seed=7)
        rebuilt.update("left", keep)
        rebuilt.update("right", right)

        assert np.allclose(streaming.estimate().instance_values, rebuilt.estimate().instance_values)
        assert streaming.left_count == rebuilt.left_count == 40

    def test_same_seed_is_deterministic(self, rng):
        domain = Domain(256)
        left = random_boxes(rng, 30, 256, 1)
        right = random_boxes(rng, 30, 256, 1)
        results = []
        for _ in range(2):
            estimator = SpatialJoinEstimator(domain, num_instances=32, seed=11)
            estimator.update("left", left)
            estimator.update("right", right)
            results.append(estimator.estimate().estimate)
        assert results[0] == results[1]


class TestEstimatorConfiguration:
    def test_selectivity_uses_counts(self, rng, domain_1d):
        left = random_boxes(rng, 20, 256, 1)
        right = random_boxes(rng, 30, 256, 1)
        estimator = SpatialJoinEstimator(domain_1d, num_instances=32, seed=1)
        estimator.update("left", left)
        estimator.update("right", right)
        result = estimator.estimate()
        assert result.selectivity == pytest.approx(result.estimate / 600)

    def test_estimate_before_insert_raises(self, domain_1d):
        estimator = SpatialJoinEstimator(domain_1d, num_instances=8, seed=1)
        with pytest.raises(EstimationError):
            estimator.estimate()

    def test_invalid_policy(self, domain_1d):
        with pytest.raises(SketchConfigError):
            SpatialJoinEstimator(domain_1d, num_instances=8, endpoint_policy="bogus")

    @pytest.mark.parametrize("family,sizes", [("rectangle", (256,)),
                                              ("rectangle", (64, 64, 64)),
                                              ("interval", (256, 256))])
    def test_a_family_of_one_dimension_refuses_another(self, family, sizes):
        """``interval`` is the join on a 1-d domain and ``rectangle`` on a
        2-d one: registering either on another is refused, and the name
        stays free."""
        service = EstimationService(num_shards=2)
        with pytest.raises(DimensionalityError, match=f"family {family!r} needs"):
            service.register("join", family=family, domain=sizes)
        assert "join" not in service.names()

    def test_a_guarantee_plan_sizes_the_estimator(self, domain_1d):
        # Var[Z] <= SJ(R) SJ(S) / 2 (Lemma 6) with SJ(R) = SJ(S) = 100.
        plan = plan_boosting(epsilon=0.5, phi=0.25, variance_bound=0.5 * 100.0 * 100.0,
                             expectation_lower_bound=50.0)
        estimator = SpatialJoinEstimator(domain_1d, plan.total_instances, boosting=plan)
        # k1 = ceil(8 * 5e3 / (0.25 * 2500)) = 64, k2 = 4.
        assert estimator.num_instances == 64 * 4
        assert estimator.boosting_plan == plan

    def test_storage_words(self, domain_2d):
        estimator = SpatialJoinEstimator(domain_2d, num_instances=10)
        assert estimator.storage_words() == 80.0

    def test_explicit_boosting_plan_is_used(self, rng, domain_1d):
        plan = BoostingPlan(group_size=4, num_groups=3)
        estimator = SpatialJoinEstimator(domain_1d, num_instances=12, seed=1, boosting=plan)
        estimator.update("left", random_boxes(rng, 10, 256, 1))
        estimator.update("right", random_boxes(rng, 10, 256, 1))
        result = estimator.estimate()
        assert len(result.group_means) == 3
