"""Tests for the epsilon-join, containment-join and range-query estimators
(Sections 6.3, 6.4 and Appendix B.2)."""

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.epsilon_join import EpsilonJoinEstimator
from repro.core.join_containment import ContainmentJoinEstimator
from repro.core.range_query import RangeQueryEstimator
from repro.errors import DomainError, EstimationError, QueryError
from repro.exact.containment import containment_join_count
from repro.exact.epsilon_join import epsilon_join_count
from repro.exact.range_query import range_query_count
from repro.geometry.boxset import BoxSet
from repro.geometry.predicates import overlap_matrix

from tests.conftest import random_boxes


def random_points(rng, count, domain_size, dimension):
    coords = rng.integers(0, domain_size, size=(count, dimension))
    return BoxSet(coords, coords)


class TestEpsilonJoinEstimator:
    def test_unbiased_instance_values(self, rng):
        domain = Domain.square(64, dimension=2)
        left = random_points(rng, 40, 64, 2)
        right = random_points(rng, 40, 64, 2)
        epsilon = 5
        truth = epsilon_join_count(left, right, epsilon)
        estimator = EpsilonJoinEstimator(domain, epsilon, num_instances=5000, seed=1)
        estimator.update("left", left)
        estimator.update("right", right)
        values = estimator.estimate().instance_values
        standard_error = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 5 * standard_error + 1e-9

    def test_one_dimensional_case(self, rng):
        domain = Domain(128)
        left = random_points(rng, 50, 128, 1)
        right = random_points(rng, 50, 128, 1)
        truth = epsilon_join_count(left, right, 3)
        estimator = EpsilonJoinEstimator(domain, 3, num_instances=4000, seed=3)
        estimator.update("left", left)
        estimator.update("right", right)
        values = estimator.estimate().instance_values
        standard_error = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 5 * standard_error + 1e-9

    def test_deletes_reconcile(self, rng):
        domain = Domain.square(64, dimension=2)
        keep = random_points(rng, 20, 64, 2)
        transient = random_points(rng, 15, 64, 2)
        right = random_points(rng, 20, 64, 2)
        streaming = EpsilonJoinEstimator(domain, 4, num_instances=64, seed=5)
        streaming.update("left", keep)
        streaming.update("left", transient)
        streaming.update("left", transient, -1.0)
        streaming.update("right", right)
        rebuilt = EpsilonJoinEstimator(domain, 4, num_instances=64, seed=5)
        rebuilt.update("left", keep)
        rebuilt.update("right", right)
        assert np.allclose(streaming.estimate().instance_values, rebuilt.estimate().instance_values)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError):
            EpsilonJoinEstimator(Domain.square(64, 2), -1, num_instances=4)

    def test_estimate_before_insert_raises(self):
        estimator = EpsilonJoinEstimator(Domain.square(64, 2), 3, num_instances=4)
        with pytest.raises(EstimationError):
            estimator.estimate()

    def test_selectivity(self, rng):
        domain = Domain.square(64, dimension=2)
        left = random_points(rng, 30, 64, 2)
        right = random_points(rng, 40, 64, 2)
        estimator = EpsilonJoinEstimator(domain, 6, num_instances=256, seed=7)
        estimator.update("left", left)
        estimator.update("right", right)
        result = estimator.estimate()
        assert result.selectivity == pytest.approx(result.estimate / 1200)


class TestContainmentJoinEstimator:
    def test_unbiased_instance_values(self, rng):
        domain = Domain(64)
        outer = random_boxes(rng, 25, 64, 1, max_extent=30)
        inner = random_boxes(rng, 25, 64, 1, max_extent=6)
        truth = containment_join_count(outer, inner)
        estimator = ContainmentJoinEstimator(domain, num_instances=5000, seed=1)
        estimator.update("outer", outer)
        estimator.update("inner", inner)
        values = estimator.estimate().instance_values
        standard_error = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 5 * standard_error + 1e-9

    def test_two_dimensional(self, rng):
        domain = Domain.square(32, dimension=2)
        outer = random_boxes(rng, 15, 32, 2, max_extent=20)
        inner = random_boxes(rng, 15, 32, 2, max_extent=4)
        truth = containment_join_count(outer, inner)
        estimator = ContainmentJoinEstimator(domain, num_instances=6000, seed=3)
        estimator.update("outer", outer)
        estimator.update("inner", inner)
        values = estimator.estimate().instance_values
        standard_error = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 5 * standard_error + 1e-9

    def test_deletes_reconcile(self, rng):
        domain = Domain(64)
        outer = random_boxes(rng, 10, 64, 1)
        inner = random_boxes(rng, 10, 64, 1, max_extent=5)
        transient = random_boxes(rng, 5, 64, 1, max_extent=5)
        streaming = ContainmentJoinEstimator(domain, num_instances=32, seed=5)
        streaming.update("outer", outer)
        streaming.update("inner", inner)
        streaming.update("inner", transient)
        streaming.update("inner", transient, -1.0)
        rebuilt = ContainmentJoinEstimator(domain, num_instances=32, seed=5)
        rebuilt.update("outer", outer)
        rebuilt.update("inner", inner)
        assert np.allclose(streaming.estimate().instance_values, rebuilt.estimate().instance_values)

    def test_counts_and_selectivity(self, rng):
        domain = Domain(64)
        estimator = ContainmentJoinEstimator(domain, num_instances=16, seed=1)
        estimator.update("outer", random_boxes(rng, 12, 64, 1))
        estimator.update("inner", random_boxes(rng, 8, 64, 1))
        result = estimator.estimate()
        assert (result.left_count, result.right_count) == (12, 8)
        assert result.selectivity == pytest.approx(result.estimate / 96)

    def test_estimate_before_insert_raises(self):
        estimator = ContainmentJoinEstimator(Domain(64), num_instances=4)
        with pytest.raises(EstimationError):
            estimator.estimate()


class TestRangeQueryEstimator:
    def test_unbiased_instance_values_1d(self, rng):
        domain = Domain(128)
        data = random_boxes(rng, 60, 128, 1)
        query = BoxSet((30,), (90,))
        truth = range_query_count(data, query)
        estimator = RangeQueryEstimator(domain, num_instances=5000, seed=1)
        estimator.update("data", data)
        values = estimator.estimate(query).instance_values
        standard_error = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 5 * standard_error + 1e-9

    def test_unbiased_instance_values_2d(self, rng):
        domain = Domain.square(64, dimension=2)
        data = random_boxes(rng, 40, 64, 2)
        query = BoxSet((10, 10), (50, 40))
        truth = range_query_count(data, query)
        estimator = RangeQueryEstimator(domain, num_instances=6000, seed=3)
        estimator.update("data", data)
        values = estimator.estimate(query).instance_values
        standard_error = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 5 * standard_error + 1e-9

    def test_strict_mode_excludes_touching(self, rng):
        domain = Domain(64)
        data = BoxSet.from_intervals([(0, 10), (10, 20), (40, 50)])
        query = BoxSet((20,), (30,))
        strict_truth = int(overlap_matrix(data, query).sum())
        closed_truth = range_query_count(data, query)
        assert strict_truth == 0 and closed_truth == 1

        strict = RangeQueryEstimator(domain, num_instances=4000, seed=5, strict=True)
        strict.update("data", data)
        closed = RangeQueryEstimator(domain, num_instances=4000, seed=5, strict=False)
        closed.update("data", data)
        strict_values = strict.estimate(query).instance_values
        closed_values = closed.estimate(query).instance_values
        strict_se = strict_values.std() / np.sqrt(strict_values.size)
        closed_se = closed_values.std() / np.sqrt(closed_values.size)
        assert abs(strict_values.mean() - strict_truth) < 5 * strict_se + 1e-9
        assert abs(closed_values.mean() - closed_truth) < 5 * closed_se + 1e-9

    def test_deletes_reconcile(self, rng):
        domain = Domain(128)
        keep = random_boxes(rng, 30, 128, 1)
        transient = random_boxes(rng, 20, 128, 1)
        streaming = RangeQueryEstimator(domain, num_instances=64, seed=7)
        streaming.update("data", keep)
        streaming.update("data", transient)
        streaming.update("data", transient, -1.0)
        rebuilt = RangeQueryEstimator(domain, num_instances=64, seed=7)
        rebuilt.update("data", keep)
        query = BoxSet((10,), (100,))
        assert np.allclose(streaming.estimate(query).instance_values,
                           rebuilt.estimate(query).instance_values)
        assert streaming.count == 30

    def test_selectivity(self, rng):
        domain = Domain(128)
        data = random_boxes(rng, 50, 128, 1)
        estimator = RangeQueryEstimator(domain, num_instances=128, seed=9)
        estimator.update("data", data)
        result = estimator.estimate(BoxSet((0,), (127,)))
        assert result.selectivity == pytest.approx(result.estimate / 50)

    def test_query_validation(self, rng):
        domain = Domain(128)
        estimator = RangeQueryEstimator(domain, num_instances=8, seed=1)
        estimator.update("data", random_boxes(rng, 10, 128, 1))
        with pytest.raises(Exception):
            estimator.estimate(BoxSet((0, 0), (5, 5)))

    def test_estimate_before_insert_raises(self):
        estimator = RangeQueryEstimator(Domain(64), num_instances=4)
        with pytest.raises(EstimationError):
            estimator.estimate(BoxSet((0,), (10,)))

    def test_check_queries_keeps_passing_rows_and_keys_refusals_by_position(self, rng):
        estimator = RangeQueryEstimator(Domain.square(64, dimension=2), num_instances=8, seed=1)
        estimator.update("data", random_boxes(rng, 10, 64, 2))
        queries = [
            BoxSet((0, 0), (9, 9)),
            None,
            BoxSet(np.array([[0, 0], [1, 1]]), np.array([[3, 3], [4, 4]])),
            BoxSet(3, 7),
            BoxSet((8, 2), (4, 9), validate=False),
            BoxSet((0, 0), (70, 9)),
            BoxSet((2, 2), (30, 30)),
        ]
        checked, refused = estimator.check_queries(queries)
        assert checked.lows.tolist() == [[0, 0], [2, 2]]
        assert checked.highs.tolist() == [[9, 9], [30, 30]]
        messages = {row: str(error) for row, error in refused.items()}
        assert sorted(messages) == [1, 2, 3, 4, 5]
        assert "needs a query rectangle" in messages[1]
        assert "exactly one rectangle" in messages[2]
        assert "2-dimensional" in messages[3]
        assert "lower endpoint above" in messages[4]
        assert "outside the domain" in messages[5]

    def test_a_bare_number_is_no_query(self, rng):
        estimator = RangeQueryEstimator(Domain(64), num_instances=8, seed=1)
        estimator.update("data", random_boxes(rng, 10, 64, 1))
        with pytest.raises(QueryError, match="not a count"):
            estimator.estimate_batch(3)
        with pytest.raises(QueryError, match="exactly one rectangle"):
            estimator.estimate(3)

    def test_a_box_set_batch_answers_like_its_rows(self, rng):
        estimator = RangeQueryEstimator(Domain.square(64, dimension=2), num_instances=64, seed=4)
        estimator.update("data", random_boxes(rng, 40, 64, 2))
        queries = BoxSet(np.array([[0, 0], [10, 20], [40, 5]]),
                         np.array([[63, 63], [30, 25], [50, 60]]))
        batch = [result.estimate for result in estimator.estimate_batch(queries)]
        rows = [result.estimate for result in estimator.estimate_batch(list(queries))]
        single = [estimator.estimate(row).estimate for row in queries]
        assert batch == rows == single
