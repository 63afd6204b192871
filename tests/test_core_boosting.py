"""Tests for median-of-means boosting and sketch sizing (Section 2.3, Lemma 1)."""

import numpy as np
import pytest

from repro.core.boosting import (
    BoostingPlan,
    _median,
    median_of_means,
    plan_boosting,
    split_instances,
)
from repro.errors import SketchConfigError


class TestBoostingPlan:
    def test_total_instances(self):
        plan = BoostingPlan(group_size=10, num_groups=5)
        assert plan.total_instances == 50

    def test_invalid_plan(self):
        with pytest.raises(SketchConfigError):
            BoostingPlan(group_size=0, num_groups=5)


class TestPlanBoosting:
    def test_lemma1_formula(self):
        # k1 = 8 Var / (eps^2 E^2), k2 = 2 lg(1/phi)
        plan = plan_boosting(epsilon=0.5, phi=0.25, variance_bound=100.0,
                             expectation_lower_bound=10.0)
        assert plan.group_size == 32
        assert plan.num_groups == 4

    def test_tighter_epsilon_needs_more_instances(self):
        loose = plan_boosting(0.5, 0.1, 1000.0, 10.0)
        tight = plan_boosting(0.1, 0.1, 1000.0, 10.0)
        assert tight.total_instances > loose.total_instances

    def test_higher_confidence_needs_more_groups(self):
        low = plan_boosting(0.3, 0.25, 100.0, 10.0)
        high = plan_boosting(0.3, 0.01, 100.0, 10.0)
        assert high.num_groups > low.num_groups

    def test_max_instances_cap(self):
        plan = plan_boosting(0.01, 0.01, 1e9, 1.0, max_instances=100)
        assert plan.total_instances <= 100

    def test_invalid_parameters(self):
        with pytest.raises(SketchConfigError):
            plan_boosting(0.0, 0.1, 1.0, 1.0)
        with pytest.raises(SketchConfigError):
            plan_boosting(0.1, 1.5, 1.0, 1.0)
        with pytest.raises(SketchConfigError):
            plan_boosting(0.1, 0.1, -1.0, 1.0)
        with pytest.raises(SketchConfigError):
            plan_boosting(0.1, 0.1, 1.0, 0.0)


class TestSplitInstances:
    def test_small_budgets(self):
        assert split_instances(1).total_instances == 1
        assert split_instances(2).num_groups == 1
        assert split_instances(4).num_groups == 3

    def test_large_budget_uses_nine_groups(self):
        plan = split_instances(900)
        assert plan.num_groups == 9
        assert plan.group_size == 100

    def test_invalid(self):
        with pytest.raises(SketchConfigError):
            split_instances(0)


class TestMedianOfMeans:
    def test_constant_values(self):
        estimate, groups = median_of_means(np.full(45, 7.0))
        assert estimate == 7.0
        assert len(groups) == 9

    def test_single_value(self):
        estimate, groups = median_of_means(np.array([3.5]))
        assert estimate == 3.5
        assert len(groups) == 1

    def test_median_resists_outliers(self):
        values = np.zeros(50)
        values[:5] = 1e9  # one contaminated group
        plan = BoostingPlan(group_size=5, num_groups=10)
        estimate, _ = median_of_means(values, plan)
        assert estimate == 0.0

    def test_plan_must_fit(self):
        with pytest.raises(SketchConfigError):
            median_of_means(np.zeros(10), BoostingPlan(group_size=6, num_groups=2))

    def test_empty_values_rejected(self):
        with pytest.raises(SketchConfigError):
            median_of_means(np.array([]))

    def test_extra_instances_are_ignored(self):
        values = np.concatenate([np.full(20, 5.0), np.full(5, 1e6)])
        plan = BoostingPlan(group_size=5, num_groups=4)
        estimate, _ = median_of_means(values, plan)
        assert estimate == 5.0

    def test_gaussian_concentration(self, rng):
        # With 100 groups of 50, the median of means of a unit Gaussian with
        # mean 10 should be very close to 10.
        values = rng.normal(10.0, 1.0, size=5000)
        plan = BoostingPlan(group_size=50, num_groups=100)
        estimate, _ = median_of_means(values, plan)
        assert estimate == pytest.approx(10.0, abs=0.15)


class TestPartitionMedian:
    """``_median`` stands in for ``np.median`` (which imports ``numpy.ma``)
    and must agree with it to the bit — NaN payloads and signs included."""

    def test_bit_identical_to_numpy_median(self, rng):
        quiet_nan_with_payload = np.frombuffer(
            np.uint64(0x7FF8000000000123).tobytes(), dtype=np.float64)[0]
        specials = np.array([np.nan, -np.nan, quiet_nan_with_payload,
                             np.inf, -np.inf])
        with np.errstate(invalid="ignore"):  # inf - inf inside the means
            for count in range(1, 11):
                for trial in range(160):
                    values = rng.normal(size=(7, count)) * 1000
                    if trial % 2:
                        hits = rng.integers(0, values.size,
                                            size=rng.integers(0, count + 1))
                        values.ravel()[hits] = rng.choice(specials,
                                                          size=len(hits))
                    assert (_median(values).tobytes()
                            == np.median(values, axis=1).tobytes())
                    for row in values:
                        assert (np.float64(_median(row)).tobytes()
                                == np.float64(np.median(row)).tobytes())
