"""Tests for adaptive maxLevel selection (Section 6.5) and EstimateResult."""

import numpy as np
import pytest

from repro.core.adaptive import candidate_levels, choose_max_level
from repro.core.domain import Domain
from repro.core.result import EstimateResult
from repro.core.selfjoin import dataset_self_join_size
from repro.errors import SketchConfigError
from repro.geometry.boxset import BoxSet

from tests.conftest import random_boxes


class TestChooseMaxLevel:
    def test_candidate_levels(self):
        domain = Domain(256)
        assert candidate_levels(domain) == list(range(9))

    def test_short_intervals_prefer_low_levels(self, rng):
        domain = Domain(1024)
        sample = random_boxes(rng, 150, 1024, 1, max_extent=4)
        level = choose_max_level(sample, domain)
        assert level <= 4

    def test_long_intervals_prefer_higher_levels(self, rng):
        domain = Domain(1024)
        lows = rng.integers(0, 200, size=(100, 1))
        highs = lows + rng.integers(400, 800, size=(100, 1))
        sample = BoxSet(lows, np.minimum(highs, 1023))
        short_level = choose_max_level(random_boxes(rng, 100, 1024, 1, max_extent=4), domain)
        long_level = choose_max_level(sample, domain)
        assert long_level > short_level

    def test_chosen_level_minimises_self_join_size(self, rng):
        domain = Domain(256)
        sample = random_boxes(rng, 80, 256, 1, max_extent=20)
        chosen = choose_max_level(sample, domain)
        profile = {level: dataset_self_join_size(sample, domain.with_max_level(level))
                   for level in candidate_levels(domain)}
        assert profile[chosen] == min(profile.values())

    def test_empty_sample_rejected(self):
        with pytest.raises(SketchConfigError):
            choose_max_level(BoxSet.empty(1), Domain(64))

    def test_two_dimensional_sample(self, rng):
        domain = Domain.square(128, dimension=2)
        sample = random_boxes(rng, 40, 128, 2, max_extent=8)
        level = choose_max_level(sample, domain)
        assert 0 <= level <= 7


class TestEstimateResult:
    def _result(self, values, estimate=None):
        values = np.asarray(values, dtype=np.float64)
        return EstimateResult(
            estimate=float(values.mean() if estimate is None else estimate),
            instance_values=values,
            group_means=np.array([values.mean()]),
            left_count=10,
            right_count=20,
        )

    def test_selectivity(self):
        result = self._result([50.0, 50.0])
        assert result.selectivity == pytest.approx(50.0 / 200)

    def test_relative_error(self):
        result = self._result([90.0], estimate=90.0)
        assert result.relative_error(100.0) == pytest.approx(0.1)
        assert result.relative_error(0.0) == pytest.approx(90.0)

    def test_selectivity_of_an_empty_input_is_the_estimate(self):
        result = EstimateResult(estimate=3.0, instance_values=np.array([3.0]),
                                group_means=np.array([3.0]), left_count=0, right_count=0)
        assert result.selectivity == 3.0

    def test_float_conversion(self):
        assert float(self._result([7.0], estimate=7.0)) == 7.0

    def test_num_instances(self):
        assert self._result([1.0, 2.0, 3.0]).num_instances == 3
