"""Tests for the Geometric and Euler histogram baselines (Section 7 comparators)."""

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.data import synthetic
from repro.errors import DimensionalityError, SketchConfigError
from repro.exact.rectangle_join import rectangle_join_count
from repro.geometry.boxset import BoxSet
from repro.histograms.euler import EulerHistogram
from repro.histograms.geometric import GeometricHistogram


@pytest.fixture
def workload(rng):
    domain = Domain.square(1024, dimension=2)
    left = synthetic.generate_rectangles(800, domain, rng=rng)
    right = synthetic.generate_rectangles(800, domain, rng=rng)
    truth = rectangle_join_count(left, right)
    return domain, left, right, truth


class TestGridHistogramBase:
    def test_requires_two_dimensions(self):
        with pytest.raises(Exception):
            GeometricHistogram(Domain(64), level=2)

    def test_negative_level_rejected(self):
        with pytest.raises(SketchConfigError):
            GeometricHistogram(Domain.square(64, 2), level=-1)

    def test_incompatible_levels_rejected(self, workload):
        domain, left, right, _ = workload
        a = GeometricHistogram(domain, level=3)
        b = GeometricHistogram(domain, level=4)
        a.insert(left)
        b.insert(right)
        with pytest.raises(SketchConfigError):
            a.estimate_join(b)

    def test_mixed_types_rejected(self, workload):
        domain, left, right, _ = workload
        a = GeometricHistogram(domain, level=3)
        b = EulerHistogram(domain, level=3)
        a.insert(left)
        b.insert(right)
        with pytest.raises(SketchConfigError):
            a.estimate_join(b)

    def test_out_of_domain_boxes_rejected(self, workload):
        domain, *_ = workload
        histogram = GeometricHistogram(domain, level=3)
        with pytest.raises(Exception):
            histogram.insert(BoxSet(np.array([[0, 0]]), np.array([[5000, 10]])))


@pytest.mark.parametrize("kind", [GeometricHistogram, EulerHistogram],
                         ids=["GH", "EH"])
class TestBothHistograms:
    def test_estimate_is_symmetric(self, workload, kind):
        domain, left, right, _ = workload
        a, b = kind(domain, level=3), kind(domain, level=3)
        a.insert(left)
        b.insert(right)
        assert a.estimate_join(b) == pytest.approx(b.estimate_join(a))

    def test_estimate_is_linear_in_the_inserted_copies(self, workload, kind):
        domain, left, right, _ = workload
        single, double, other = (kind(domain, level=3) for _ in range(3))
        single.insert(left)
        double.insert(left)
        double.insert(left)
        other.insert(right)
        assert double.estimate_join(other) == pytest.approx(2 * single.estimate_join(other))

    def test_a_batch_split_in_two_inserts_as_one(self, workload, kind):
        domain, left, right, _ = workload
        whole, split, other = (kind(domain, level=3) for _ in range(3))
        whole.insert(left)
        split.insert(left[:300])
        split.insert(left[300:])
        other.insert(right)
        assert split.count == whole.count
        assert split.estimate_join(other) == pytest.approx(whole.estimate_join(other))

    def test_a_refused_batch_changes_nothing(self, workload, kind):
        domain, left, right, _ = workload
        histogram, other = kind(domain, level=3), kind(domain, level=3)
        histogram.insert(left)
        other.insert(right)
        before = histogram.estimate_join(other)
        outside = BoxSet(np.vstack([right.lows[:5], [[0, 0]]]),
                         np.vstack([right.highs[:5], [[5000, 10]]]))
        with pytest.raises(DimensionalityError):
            histogram.insert(outside)
        assert histogram.count == len(left)
        assert histogram.estimate_join(other) == before

    def test_count_follows_inserts(self, workload, kind):
        domain, left, right, _ = workload
        histogram = kind(domain, level=2)
        histogram.insert(left)
        histogram.insert(right)
        assert histogram.count == len(left) + len(right)
        assert (histogram.level, histogram.cells_per_dim) == (2, 4)


class TestGeometricHistogram:
    def test_reasonable_accuracy_on_uniform_data(self, workload):
        domain, left, right, truth = workload
        gh_left = GeometricHistogram(domain, level=4)
        gh_right = GeometricHistogram(domain, level=4)
        gh_left.insert(left)
        gh_right.insert(right)
        estimate = gh_left.estimate_join(gh_right)
        assert estimate == pytest.approx(truth, rel=0.35)

    def test_storage_words(self, workload):
        domain, *_ = workload
        assert GeometricHistogram(domain, level=5).storage_words() == 4 ** 6

    def test_empty_histogram_estimates_zero(self, workload):
        domain, left, *_ = workload
        a = GeometricHistogram(domain, level=3)
        b = GeometricHistogram(domain, level=3)
        a.insert(left)
        assert b.count == 0
        assert a.estimate_join(b) == 0.0


class TestEulerHistogram:

    def test_join_estimate_in_right_ballpark_at_coarse_level(self, workload):
        domain, left, right, truth = workload
        eh_left = EulerHistogram(domain, level=3)
        eh_right = EulerHistogram(domain, level=3)
        eh_left.insert(left)
        eh_right.insert(right)
        estimate = eh_left.estimate_join(eh_right)
        assert estimate == pytest.approx(truth, rel=0.6)

    def test_storage_words_formula(self, workload):
        domain, *_ = workload
        histogram = EulerHistogram(domain, level=4)
        assert histogram.storage_words() == 9 * 256 - 6 * 16 + 1

    def test_estimate_is_non_negative(self, workload):
        domain, left, right, _ = workload
        eh_left = EulerHistogram(domain, level=5)
        eh_right = EulerHistogram(domain, level=5)
        eh_left.insert(left)
        eh_right.insert(right)
        assert eh_left.estimate_join(eh_right) >= 0.0
