"""Tests for repro.geometry.interval."""

import pytest

from repro.errors import DomainError
from repro.geometry.interval import Interval


class TestConstruction:
    def test_valid_interval(self):
        interval = Interval(3, 9)
        assert interval.lo == 3
        assert interval.hi == 9

    def test_degenerate_interval_allowed(self):
        assert tuple(Interval(5, 5)) == (5, 5)

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(DomainError):
            Interval(7, 3)

    def test_iteration_yields_endpoints(self):
        assert tuple(Interval(1, 8)) == (1, 8)

    def test_ordering_is_lexicographic(self):
        assert Interval(1, 5) < Interval(2, 3)
        assert Interval(1, 3) < Interval(1, 5)


class TestPredicates:
    def test_contains_point_boundaries(self):
        interval = Interval(10, 20)
        assert interval.contains_point(10)
        assert interval.contains_point(20)
        assert not interval.contains_point(9)
        assert not interval.contains_point(21)

    def test_contains_interval(self):
        assert Interval(0, 10).contains(Interval(2, 8))
        assert Interval(0, 10).contains(Interval(0, 10))
        assert not Interval(0, 10).contains(Interval(5, 12))

    def test_strict_overlap_excludes_touching(self):
        assert Interval(0, 5).overlaps(Interval(4, 9))
        assert not Interval(0, 5).overlaps(Interval(5, 9))
        assert not Interval(0, 5).overlaps(Interval(6, 9))

    def test_strict_overlap_of_identical_intervals(self):
        assert Interval(3, 7).overlaps(Interval(3, 7))

    def test_extended_overlap_includes_touching(self):
        assert Interval(0, 5).overlaps_plus(Interval(5, 9))
        assert not Interval(0, 5).overlaps_plus(Interval(6, 9))

    def test_overlap_is_symmetric(self):
        a, b = Interval(0, 6), Interval(4, 10)
        assert a.overlaps(b) == b.overlaps(a)
        assert a.overlaps_plus(b) == b.overlaps_plus(a)


class TestOperations:
    def test_intersection_of_overlapping(self):
        assert Interval(0, 6).intersection(Interval(4, 10)) == Interval(4, 6)

    def test_intersection_of_touching(self):
        assert Interval(0, 5).intersection(Interval(5, 9)) == Interval(5, 5)

    def test_intersection_of_disjoint_is_none(self):
        assert Interval(0, 4).intersection(Interval(6, 9)) is None

    def test_expanded(self):
        assert Interval(5, 7).expanded(2) == Interval(3, 9)

    def test_expanded_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            Interval(5, 7).expanded(-1)
