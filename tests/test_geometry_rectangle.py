"""Tests for repro.geometry.rectangle."""

import pytest

from repro.errors import DimensionalityError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rect


@pytest.fixture
def unit_square() -> Rect:
    return Rect.from_bounds((0, 0), (9, 9))


class TestConstruction:
    def test_from_bounds(self):
        rect = Rect.from_bounds((1, 2), (5, 8))
        assert rect.lows == (1, 2)
        assert rect.highs == (5, 8)
        assert rect.dimension == 2

    def test_interval_constructor(self):
        rect = Rect.interval(3, 9)
        assert rect.dimension == 1
        assert rect.ranges[0] == Interval(3, 9)

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(DimensionalityError):
            Rect.from_bounds((0, 0), (1, 1, 1))

    def test_empty_rect_rejected(self):
        with pytest.raises(DimensionalityError):
            Rect(())


class TestPredicates:
    def test_overlap_requires_all_dimensions(self, unit_square):
        other = Rect.from_bounds((5, 20), (15, 30))
        assert not unit_square.overlaps(other)
        assert unit_square.overlaps(Rect.from_bounds((5, 5), (15, 15)))

    def test_touching_is_not_strict_overlap(self, unit_square):
        assert not unit_square.overlaps(Rect.from_bounds((9, 0), (15, 9)))
        assert unit_square.overlaps_plus(Rect.from_bounds((9, 0), (15, 9)))

    def test_containment(self, unit_square):
        assert unit_square.contains(Rect.from_bounds((2, 2), (5, 5)))
        assert not unit_square.contains(Rect.from_bounds((2, 2), (15, 5)))

    def test_contains_point(self, unit_square):
        assert unit_square.contains_point((0, 9))
        assert not unit_square.contains_point((10, 5))

    def test_dimension_mismatch_raises(self, unit_square):
        with pytest.raises(DimensionalityError):
            unit_square.overlaps(Rect.interval(0, 5))


class TestOperations:
    def test_intersection(self, unit_square):
        other = Rect.from_bounds((5, 5), (20, 20))
        assert unit_square.intersection(other) == Rect.from_bounds((5, 5), (9, 9))

    def test_intersection_disjoint(self, unit_square):
        assert unit_square.intersection(Rect.from_bounds((20, 20), (30, 30))) is None

    def test_expanded(self):
        rect = Rect.from_bounds((5, 5), (6, 6)).expanded(2)
        assert rect == Rect.from_bounds((3, 3), (8, 8))
