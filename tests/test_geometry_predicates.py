"""Tests for repro.geometry.predicates and relationships."""

import numpy as np
import pytest

from repro.geometry.boxset import BoxSet, PointSet
from repro.geometry.interval import Interval
from repro.geometry.predicates import (
    containment_matrix,
    interval_contains,
    interval_overlap,
    interval_overlap_plus,
    l1_distance,
    l2_distance,
    linf_distance,
    overlap_matrix,
    overlaps,
    pairwise_linf_distances,
    point_in_box_matrix,
    proper_mask,
    rect_contains,
    rect_overlap,
    rect_overlap_plus,
)
from repro.geometry.rectangle import Rect
from repro.geometry.relationships import (
    IntervalRelationship,
    classify_intervals,
    classify_rects,
    rects_overlap_from_relationship,
    rects_overlap_plus_from_relationship,
)


#: (a, b, strict, closed): interval pairs around the edge cases of the rule.
OVERLAP_CASES = [
    ((0, 5), (3, 9), True, True),      # interiors cross
    ((0, 5), (5, 9), False, True),     # touch at one coordinate
    ((0, 3), (5, 9), False, False),    # apart
    ((0, 9), (3, 5), True, True),      # containment
    ((5, 5), (0, 10), False, True),    # a point inside an interval
    ((0, 10), (10, 10), False, True),  # a point on an endpoint
    ((4, 4), (4, 4), False, True),     # the same point twice
    ((4, 4), (6, 6), False, False),    # two points apart
]


class TestOverlapRule:
    @pytest.mark.parametrize("a, b, strict, closed", OVERLAP_CASES,
                             ids=[f"{a}-{b}" for a, b, _, _ in OVERLAP_CASES])
    def test_scalars_and_arrays_give_the_same_answer(self, a, b, strict, closed):
        for flag, expected in ((False, strict), (True, closed)):
            assert overlaps(*a, *b, closed=flag) is expected
            assert overlaps(*b, *a, closed=flag) is expected
            lows, highs = np.array([a[0], b[0]]), np.array([a[1], b[1]])
            assert overlaps(lows[:, None], highs[:, None], lows[None, :], highs[None, :],
                            closed=flag)[0, 1] == expected

    def test_a_plane_inside_a_cube_overlaps_it_only_when_closed(self):
        cube = Rect.from_bounds((0, 0, 0), (10, 10, 10))
        plane = Rect.from_bounds((5, 0, 0), (5, 10, 10))
        assert not cube.overlaps(plane) and not plane.overlaps(cube)
        assert cube.overlaps_plus(plane) and plane.overlaps_plus(cube)

    def test_proper_mask_needs_a_positive_extent_in_every_dimension(self):
        boxes = BoxSet(np.array([[0, 0], [3, 3], [1, 2]]), np.array([[4, 4], [3, 9], [2, 2]]))
        assert proper_mask(boxes).tolist() == [True, False, False]


class TestScalarPredicates:
    def test_interval_predicates_delegate(self):
        assert interval_overlap(Interval(0, 5), Interval(3, 9))
        assert not interval_overlap(Interval(0, 5), Interval(5, 9))
        assert interval_overlap_plus(Interval(0, 5), Interval(5, 9))
        assert interval_contains(Interval(0, 9), Interval(2, 5))

    def test_rect_predicates_delegate(self):
        a = Rect.from_bounds((0, 0), (5, 5))
        b = Rect.from_bounds((5, 5), (9, 9))
        assert not rect_overlap(a, b)
        assert rect_overlap_plus(a, b)
        assert rect_contains(Rect.from_bounds((0, 0), (9, 9)), a)


class TestDistances:
    def test_linf(self):
        assert linf_distance((0, 0), (3, 5)) == 5.0

    def test_l1(self):
        assert l1_distance((0, 0), (3, 5)) == 8.0

    def test_l2(self):
        assert l2_distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            linf_distance((0, 0), (1, 2, 3))


class TestMatrixPredicates:
    def test_overlap_matrix_matches_scalar(self):
        left = BoxSet(np.array([[0, 0], [10, 10]]), np.array([[5, 5], [20, 20]]))
        right = BoxSet(np.array([[4, 4], [30, 30]]), np.array([[12, 12], [40, 40]]))
        matrix = overlap_matrix(left, right)
        for i in range(2):
            for j in range(2):
                assert matrix[i, j] == left.rect(i).overlaps(right.rect(j))

    def test_overlap_matrix_closed(self):
        left = BoxSet(np.array([[0]]), np.array([[5]]))
        right = BoxSet(np.array([[5]]), np.array([[9]]))
        assert not overlap_matrix(left, right)[0, 0]
        assert overlap_matrix(left, right, closed=True)[0, 0]

    def test_containment_matrix(self):
        outer = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
        inner = BoxSet(np.array([[2, 2], [8, 8]]), np.array([[5, 5], [15, 15]]))
        matrix = containment_matrix(outer, inner)
        assert matrix[0, 0]
        assert not matrix[0, 1]

    def test_point_in_box_matrix(self):
        boxes = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
        points = PointSet(np.array([[5, 5], [11, 2]]))
        matrix = point_in_box_matrix(boxes, points)
        assert matrix[0, 0]
        assert not matrix[0, 1]

    def test_pairwise_linf(self):
        a = PointSet(np.array([[0, 0]]))
        b = PointSet(np.array([[3, 7], [1, 1]]))
        distances = pairwise_linf_distances(a, b)
        assert distances[0, 0] == 7
        assert distances[0, 1] == 1


class TestRelationships:
    @pytest.mark.parametrize("r, s, expected", [
        ((5, 5), (0, 10), IntervalRelationship.MEET),
        ((5, 5), (5, 5), IntervalRelationship.MEET),
    ])
    def test_a_point_interval_only_meets_or_is_disjoint(self, r, s, expected):
        assert classify_intervals(Interval(*r), Interval(*s)) is expected
        assert classify_intervals(Interval(*s), Interval(*r)) is expected
        assert not classify_intervals(Interval(*r), Interval(*s)).is_overlapping


    def test_disjoint(self):
        assert classify_intervals(Interval(0, 3), Interval(5, 9)) is IntervalRelationship.DISJOINT

    def test_meet(self):
        assert classify_intervals(Interval(0, 5), Interval(5, 9)) is IntervalRelationship.MEET

    def test_overlap(self):
        assert classify_intervals(Interval(0, 6), Interval(4, 9)) is IntervalRelationship.OVERLAP

    def test_contain(self):
        assert classify_intervals(Interval(0, 9), Interval(3, 5)) is IntervalRelationship.CONTAIN

    def test_contain_meet(self):
        rel = classify_intervals(Interval(0, 9), Interval(0, 5))
        assert rel is IntervalRelationship.CONTAIN_MEET

    def test_identical(self):
        rel = classify_intervals(Interval(2, 7), Interval(2, 7))
        assert rel is IntervalRelationship.IDENTICAL

    def test_symmetry(self):
        a, b = Interval(0, 9), Interval(3, 5)
        assert classify_intervals(a, b) == classify_intervals(b, a)

    def test_is_overlapping_flags(self):
        assert not IntervalRelationship.DISJOINT.is_overlapping
        assert not IntervalRelationship.MEET.is_overlapping
        assert IntervalRelationship.MEET.is_overlapping_plus
        assert IntervalRelationship.OVERLAP.is_overlapping
        assert IntervalRelationship.IDENTICAL.is_overlapping

    def test_classify_rects_matches_overlap_predicate(self, rng):
        for _ in range(50):
            lows = rng.integers(0, 20, size=(2, 2))
            extents = rng.integers(1, 10, size=(2, 2))
            a = Rect.from_bounds(lows[0], lows[0] + extents[0])
            b = Rect.from_bounds(lows[1], lows[1] + extents[1])
            relationship = classify_rects(a, b)
            assert rects_overlap_from_relationship(relationship) == a.overlaps(b)
            assert rects_overlap_plus_from_relationship(relationship) == a.overlaps_plus(b)

    def test_relationship_covers_figure3_cases(self):
        # One example per case of Figure 3, with r the first argument.
        cases = {
            IntervalRelationship.DISJOINT: (Interval(0, 2), Interval(5, 9)),
            IntervalRelationship.MEET: (Interval(0, 5), Interval(5, 9)),
            IntervalRelationship.OVERLAP: (Interval(0, 6), Interval(3, 9)),
            IntervalRelationship.CONTAIN: (Interval(0, 9), Interval(2, 6)),
            IntervalRelationship.CONTAIN_MEET: (Interval(0, 9), Interval(4, 9)),
            IntervalRelationship.IDENTICAL: (Interval(1, 8), Interval(1, 8)),
        }
        for expected, (r, s) in cases.items():
            assert classify_intervals(r, s) is expected
