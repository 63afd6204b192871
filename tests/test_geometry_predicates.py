"""Tests for repro.geometry.predicates."""

import numpy as np
import pytest

from repro.errors import DimensionalityError
from repro.geometry.boxset import BoxSet
from repro.geometry.predicates import (
    containment_matrix,
    overlap_matrix,
    overlaps,
    pairwise_linf_distances,
    proper_mask,
)


def points(coords) -> BoxSet:
    """Points as degenerate boxes (``lo == hi``)."""
    coords = np.asarray(coords)
    return BoxSet(coords, coords)


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

#: (r, s, strict, closed, r contains s): one pair per case of Figure 3,
#: with r the first argument, plus the two ways a point meets an interval.
FIGURE3_CASES = {
    "disjoint": ((0, 2), (5, 9), False, False, False),
    "meet": ((0, 5), (5, 9), False, True, False),
    "overlap": ((0, 6), (3, 9), True, True, False),
    "contain": ((0, 9), (2, 6), True, True, True),
    "contain-meet": ((0, 9), (4, 9), True, True, True),
    "identical": ((1, 8), (1, 8), True, True, True),
    "point-inside": ((0, 10), (5, 5), False, True, True),
    "point-on-endpoint": ((0, 10), (10, 10), False, True, True),
}


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
        cube = BoxSet((0, 0, 0), (10, 10, 10))
        plane = BoxSet((5, 0, 0), (5, 10, 10))
        assert not overlap_matrix(cube, plane)[0, 0] and not overlap_matrix(plane, cube)[0, 0]
        assert overlap_matrix(cube, plane, closed=True)[0, 0]
        assert overlap_matrix(plane, cube, closed=True)[0, 0]

    def test_proper_mask_needs_a_positive_extent_in_every_dimension(self):
        boxes = BoxSet(np.array([[0, 0], [3, 3], [1, 2]]), np.array([[4, 4], [3, 9], [2, 2]]))
        assert proper_mask(boxes).tolist() == [True, False, False]


class TestFigure3Cases:
    @pytest.mark.parametrize("r, s, strict, closed, contains", FIGURE3_CASES.values(),
                             ids=FIGURE3_CASES.keys())
    def test_every_predicate_agrees_on_the_case(self, r, s, strict, closed, contains):
        for a, b in ((r, s), (s, r)):
            assert overlaps(*a, *b) is strict
            assert overlaps(*a, *b, closed=True) is closed
        left, right = BoxSet.from_intervals([r]), BoxSet.from_intervals([s])
        assert overlap_matrix(left, right)[0, 0] == strict
        assert overlap_matrix(right, left, closed=True)[0, 0] == closed
        assert containment_matrix(left, right)[0, 0] == contains

    def test_a_box_overlaps_another_when_every_dimension_does(self, rng):
        for _ in range(50):
            lows = rng.integers(0, 20, size=(2, 2))
            extents = rng.integers(0, 10, size=(2, 2))
            a = BoxSet(lows[0], lows[0] + extents[0])
            b = BoxSet(lows[1], lows[1] + extents[1])
            sides = [(BoxSet(a.lows[:, d], a.highs[:, d]), BoxSet(b.lows[:, d], b.highs[:, d]))
                     for d in range(2)]
            for closed in (False, True):
                assert overlap_matrix(a, b, closed=closed)[0, 0] == all(
                    overlaps(x.lows[0, 0], x.highs[0, 0], y.lows[0, 0], y.highs[0, 0],
                             closed=closed) for x, y in sides)
            assert containment_matrix(a, b)[0, 0] == all(
                containment_matrix(x, y)[0, 0] for x, y in sides)


class TestMatrixPredicates:
    def test_overlap_matrix_matches_scalar(self):
        left = BoxSet(np.array([[0, 0], [10, 10]]), np.array([[5, 5], [20, 20]]))
        right = BoxSet(np.array([[4, 4], [30, 30]]), np.array([[12, 12], [40, 40]]))
        matrix = overlap_matrix(left, right)
        for i in range(2):
            for j in range(2):
                assert matrix[i, j] == np.all(overlaps(left.lows[i], left.highs[i],
                                                       right.lows[j], right.highs[j]))

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

    def test_pairwise_linf(self):
        a = points([[0, 0]])
        b = points([[3, 7], [1, 1]])
        distances = pairwise_linf_distances(a, b)
        assert distances[0, 0] == 7
        assert distances[0, 1] == 1

    def test_containment_matrix_holds_points_on_the_boundary(self):
        boxes = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
        inner = points([[5, 5], [0, 10], [10, 0], [11, 2]])
        assert containment_matrix(boxes, inner)[0].tolist() == [
            True, True, True, False]

    def test_pairwise_linf_matches_the_pointwise_maximum(self, rng):
        a = points(rng.integers(0, 50, size=(6, 3)))
        b = points(rng.integers(0, 50, size=(4, 3)))
        distances = pairwise_linf_distances(a, b)
        assert distances.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                assert distances[i, j] == max(abs(x - y) for x, y in
                                              zip(a.lows[i], b.lows[j]))
        assert np.array_equal(pairwise_linf_distances(b, a), distances.T)
        assert not pairwise_linf_distances(a, a).diagonal().any()

    @pytest.mark.parametrize("predicate", [overlap_matrix, containment_matrix])
    def test_box_matrices_refuse_a_dimension_mismatch(self, predicate):
        flat = BoxSet(np.array([[0]]), np.array([[5]]))
        square = BoxSet(np.array([[0, 0]]), np.array([[5, 5]]))
        with pytest.raises(DimensionalityError):
            predicate(flat, square)

    def test_pairwise_linf_refuses_a_dimension_mismatch(self):
        with pytest.raises(DimensionalityError):
            pairwise_linf_distances(points([[0, 0]]), points([[1, 2, 3]]))


class TestIntervalCases:
    def test_contains_interval(self):
        outer = BoxSet.from_intervals([(0, 10)])
        inner = BoxSet.from_intervals([(2, 8), (0, 10), (5, 12)])
        assert containment_matrix(outer, inner)[0].tolist() == [True, True, False]

    def test_strict_overlap_excludes_touching(self):
        assert overlaps(0, 5, 4, 9)
        assert not overlaps(0, 5, 5, 9)
        assert not overlaps(0, 5, 6, 9)

    def test_strict_overlap_of_identical_intervals(self):
        assert overlaps(3, 7, 3, 7)

    def test_extended_overlap_includes_touching(self):
        assert overlaps(0, 5, 5, 9, closed=True)
        assert not overlaps(0, 5, 6, 9, closed=True)

    def test_overlap_is_symmetric(self):
        for closed in (False, True):
            assert overlaps(0, 6, 4, 10, closed=closed) == overlaps(4, 10, 0, 6, closed=closed)


class TestBoxCases:
    @pytest.fixture
    def unit_square(self) -> BoxSet:
        return BoxSet((0, 0), (9, 9))

    def test_overlap_requires_all_dimensions(self, unit_square):
        assert not overlap_matrix(unit_square, BoxSet((5, 20), (15, 30)))[0, 0]
        assert overlap_matrix(unit_square, BoxSet((5, 5), (15, 15)))[0, 0]

    def test_touching_is_not_strict_overlap(self, unit_square):
        touching = BoxSet((9, 0), (15, 9))
        assert not overlap_matrix(unit_square, touching)[0, 0]
        assert overlap_matrix(unit_square, touching, closed=True)[0, 0]

    def test_containment(self, unit_square):
        assert containment_matrix(unit_square, BoxSet((2, 2), (5, 5)))[0, 0]
        assert not containment_matrix(unit_square, BoxSet((2, 2), (15, 5)))[0, 0]
