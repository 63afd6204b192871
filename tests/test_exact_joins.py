"""Tests for the exact join counters (ground-truth algorithms)."""

import numpy as np
import pytest

from repro.errors import DimensionalityError
from repro.exact.containment import containment_join_count
from repro.exact.epsilon_join import epsilon_join_count
from repro.exact.interval_join import interval_join_count
from repro.exact.range_query import range_query_count
from repro.exact.rectangle_join import (
    brute_force_join_count,
    plane_sweep_join_count,
    rectangle_join_count,
)
from repro.geometry.boxset import BoxSet
from repro.geometry.predicates import (
    containment_matrix,
    overlap_matrix,
    overlaps,
    pairwise_linf_distances,
)

from tests.conftest import random_boxes


def points(coords) -> BoxSet:
    """Points as degenerate boxes (``lo == hi``)."""
    coords = np.asarray(coords)
    return BoxSet(coords, coords)


class TestIntervalJoin:
    def test_simple_overlap(self):
        left = BoxSet.from_intervals([(0, 10)])
        right = BoxSet.from_intervals([(5, 15), (20, 30)])
        assert interval_join_count(left, right) == 1

    def test_touching_only_counts_when_closed(self):
        left = BoxSet.from_intervals([(0, 10)])
        right = BoxSet.from_intervals([(10, 20)])
        assert interval_join_count(left, right) == 0
        assert interval_join_count(left, right, closed=True) == 1

    def test_degenerate_intervals_ignored_for_strict(self):
        left = BoxSet.from_intervals([(5, 5)])
        right = BoxSet.from_intervals([(0, 10)])
        assert interval_join_count(left, right) == 0
        assert interval_join_count(left, right, closed=True) == 1

    def test_empty_inputs(self):
        left = BoxSet.from_intervals([(0, 10)])
        assert interval_join_count(left, BoxSet.empty(1)) == 0
        assert interval_join_count(BoxSet.empty(1), left) == 0

    def test_matches_matrix_oracle(self, rng):
        for _ in range(10):
            left = random_boxes(rng, 40, 100, 1)
            right = random_boxes(rng, 35, 100, 1)
            expected = int(overlap_matrix(left, right).sum())
            assert interval_join_count(left, right) == expected

    @pytest.mark.parametrize("closed", [False, True])
    def test_count_is_symmetric(self, rng, closed):
        left = random_boxes(rng, 45, 80, 1, allow_degenerate=True)
        right = random_boxes(rng, 30, 80, 1, allow_degenerate=True)
        assert interval_join_count(left, right, closed=closed) == \
            interval_join_count(right, left, closed=closed)

    def test_closed_matches_matrix_oracle(self, rng):
        left = random_boxes(rng, 50, 60, 1, allow_degenerate=True)
        right = random_boxes(rng, 50, 60, 1, allow_degenerate=True)
        expected = int(overlap_matrix(left, right, closed=True).sum())
        assert interval_join_count(left, right, closed=True) == expected


class TestRectangleJoin:
    def test_brute_force_simple(self):
        left = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
        right = BoxSet(np.array([[5, 5], [20, 20]]), np.array([[15, 15], [30, 30]]))
        assert brute_force_join_count(left, right) == 1

    def test_plane_sweep_matches_brute_force(self, rng):
        for trial in range(8):
            left = random_boxes(rng, 60, 200, 2)
            right = random_boxes(rng, 70, 200, 2)
            assert plane_sweep_join_count(left, right) == \
                brute_force_join_count(left, right), f"trial {trial}"

    def test_plane_sweep_matches_brute_force_closed(self, rng):
        for _ in range(5):
            left = random_boxes(rng, 40, 50, 2, allow_degenerate=True)
            right = random_boxes(rng, 40, 50, 2, allow_degenerate=True)
            assert plane_sweep_join_count(left, right, closed=True) == \
                brute_force_join_count(left, right, closed=True)

    def test_plane_sweep_with_shared_coordinates(self, rng):
        # Snap coordinates to a coarse grid so ties are frequent.
        left = random_boxes(rng, 80, 64, 2)
        right = random_boxes(rng, 80, 64, 2)
        left = BoxSet((left.lows // 8) * 8, np.maximum((left.highs // 8) * 8, (left.lows // 8) * 8 + 1))
        right = BoxSet((right.lows // 8) * 8, np.maximum((right.highs // 8) * 8, (right.lows // 8) * 8 + 1))
        assert plane_sweep_join_count(left, right) == brute_force_join_count(left, right)

    def test_dispatcher_consistency(self, rng):
        left = random_boxes(rng, 30, 100, 2)
        right = random_boxes(rng, 30, 100, 2)
        assert rectangle_join_count(left, right) == brute_force_join_count(left, right)

    def test_dispatcher_one_dimension(self, rng):
        left = random_boxes(rng, 30, 100, 1)
        right = random_boxes(rng, 30, 100, 1)
        assert rectangle_join_count(left, right) == interval_join_count(left, right)

    def test_dispatcher_three_dimensions(self, rng):
        left = random_boxes(rng, 25, 40, 3)
        right = random_boxes(rng, 25, 40, 3)
        expected = int(overlap_matrix(left, right).sum())
        assert rectangle_join_count(left, right) == expected

    def test_dispatcher_sweeps_large_planar_inputs_exactly(self, rng):
        # Past 2000 boxes the dispatcher switches to the plane sweep.
        left = random_boxes(rng, 1100, 4096, 2, max_extent=200)
        right = random_boxes(rng, 1000, 4096, 2, max_extent=200)
        expected = brute_force_join_count(left, right)
        assert rectangle_join_count(left, right) == expected
        assert rectangle_join_count(left, right, closed=True) == \
            brute_force_join_count(left, right, closed=True)

    def test_empty_inputs(self):
        left = BoxSet(np.array([[0, 0]]), np.array([[5, 5]]))
        assert rectangle_join_count(left, BoxSet.empty(2)) == 0
        assert plane_sweep_join_count(BoxSet.empty(2), left) == 0


class TestContainmentJoin:
    def test_simple(self):
        outer = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
        inner = BoxSet(np.array([[2, 2], [8, 8]]), np.array([[5, 5], [12, 12]]))
        assert containment_join_count(outer, inner) == 1

    def test_boundary_containment_counts(self):
        outer = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
        inner = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
        assert containment_join_count(outer, inner) == 1

    def test_matches_matrix_oracle(self, rng):
        from repro.geometry.predicates import containment_matrix

        outer = random_boxes(rng, 40, 80, 2)
        inner = random_boxes(rng, 40, 80, 2, max_extent=10)
        expected = int(containment_matrix(outer, inner).sum())
        assert containment_join_count(outer, inner) == expected

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_matches_matrix_oracle_off_the_plane(self, rng, dimension):
        from repro.geometry.predicates import containment_matrix

        outer = random_boxes(rng, 40, 40, dimension, max_extent=30)
        inner = random_boxes(rng, 40, 40, dimension, max_extent=6)
        expected = int(containment_matrix(outer, inner).sum())
        assert expected > 0
        assert containment_join_count(outer, inner) == expected


class TestEpsilonJoin:
    def test_simple(self):
        left = points([[0, 0]])
        right = points([[3, 3], [10, 10]])
        assert epsilon_join_count(left, right, 3) == 1
        assert epsilon_join_count(left, right, 2) == 0

    def test_epsilon_zero_counts_exact_matches(self):
        left = points([[5, 5], [5, 5]])
        right = points([[5, 5], [6, 6]])
        assert epsilon_join_count(left, right, 0) == 2

    @pytest.mark.parametrize("dimension, size", [(1, 12), (2, 5), (3, 3)])
    def test_epsilon_zero_matches_the_distance_matrix(self, rng, dimension, size):
        # epsilon == 0 takes the grid path with unit cells: a pair counts
        # exactly when the two points coincide.
        left = points(rng.integers(0, size, size=(40, dimension)))
        right = points(rng.integers(0, size, size=(45, dimension)))
        expected = int((pairwise_linf_distances(left, right) == 0).sum())
        assert expected > 0
        assert epsilon_join_count(left, right, 0) == expected

    def test_matches_matrix_oracle(self, rng):
        left = points(rng.integers(0, 100, size=(60, 2)))
        right = points(rng.integers(0, 100, size=(70, 2)))
        for epsilon in (1, 5, 17):
            expected = int((pairwise_linf_distances(left, right) <= epsilon).sum())
            assert epsilon_join_count(left, right, epsilon) == expected

    def test_one_dimensional(self, rng):
        left = points(rng.integers(0, 200, size=(50, 1)))
        right = points(rng.integers(0, 200, size=(45, 1)))
        for epsilon in (0, 3, 40):
            expected = int((pairwise_linf_distances(left, right) <= epsilon).sum())
            assert epsilon_join_count(left, right, epsilon) == expected

    def test_three_dimensional(self, rng):
        left = points(rng.integers(0, 30, size=(40, 3)))
        right = points(rng.integers(0, 30, size=(40, 3)))
        expected = int((pairwise_linf_distances(left, right) <= 4).sum())
        assert epsilon_join_count(left, right, 4) == expected

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_counts_the_points_inside_each_grown_box(self, rng, dimension):
        # A pair is within L-infinity distance epsilon exactly when the right
        # point lies in the left point's box grown by epsilon on every side.
        left = points(rng.integers(0, 40, size=(30, dimension)))
        right = points(rng.integers(0, 40, size=(35, dimension)))
        epsilon = 3
        grown = BoxSet(left.lows - epsilon, left.highs + epsilon)
        expected = int(containment_matrix(grown, right).sum())
        assert expected > 0
        assert epsilon_join_count(left, right, epsilon) == expected


class TestRangeQuery:
    def test_count(self, rng):
        data = random_boxes(rng, 50, 100, 2)
        query = BoxSet((20, 20), (60, 60))
        count = range_query_count(data, query)
        expected = sum(1 for box in data
                       if np.all(overlaps(box.lows, box.highs, query.lows, query.highs,
                                          closed=True)))
        assert count == expected

    def test_a_box_touching_the_query_counts(self):
        data = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
        query = BoxSet((10, 0), (20, 10))
        assert range_query_count(data, query) == 1

    def test_empty_data(self):
        assert range_query_count(BoxSet.empty(2), BoxSet((0, 0), (5, 5))) == 0

    def test_flat_bounds_query_counts_like_its_row(self, rng):
        data = random_boxes(rng, 80, 100, 2)
        flat = BoxSet((15, 30), (70, 55))
        row = BoxSet(np.array([[15, 30]]), np.array([[70, 55]]))
        assert range_query_count(data, row) == range_query_count(data, flat)

    def test_refuses_a_query_that_is_not_one_box_of_the_data_dimension(self, rng):
        data = random_boxes(rng, 20, 100, 2)
        with pytest.raises(DimensionalityError, match="exactly one rectangle"):
            range_query_count(data, BoxSet(np.array([[0, 0], [5, 5]]),
                                           np.array([[9, 9], [20, 20]])))
        with pytest.raises(DimensionalityError, match="does not match the data"):
            range_query_count(data, BoxSet(10, 30))

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_matches_the_overlap_oracle(self, rng, dimension):
        data = random_boxes(rng, 90, 50, dimension)
        query = BoxSet(np.full((1, dimension), 10), np.full((1, dimension), 30))
        expected = int(overlap_matrix(data, query, closed=True).sum())
        assert range_query_count(data, query) == expected


class TestZeroExtentBoxes:
    """A zero-width box inside another box is no strict pair for any counter."""

    OUTER = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
    LINE = BoxSet(np.array([[5, 5]]), np.array([[5, 9]]))

    @pytest.mark.parametrize("count", [
        lambda a, b, closed: int(overlap_matrix(a, b, closed=closed).sum()),
        lambda a, b, closed: int(np.all(overlaps(a.lows[0], a.highs[0], b.lows[0], b.highs[0],
                                                 closed=closed))),
    ], ids=["overlap_matrix", "overlaps"])
    def test_only_the_closed_rule_counts_the_pair(self, count):
        for a, b in ((self.OUTER, self.LINE), (self.LINE, self.OUTER)):
            assert count(a, b, False) == 0
            assert count(a, b, True) == 1

    def test_the_closed_range_count_counts_the_pair(self):
        for a, b in ((self.OUTER, self.LINE), (self.LINE, self.OUTER)):
            assert range_query_count(a, b) == 1

    @pytest.mark.parametrize("count", [1, 7, 512, 1100])
    def test_brute_force_chunks_count_like_the_matrix(self, rng, count):
        """Chunks of 512 left boxes: one partial chunk, one full one, and
        a last chunk that is partial."""
        left = random_boxes(rng, count, 32, 2, allow_degenerate=True)
        right = random_boxes(rng, 75, 32, 2, allow_degenerate=True)
        for closed in (False, True):
            assert brute_force_join_count(left, right, closed=closed) == \
                int(overlap_matrix(left, right, closed=closed).sum())
