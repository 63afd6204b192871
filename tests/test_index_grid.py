"""Tests for the uniform grid index."""

import numpy as np
import pytest

from repro.errors import DimensionalityError, SketchConfigError
from repro.exact.rectangle_join import brute_force_join_count
from repro.geometry.boxset import BoxSet
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex

from tests.conftest import random_boxes


class TestGridIndex:
    def test_empty_input_rejected(self):
        with pytest.raises(SketchConfigError):
            GridIndex(BoxSet.empty(2))

    def test_invalid_cells_rejected(self, rng):
        with pytest.raises(SketchConfigError):
            GridIndex(random_boxes(rng, 5, 100, 2), cells_per_dim=0)

    def test_candidates_superset_of_matches(self, rng):
        data = random_boxes(rng, 100, 200, 2)
        index = GridIndex(data, cells_per_dim=16)
        query = Rect.from_bounds((50, 50), (120, 90))
        candidates = set(index.candidates(query).tolist())
        matches = set(index.query(query).tolist())
        assert matches <= candidates

    def test_query_matches_brute_force(self, rng):
        data = random_boxes(rng, 150, 200, 2)
        index = GridIndex(data, cells_per_dim=8)
        for _ in range(20):
            lo = rng.integers(0, 150, size=2)
            hi = lo + rng.integers(1, 60, size=2)
            query = Rect.from_bounds(lo, hi)
            expected = {i for i in range(len(data)) if data.rect(i).overlaps(query)}
            assert set(index.query(query).tolist()) == expected

    def test_query_closed_semantics(self, rng):
        data = BoxSet(np.array([[0, 0]]), np.array([[10, 10]]))
        index = GridIndex(data, cells_per_dim=4)
        touching = Rect.from_bounds((10, 0), (20, 10))
        assert index.query(touching).size == 0
        assert index.query(touching, closed=True).size == 1

    def test_join_count_matches_brute_force(self, rng):
        left = random_boxes(rng, 80, 150, 2)
        right = random_boxes(rng, 60, 150, 2)
        index = GridIndex(right, cells_per_dim=8)
        assert index.join_count(left) == brute_force_join_count(left, right)

    @pytest.mark.parametrize("cells", [1, 3, 64])
    def test_closed_join_count_matches_brute_force_at_any_resolution(self, rng, cells):
        left = random_boxes(rng, 50, 100, 2, allow_degenerate=True)
        right = random_boxes(rng, 40, 100, 2, allow_degenerate=True)
        index = GridIndex(right, cells_per_dim=cells)
        assert index.cells_per_dim == cells
        assert index.join_count(left, closed=True) == \
            brute_force_join_count(left, right, closed=True)

    def test_three_dimensional_data(self, rng):
        data = random_boxes(rng, 60, 40, 3)
        index = GridIndex(data, cells_per_dim=4)
        query = Rect.from_bounds((5, 10, 0), (25, 30, 20))
        expected = {i for i in range(len(data)) if data.rect(i).overlaps(query)}
        assert set(index.query(query).tolist()) == expected

    def test_query_outside_the_indexed_extent_finds_nothing(self):
        data = BoxSet(np.array([[10, 10], [20, 20]]), np.array([[15, 15], [30, 30]]))
        index = GridIndex(data, cells_per_dim=4)
        assert index.query(Rect.from_bounds((50, 50), (60, 60))).size == 0
        assert index.query(Rect.from_bounds((0, 0), (5, 5))).size == 0

    def test_dimension_mismatch_refused(self, rng):
        index = GridIndex(random_boxes(rng, 10, 100, 2))
        with pytest.raises(DimensionalityError):
            index.query(Rect.interval(0, 5))
        with pytest.raises(DimensionalityError):
            index.join_count(random_boxes(rng, 3, 100, 1))

    def test_one_dimensional_data(self, rng):
        data = random_boxes(rng, 50, 100, 1)
        index = GridIndex(data, cells_per_dim=8)
        query = Rect.interval(20, 60)
        expected = {i for i in range(len(data)) if data.rect(i).overlaps(query)}
        assert set(index.query(query).tolist()) == expected
