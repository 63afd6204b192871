"""Tests for the Fenwick tree substrate."""

import numpy as np
import pytest

from repro.errors import DomainError
from repro.exact.fenwick import FenwickTree


class TestFenwickTree:
    def test_size_must_be_positive(self):
        with pytest.raises(DomainError):
            FenwickTree(0)

    def test_empty_tree_prefix_sums_are_zero(self):
        tree = FenwickTree(8)
        assert tree.prefix_sum(-1) == 0
        assert tree.prefix_sum(7) == 0

    def test_single_update(self):
        tree = FenwickTree(10)
        tree.add(3)
        assert tree.prefix_sum(2) == 0
        assert tree.prefix_sum(3) == 1
        assert tree.prefix_sum(9) == 1

    def test_position_out_of_range(self):
        tree = FenwickTree(4)
        with pytest.raises(DomainError):
            tree.add(4)
        with pytest.raises(DomainError):
            tree.add(-1)

    def test_negative_delta_removes(self):
        tree = FenwickTree(4)
        tree.add(2, 5)
        tree.add(2, -3)
        assert tree.prefix_sum(3) == 2

    def test_prefix_sum_clamps_large_positions(self):
        tree = FenwickTree(4)
        tree.add(3)
        assert tree.prefix_sum(100) == 1

    def test_matches_naive_counts(self, rng):
        size = 64
        tree = FenwickTree(size)
        reference = np.zeros(size, dtype=np.int64)
        positions = rng.integers(0, size, size=300)
        deltas = rng.integers(-2, 3, size=300)
        for position, delta in zip(positions, deltas):
            tree.add(int(position), int(delta))
            reference[position] += delta
        for query in rng.integers(0, size, size=50):
            assert tree.prefix_sum(int(query)) == int(reference[: query + 1].sum())

    @pytest.mark.parametrize("size", [1, 2, 7, 1000])
    def test_prefix_sums_match_cumsum(self, rng, size):
        tree = FenwickTree(size)
        reference = np.zeros(size, dtype=np.int64)
        for position, delta in zip(rng.integers(0, size, size=200),
                                   rng.integers(-3, 4, size=200)):
            tree.add(int(position), int(delta))
            reference[position] += delta
        sums = np.cumsum(reference)
        assert [tree.prefix_sum(p) for p in range(size)] == sums.tolist()
        assert tree.prefix_sum(-1) == 0
