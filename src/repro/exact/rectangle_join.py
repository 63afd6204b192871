"""Exact cardinality of the spatial join of two hyper-rectangle sets.

Three algorithms are provided:

* :func:`brute_force_join_count` — chunked all-pairs evaluation with NumPy;
  simple and dimension-agnostic, used as a test oracle and for d >= 3.
* :func:`plane_sweep_join_count` — an O((m + n) log(m + n)) plane sweep for
  two-dimensional data: boxes are processed in order of their lower x
  coordinate while two Fenwick trees per input maintain the y intervals of
  the currently "open" boxes, so each processed box counts its partners
  with two rank queries.
* :func:`rectangle_join_count` — dispatcher that picks the appropriate
  algorithm based on dimensionality and input size.

Strict joins (Definition 1 / Figure 3 semantics: interiors must intersect)
never count a box that is degenerate in any dimension, exactly like the
paper's counting procedures: every counter applies the one overlap rule of
:mod:`repro.geometry.predicates`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionalityError
from repro.exact.fenwick import FenwickTree
from repro.exact.interval_join import interval_join_count
from repro.geometry.boxset import BoxSet
from repro.geometry.predicates import overlaps, proper_mask


def brute_force_join_count(left: BoxSet, right: BoxSet, *, closed: bool = False) -> int:
    """All-pairs join count evaluated in chunks of 512 left boxes (any
    dimensionality)."""
    if left.dimension != right.dimension:
        raise DimensionalityError("inputs have different dimensionality")
    total = 0
    for start in range(0, len(left), 512):
        stop = min(start + 512, len(left))
        hits = overlaps(left.lows[start:stop, None, :], left.highs[start:stop, None, :],
                        right.lows[None, :, :], right.highs[None, :, :], closed=closed)
        total += int(np.count_nonzero(np.all(hits, axis=2)))
    return total


def _compress(values: np.ndarray) -> np.ndarray:
    """Sorted unique coordinate values used for rank queries."""
    return np.unique(values)


def _rank_lt(sorted_values: np.ndarray, value: int) -> int:
    """Number of distinct sorted values strictly below ``value`` minus one
    (i.e. the largest index whose value is < ``value``; -1 if none)."""
    return int(np.searchsorted(sorted_values, value, side="left")) - 1


def _rank_le(sorted_values: np.ndarray, value: int) -> int:
    """Largest index whose value is <= ``value``; -1 if none."""
    return int(np.searchsorted(sorted_values, value, side="right")) - 1


class _ActiveSet:
    """Y-interval multiset of the currently open boxes of one input."""

    def __init__(self, y_lows: np.ndarray, y_highs: np.ndarray) -> None:
        self._lo_values = _compress(y_lows)
        self._hi_values = _compress(y_highs)
        self._lo_tree = FenwickTree(max(1, len(self._lo_values)))
        self._hi_tree = FenwickTree(max(1, len(self._hi_values)))
        self._active = 0

    def add(self, y_lo: int, y_hi: int) -> None:
        self._lo_tree.add(_rank_le(self._lo_values, y_lo))
        self._hi_tree.add(_rank_le(self._hi_values, y_hi))
        self._active += 1

    def remove(self, y_lo: int, y_hi: int) -> None:
        self._lo_tree.add(_rank_le(self._lo_values, y_lo), -1)
        self._hi_tree.add(_rank_le(self._hi_values, y_hi), -1)
        self._active -= 1

    def count_overlapping(self, y_lo: int, y_hi: int, *, closed: bool) -> int:
        """Number of active intervals overlapping ``[y_lo, y_hi]``."""
        if self._active == 0:
            return 0
        if closed:
            # exclude: lo > y_hi  or  hi < y_lo
            too_right = self._active - self._lo_tree.prefix_sum(_rank_le(self._lo_values, y_hi))
            too_left = self._hi_tree.prefix_sum(_rank_lt(self._hi_values, y_lo))
        else:
            # exclude: lo >= y_hi  or  hi <= y_lo
            too_right = self._active - self._lo_tree.prefix_sum(_rank_lt(self._lo_values, y_hi))
            too_left = self._hi_tree.prefix_sum(_rank_le(self._hi_values, y_lo))
        return self._active - too_right - too_left


def plane_sweep_join_count(left: BoxSet, right: BoxSet, *, closed: bool = False) -> int:
    """Exact two-dimensional join count via a plane sweep along the x axis."""
    if left.dimension != 2 or right.dimension != 2:
        raise DimensionalityError("plane_sweep_join_count requires two-dimensional boxes")
    if not closed:
        left = left[proper_mask(left)]
        right = right[proper_mask(right)]
    m, n = len(left), len(right)
    if m == 0 or n == 0:
        return 0

    # Event arrays: (x_low, source, index); sources 0 = left, 1 = right.
    order_key = np.concatenate([left.lows[:, 0], right.lows[:, 0]])
    sources = np.concatenate([np.zeros(m, dtype=np.int8), np.ones(n, dtype=np.int8)])
    indices = np.concatenate([np.arange(m), np.arange(n)])
    order = np.argsort(order_key, kind="stable")

    # Removal queues sorted by x_high.
    left_by_hi = np.argsort(left.highs[:, 0], kind="stable")
    right_by_hi = np.argsort(right.highs[:, 0], kind="stable")
    left_hi_sorted = left.highs[left_by_hi, 0]
    right_hi_sorted = right.highs[right_by_hi, 0]

    active_left = _ActiveSet(left.lows[:, 1], left.highs[:, 1])
    active_right = _ActiveSet(right.lows[:, 1], right.highs[:, 1])
    next_left_removal = 0
    next_right_removal = 0
    total = 0

    for event in order:
        x = int(order_key[event])
        # Retire boxes that can no longer overlap anything starting at x.
        while next_left_removal < m:
            hi = int(left_hi_sorted[next_left_removal])
            expired = hi < x if closed else hi <= x
            if not expired:
                break
            idx = int(left_by_hi[next_left_removal])
            active_left.remove(int(left.lows[idx, 1]), int(left.highs[idx, 1]))
            next_left_removal += 1
        while next_right_removal < n:
            hi = int(right_hi_sorted[next_right_removal])
            expired = hi < x if closed else hi <= x
            if not expired:
                break
            idx = int(right_by_hi[next_right_removal])
            active_right.remove(int(right.lows[idx, 1]), int(right.highs[idx, 1]))
            next_right_removal += 1

        idx = int(indices[event])
        if sources[event] == 0:
            y_lo, y_hi = int(left.lows[idx, 1]), int(left.highs[idx, 1])
            total += active_right.count_overlapping(y_lo, y_hi, closed=closed)
            active_left.add(y_lo, y_hi)
        else:
            y_lo, y_hi = int(right.lows[idx, 1]), int(right.highs[idx, 1])
            total += active_left.count_overlapping(y_lo, y_hi, closed=closed)
            active_right.add(y_lo, y_hi)
    return total


def rectangle_join_count(left: BoxSet, right: BoxSet, *, closed: bool = False) -> int:
    """Exact ``|R join_o S|`` for hyper-rectangle sets of any dimensionality.

    Dispatches to the interval-join counter (d = 1), the plane sweep (d = 2,
    large inputs) or the chunked brute force (small inputs or d >= 3).
    """
    if left.dimension != right.dimension:
        raise DimensionalityError("inputs have different dimensionality")
    if left.dimension == 1:
        return interval_join_count(left, right, closed=closed)
    if left.dimension == 2 and len(left) + len(right) > 2000:
        return plane_sweep_join_count(left, right, closed=closed)
    return brute_force_join_count(left, right, closed=closed)
