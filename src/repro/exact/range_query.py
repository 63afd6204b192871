"""Exact range-query evaluation (Section 6.4 ground truth)."""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionalityError
from repro.geometry.boxset import BoxSet
from repro.geometry.predicates import overlaps


def _query_bounds(query: BoxSet) -> tuple[np.ndarray, np.ndarray]:
    if len(query) != 1:
        raise DimensionalityError("a range query consists of exactly one rectangle")
    return query.lows[0], query.highs[0]


def range_query_count(data: BoxSet, query: BoxSet) -> int:
    """Number of data rectangles overlapping the query rectangle, boundaries
    included (the closed rule)."""
    if len(data) == 0:
        return 0
    q_lo, q_hi = _query_bounds(query)
    if data.dimension != len(q_lo):
        raise DimensionalityError("query dimensionality does not match the data")
    return int(np.count_nonzero(np.all(
        overlaps(data.lows, data.highs, q_lo, q_hi, closed=True), axis=1)))
