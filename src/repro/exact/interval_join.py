"""Exact cardinality of the spatial join of two interval sets.

The strict join (Figure 3 cases 3-6) pairs intervals whose interiors
intersect: ``l(r) < u(s)`` and ``l(s) < u(r)``.  The extended join
(Appendix B.1) uses closed comparisons instead.  Counting is done by
sorting and binary search: the number of non-overlapping pairs decomposes
into "r entirely left of s" plus "s entirely left of r", which are both
rank queries.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionalityError
from repro.geometry.boxset import BoxSet
from repro.geometry.predicates import proper_mask


def _as_1d(boxes: BoxSet, name: str) -> tuple[np.ndarray, np.ndarray]:
    if boxes.dimension != 1:
        raise DimensionalityError(f"{name} must be one-dimensional intervals")
    return boxes.lows[:, 0], boxes.highs[:, 0]


def interval_join_count(left: BoxSet, right: BoxSet, *, closed: bool = False) -> int:
    """Exact ``|R join_o S|`` (or the extended join when ``closed`` is True).

    Degenerate (point) intervals never contribute to the strict join
    (Section 4.1) and are skipped; for the closed join they participate
    normally.  Runs in O((m + n) log(m + n)) time.
    """
    r_lo, r_hi = _as_1d(left, "left")
    s_lo, s_hi = _as_1d(right, "right")
    if not closed:
        keep_r = proper_mask(left)
        keep_s = proper_mask(right)
        r_lo, r_hi = r_lo[keep_r], r_hi[keep_r]
        s_lo, s_hi = s_lo[keep_s], s_hi[keep_s]
    m, n = len(r_lo), len(s_lo)
    if m == 0 or n == 0:
        return 0

    sorted_s_lo = np.sort(s_lo)
    sorted_s_hi = np.sort(s_hi)

    if closed:
        # Non-overlap (closed): r.hi < s.lo  or  s.hi < r.lo.
        right_of_r = n - np.searchsorted(sorted_s_lo, r_hi, side="right")
        left_of_r = np.searchsorted(sorted_s_hi, r_lo, side="left")
    else:
        # Non-overlap (strict): r.hi <= s.lo  or  s.hi <= r.lo.
        right_of_r = n - np.searchsorted(sorted_s_lo, r_hi, side="left")
        left_of_r = np.searchsorted(sorted_s_hi, r_lo, side="right")

    non_overlapping = int(np.sum(right_of_r) + np.sum(left_of_r))
    return m * n - non_overlapping
