"""The overlap rule and the vectorised spatial predicates.

The predicates implement the semantics used by the paper's counting
procedures (Definition 1 and the cases of Figure 3, under which boxes that
only touch do not overlap):

* ``overlap``  — interiors intersect (Figure 3 cases 3-6),
* ``overlap+`` — closed boxes intersect, i.e. touching counts (Appendix B.1),
* ``contains`` — closed containment.

:func:`overlaps` is the one overlap rule: every other overlap test in the
library (the matrices below, the exact counters and range queries, the
histograms and the engine's executor) calls it, and :func:`proper_mask` is
the one test of which boxes a strict overlap can involve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DimensionalityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.geometry.boxset import BoxSet, PointSet


# -- the overlap rule ----------------------------------------------------------

def overlaps(lo_a, hi_a, lo_b, hi_b, *, closed: bool = False):
    """Per-dimension overlap of ``[lo_a, hi_a]`` and ``[lo_b, hi_b]``.

    Strict: ``max(lo) < min(hi)``, which implies ``lo < hi`` on both sides,
    so a box with a zero extent overlaps nothing strictly, as the paper's
    counting procedures require.  Closed: ``max(lo) <= min(hi)``, which for
    valid boxes (``lo <= hi``) is the cross test alone.  Works on Python
    integers and on broadcastable NumPy arrays alike; a box overlaps
    another when this holds in every dimension.
    """
    if closed:
        return (lo_a <= hi_b) & (lo_b <= hi_a)
    return (lo_a < hi_b) & (lo_b < hi_a) & (lo_a < hi_a) & (lo_b < hi_b)


def proper_mask(boxes: BoxSet) -> np.ndarray:
    """Which boxes have a positive extent in every dimension: the only
    boxes a strict overlap can involve."""
    return np.all(boxes.lows < boxes.highs, axis=1)


# -- vectorised predicates ---------------------------------------------------

def overlap_matrix(left: BoxSet, right: BoxSet, *, closed: bool = False) -> np.ndarray:
    """Boolean ``(|left|, |right|)`` matrix of pairwise overlap.

    Intended for small inputs (tests and oracles); the exact join
    algorithms in :mod:`repro.exact` should be used for large inputs.
    """
    if left.dimension != right.dimension:
        raise DimensionalityError("BoxSets have different dimensionality")
    return np.all(overlaps(left.lows[:, None, :], left.highs[:, None, :],
                           right.lows[None, :, :], right.highs[None, :, :],
                           closed=closed), axis=2)


def containment_matrix(outer: BoxSet, inner: BoxSet) -> np.ndarray:
    """Boolean ``(|outer|, |inner|)`` matrix of closed containment."""
    if outer.dimension != inner.dimension:
        raise DimensionalityError("BoxSets have different dimensionality")
    ol = outer.lows[:, None, :]
    oh = outer.highs[:, None, :]
    il = inner.lows[None, :, :]
    ih = inner.highs[None, :, :]
    return np.all((ol <= il) & (ih <= oh), axis=2)


def pairwise_linf_distances(a: PointSet, b: PointSet) -> np.ndarray:
    """``(|a|, |b|)`` matrix of L-infinity distances (small inputs only)."""
    if a.dimension != b.dimension:
        raise DimensionalityError("PointSets have different dimensionality")
    diff = np.abs(a.coords[:, None, :] - b.coords[None, :, :])
    return diff.max(axis=2)
