"""Scalar and vectorised spatial predicates and distance functions.

The predicates implement the semantics used by the paper's counting
procedures (see the note in DESIGN.md about Definition 1 vs Figure 3):

* ``overlap``  — interiors intersect (Figure 3 cases 3-6),
* ``overlap+`` — closed boxes intersect, i.e. touching counts (Appendix B.1),
* ``contains`` — closed containment.

:func:`overlaps` is the one overlap rule: every other overlap test in the
library (``Interval``, ``Rect``, the matrices below, the exact counters and
the engine's executor) calls it, and :func:`proper_mask` is the one test of
which boxes a strict overlap can involve.  This module imports no other
geometry module at run time, so ``Interval`` can import the rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DimensionalityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.geometry.boxset import BoxSet, PointSet
    from repro.geometry.interval import Interval
    from repro.geometry.rectangle import Rect


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


# -- scalar predicates -----------------------------------------------------

def interval_overlap(a: Interval, b: Interval) -> bool:
    """Strict overlap of two intervals (interiors intersect)."""
    return a.overlaps(b)


def interval_overlap_plus(a: Interval, b: Interval) -> bool:
    """Extended overlap: touching at a single coordinate counts."""
    return a.overlaps_plus(b)


def interval_contains(outer: Interval, inner: Interval) -> bool:
    """Closed containment of ``inner`` within ``outer``."""
    return outer.contains(inner)


def rect_overlap(a: Rect, b: Rect) -> bool:
    """Strict overlap of two hyper-rectangles."""
    return a.overlaps(b)


def rect_overlap_plus(a: Rect, b: Rect) -> bool:
    """Extended overlap of two hyper-rectangles."""
    return a.overlaps_plus(b)


def rect_contains(outer: Rect, inner: Rect) -> bool:
    """Closed containment of ``inner`` within ``outer``."""
    return outer.contains(inner)


# -- distances --------------------------------------------------------------

def _as_arrays(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionalityError(f"point shapes differ: {a.shape} vs {b.shape}")
    return a, b


def linf_distance(a, b) -> float:
    """L-infinity (Chebyshev) distance between two points."""
    a, b = _as_arrays(a, b)
    return float(np.max(np.abs(a - b)))


def l1_distance(a, b) -> float:
    """L1 (Manhattan) distance between two points."""
    a, b = _as_arrays(a, b)
    return float(np.sum(np.abs(a - b)))


def l2_distance(a, b) -> float:
    """Euclidean distance between two points."""
    a, b = _as_arrays(a, b)
    return float(np.sqrt(np.sum((a - b) ** 2)))


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


def point_in_box_matrix(boxes: BoxSet, points: PointSet) -> np.ndarray:
    """Boolean ``(|boxes|, |points|)`` matrix of closed point containment."""
    if boxes.dimension != points.dimension:
        raise DimensionalityError("dimensionality mismatch between boxes and points")
    bl = boxes.lows[:, None, :]
    bh = boxes.highs[:, None, :]
    pc = points.coords[None, :, :]
    return np.all((bl <= pc) & (pc <= bh), axis=2)


def pairwise_linf_distances(a: PointSet, b: PointSet) -> np.ndarray:
    """``(|a|, |b|)`` matrix of L-infinity distances (small inputs only)."""
    if a.dimension != b.dimension:
        raise DimensionalityError("PointSets have different dimensionality")
    diff = np.abs(a.coords[:, None, :] - b.coords[None, :, :])
    return diff.max(axis=2)
