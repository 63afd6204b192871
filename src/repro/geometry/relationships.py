"""Spatial relationship classification (Figure 3 / Figure 4 of the paper).

Section 4.1.1 enumerates six possible relationships between an interval
``r`` from the left input and an interval ``s`` from the right input:

1. ``DISJOINT``   — no common coordinate,
2. ``MEET``       — exactly one common boundary coordinate, no interior overlap,
3. ``OVERLAP``    — interiors intersect but neither contains the other,
4. ``CONTAIN``    — one strictly contains the other (no shared endpoints),
5. ``CONTAIN_MEET`` — containment with at least one shared endpoint,
6. ``IDENTICAL``  — equal intervals.

For d dimensions the relationship of two hyper-rectangles is the d-tuple of
the per-dimension relationships of their projections (Section 4.2).
"""

from __future__ import annotations

from enum import IntEnum

from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rect
from repro.errors import DimensionalityError


class IntervalRelationship(IntEnum):
    """The six interval relationships of Figure 3."""

    DISJOINT = 1
    MEET = 2
    OVERLAP = 3
    CONTAIN = 4
    CONTAIN_MEET = 5
    IDENTICAL = 6

    @property
    def is_overlapping(self) -> bool:
        """True for the relationships the spatial join counts (cases 3-6)."""
        return self in (
            IntervalRelationship.OVERLAP,
            IntervalRelationship.CONTAIN,
            IntervalRelationship.CONTAIN_MEET,
            IntervalRelationship.IDENTICAL,
        )

    @property
    def is_overlapping_plus(self) -> bool:
        """True for the relationships the extended join counts (cases 2-6)."""
        return self != IntervalRelationship.DISJOINT


def classify_intervals(r: Interval, s: Interval) -> IntervalRelationship:
    """Classify the relationship between intervals ``r`` and ``s``.

    The classification is symmetric: swapping the arguments yields the same
    relationship (the paper's Figure 3 omits mirror cases for this reason).
    A point interval overlaps nothing strictly, so it only ever meets
    another interval or is disjoint from it.
    """
    if not r.overlaps(s):
        if r.overlaps_plus(s):
            return IntervalRelationship.MEET
        return IntervalRelationship.DISJOINT
    if r == s:
        return IntervalRelationship.IDENTICAL

    shared_endpoint = r.lo in (s.lo, s.hi) or r.hi in (s.lo, s.hi)
    r_contains_s = r.contains(s)
    s_contains_r = s.contains(r)
    if r_contains_s or s_contains_r:
        if shared_endpoint:
            return IntervalRelationship.CONTAIN_MEET
        return IntervalRelationship.CONTAIN
    return IntervalRelationship.OVERLAP


def classify_rects(r: Rect, s: Rect) -> tuple[IntervalRelationship, ...]:
    """The per-dimension relationship tuple of two hyper-rectangles."""
    if r.dimension != s.dimension:
        raise DimensionalityError("rectangles have different dimensionality")
    return tuple(classify_intervals(a, b) for a, b in zip(r.ranges, s.ranges))


def rects_overlap_from_relationship(relationship: tuple[IntervalRelationship, ...]) -> bool:
    """True if the relationship tuple corresponds to an overlapping pair."""
    return all(rel.is_overlapping for rel in relationship)


def rects_overlap_plus_from_relationship(relationship: tuple[IntervalRelationship, ...]) -> bool:
    """True if the relationship tuple corresponds to an extended-overlap pair."""
    return all(rel.is_overlapping_plus for rel in relationship)
