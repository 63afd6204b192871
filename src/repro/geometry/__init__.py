"""Geometric primitives used throughout the library.

A box is one ``lows``/``highs`` row of a
:class:`~repro.geometry.boxset.BoxSet`: the sketches, exact counters,
histograms and query arguments all take that one form, a single rectangle
being a one-row ``BoxSet``.  :class:`~repro.geometry.boxset.PointSet` holds
points.

All coordinates are integers from a finite domain ``{0, ..., n-1}`` per
dimension, exactly as in Section 2.1 of the paper; the overlap rule and the
pairwise matrices the tests count against live in
:mod:`repro.geometry.predicates`.
"""

from repro.geometry.boxset import BoxSet, PointSet

__all__ = [
    "BoxSet",
    "PointSet",
]
