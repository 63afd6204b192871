"""Geometric primitives used throughout the library.

The package provides two levels of abstraction:

* Scalar objects (:class:`~repro.geometry.interval.Interval`,
  :class:`~repro.geometry.rectangle.Rect`) that are convenient for tests,
  examples and small inputs.
* Array-backed collections (:class:`~repro.geometry.boxset.BoxSet`,
  :class:`~repro.geometry.boxset.PointSet`) that the sketches, exact join
  algorithms and histograms operate on.

All coordinates are integers from a finite domain ``{0, ..., n-1}`` per
dimension, exactly as in Section 2.1 of the paper; the overlap rule and the
pairwise matrices the tests count against live in
:mod:`repro.geometry.predicates`.
"""

from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rect
from repro.geometry.boxset import BoxSet, PointSet

__all__ = [
    "Interval",
    "Rect",
    "BoxSet",
    "PointSet",
]
