"""Data-space handling: multi-dimensional domains and the common-endpoint
transformation.

Two concerns from the paper live here:

* :class:`Domain` — a d-dimensional finite integer data space
  ``N^d = {0..n_1-1} x ... x {0..n_d-1}`` (Section 2.1), possibly with
  per-dimension ``max_level`` restrictions (Section 6.5).
* :class:`EndpointTransform` — the Section 5.2 refinement that inserts two
  synthetic coordinates between every pair of consecutive domain values and
  shrinks the right-hand join input so that Assumption 1 (no common
  endpoints) holds.  Coordinates are multiplied by 3; right-hand lower
  endpoints become ``3*lo + 1`` and upper endpoints ``3*hi - 1``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DimensionalityError, DomainError
from repro.core.dyadic import DyadicDomain
from repro.geometry.boxset import BoxSet


class Domain:
    """A d-dimensional integer data space."""

    __slots__ = ("_dyadic",)

    def __init__(self, sizes: Sequence[int] | int, *,
                 max_levels: Sequence[int | None] | int | None = None) -> None:
        if isinstance(sizes, (int, np.integer)):
            sizes = (int(sizes),)
        sizes = tuple(int(s) for s in sizes)
        if not sizes:
            raise DimensionalityError("a domain needs at least one dimension")
        if max_levels is None or isinstance(max_levels, (int, np.integer)):
            max_levels = (max_levels,) * len(sizes)
        max_levels = tuple(max_levels)
        if len(max_levels) != len(sizes):
            raise DimensionalityError("max_levels must match the number of dimensions")
        self._dyadic = tuple(
            DyadicDomain(size, max_level=None if ml is None else int(ml))
            for size, ml in zip(sizes, max_levels)
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def square(cls, size: int, dimension: int) -> "Domain":
        """A domain with the same size in every dimension."""
        return cls((size,) * dimension)

    # -- accessors --------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self._dyadic)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Padded per-dimension sizes (powers of two)."""
        return tuple(d.size for d in self._dyadic)

    @property
    def requested_sizes(self) -> tuple[int, ...]:
        return tuple(d.requested_size for d in self._dyadic)

    def dyadic(self, dimension: int) -> DyadicDomain:
        """The dyadic structure of the given dimension."""
        return self._dyadic[dimension]

    @property
    def dyadics(self) -> tuple[DyadicDomain, ...]:
        return self._dyadic

    def with_max_level(self, max_level: int | None) -> "Domain":
        """A copy with a uniform level restriction in every dimension."""
        return Domain(self.requested_sizes, max_levels=max_level)

    def signature(self) -> tuple[tuple[int, int], ...]:
        """Per-dimension ``(requested_size, max_level)`` pairs.

        Two domains with equal signatures induce identical dyadic
        decompositions, which is the precondition for merging sketches
        built over them.
        """
        return tuple((d.requested_size, d.max_level) for d in self._dyadic)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def contains(self, boxes: BoxSet) -> bool:
        """True if every box fits inside the (padded) domain."""
        if boxes.dimension != self.dimension:
            return False
        if len(boxes) == 0:
            return True
        sizes = np.asarray(self.sizes, dtype=np.int64)
        return bool(np.all(boxes.lows >= 0) and np.all(boxes.highs < sizes))

    def validate_boxes(self, boxes: BoxSet, *, what: str = "boxes") -> None:
        if boxes.dimension != self.dimension:
            raise DimensionalityError(
                f"{what} are {boxes.dimension}-dimensional but the domain is "
                f"{self.dimension}-dimensional"
            )
        if not self.contains(boxes):
            raise DomainError(f"{what} contain coordinates outside the domain {self.sizes}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Domain(sizes={self.sizes})"


class EndpointTransform:
    """The Section 5.2 domain refinement that removes common endpoints.

    The left (R) input keeps its coordinates, merely scaled by 3; the right
    (S) input is "shrunk a little": lower endpoints move to ``3*lo + 1`` and
    upper endpoints to ``3*hi - 1``.  Overlap relationships between R and S
    objects are preserved exactly (``overlap(r, s) <=> overlap(r, s')``),
    but no transformed S endpoint can coincide with a transformed R endpoint,
    so Assumption 1 holds and the plain join estimators apply.
    """

    FACTOR = 3

    def __init__(self, domain: Domain) -> None:
        self._original = domain
        self._expanded = Domain(
            tuple(size * self.FACTOR for size in domain.requested_sizes),
            max_levels=tuple(
                None if d.max_level == d.height else min(d.max_level + 2, 63)
                for d in domain.dyadics
            ),
        )

    @property
    def expanded_domain(self) -> Domain:
        """The refined domain the sketches are actually built over."""
        return self._expanded

    def transform_left(self, boxes: BoxSet) -> BoxSet:
        """Scale the left-input coordinates (no shrinking)."""
        return boxes.scaled(self.FACTOR)

    def transform_right(self, boxes: BoxSet) -> BoxSet:
        """Scale and shrink the right-input coordinates."""
        return boxes.shrunk_for_endpoint_transform()

    def transform_query(self, boxes: BoxSet) -> BoxSet:
        """Scale a query rectangle like the left input."""
        return boxes.scaled(self.FACTOR)
