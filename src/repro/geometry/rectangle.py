"""d-dimensional hyper-rectangles as cross products of intervals.

A :class:`Rect` is the scalar-object counterpart of a row in a
:class:`repro.geometry.boxset.BoxSet`.  It mirrors Section 2.1 of the
paper: ``r = r(1) x r(2) x ... x r(d)`` with each ``r(i)`` a closed
integer range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import DimensionalityError, DomainError
from repro.geometry.interval import Interval


@dataclass(frozen=True)
class Rect:
    """A hyper-rectangle defined by one :class:`Interval` per dimension."""

    ranges: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise DimensionalityError("a hyper-rectangle needs at least one dimension")
        if not all(isinstance(r, Interval) for r in self.ranges):
            raise DomainError("all ranges of a Rect must be Interval instances")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_bounds(cls, lows: Sequence[int], highs: Sequence[int]) -> "Rect":
        """Build a rectangle from parallel low/high coordinate sequences."""
        if len(lows) != len(highs):
            raise DimensionalityError(
                f"lows has {len(lows)} dimensions but highs has {len(highs)}"
            )
        return cls(tuple(Interval(int(lo), int(hi)) for lo, hi in zip(lows, highs)))

    @classmethod
    def interval(cls, lo: int, hi: int) -> "Rect":
        """Convenience constructor for a one-dimensional rectangle."""
        return cls((Interval(lo, hi),))

    # -- basic accessors ----------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.ranges)

    @property
    def lows(self) -> tuple[int, ...]:
        return tuple(r.lo for r in self.ranges)

    @property
    def highs(self) -> tuple[int, ...]:
        return tuple(r.hi for r in self.ranges)

    # -- predicates ----------------------------------------------------

    def _check_dimension(self, other: "Rect") -> None:
        if self.dimension != other.dimension:
            raise DimensionalityError(
                f"cannot compare a {self.dimension}-d rectangle with a {other.dimension}-d one"
            )

    def overlaps(self, other: "Rect") -> bool:
        """Strict overlap: the interiors intersect in every dimension."""
        self._check_dimension(other)
        return all(a.overlaps(b) for a, b in zip(self.ranges, other.ranges))

    def overlaps_plus(self, other: "Rect") -> bool:
        """Extended overlap (Appendix B.1): boundary contact counts."""
        self._check_dimension(other)
        return all(a.overlaps_plus(b) for a, b in zip(self.ranges, other.ranges))

    def contains(self, other: "Rect") -> bool:
        """Closed containment of ``other`` within this rectangle."""
        self._check_dimension(other)
        return all(a.contains(b) for a, b in zip(self.ranges, other.ranges))

    def contains_point(self, coords: Sequence[int]) -> bool:
        if len(coords) != self.dimension:
            raise DimensionalityError(
                f"point has {len(coords)} coordinates but rectangle is {self.dimension}-d"
            )
        return all(r.contains_point(int(c)) for r, c in zip(self.ranges, coords))

    def intersection(self, other: "Rect") -> "Rect | None":
        """The common hyper-rectangle, or ``None`` if the two are disjoint."""
        self._check_dimension(other)
        pieces = []
        for a, b in zip(self.ranges, other.ranges):
            piece = a.intersection(b)
            if piece is None:
                return None
            pieces.append(piece)
        return Rect(tuple(pieces))

    # -- transformations ------------------------------------------------

    def expanded(self, radius: int) -> "Rect":
        """Minkowski-grow every range by ``radius`` (epsilon-join helper)."""
        return Rect(tuple(r.expanded(radius) for r in self.ranges))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " x ".join(str(r) for r in self.ranges)
