"""One-dimensional closed integer intervals ``[lo, hi]``.

Intervals are the basic spatial object of Section 3.1/4.1 of the paper.
``lo == hi`` denotes a degenerate (point) interval; the paper's join
definitions ignore degenerate objects because they cannot produce a
strictly overlapping pair, but range queries and epsilon-joins use them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DomainError
from repro.geometry.predicates import overlaps


@dataclass(frozen=True, order=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` with ``lo <= hi``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise DomainError(f"interval lower endpoint {self.lo} exceeds upper endpoint {self.hi}")

    def contains_point(self, point: int) -> bool:
        """True if ``point`` lies within the closed interval."""
        return self.lo <= point <= self.hi

    def contains(self, other: "Interval") -> bool:
        """True if ``other`` is fully contained in this interval (closed)."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """Strict overlap: the interiors of the two intervals intersect.

        This is the semantics of Figure 3 cases (3)-(6): touching at a
        single coordinate (case 2, "meet") does not count, and a point
        interval has no interior, so it overlaps nothing.
        """
        return overlaps(self.lo, self.hi, other.lo, other.hi)

    def overlaps_plus(self, other: "Interval") -> bool:
        """Extended overlap (Appendix B.1): touching boundaries count too."""
        return overlaps(self.lo, self.hi, other.lo, other.hi, closed=True)

    def intersection(self, other: "Interval") -> "Interval | None":
        """The common closed interval, or ``None`` if the two are disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def expanded(self, radius: int) -> "Interval":
        """A copy grown by ``radius`` on both sides (used by epsilon-joins)."""
        if radius < 0:
            raise DomainError(f"expansion radius must be non-negative, got {radius}")
        return Interval(self.lo - radius, self.hi + radius)

    def __iter__(self):
        yield self.lo
        yield self.hi

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo}, {self.hi}]"
