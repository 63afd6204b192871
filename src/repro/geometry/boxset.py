"""Array-backed collections of hyper-rectangles.

Sketch construction, exact join counting, histograms and workload
generators all operate on :class:`BoxSet`, a set of axis-aligned boxes
stored as two ``(n, d)`` integer arrays.  A point is a degenerate box
(``lo == hi`` in every dimension), so a set of points is a ``BoxSet``
too.  Keeping the data in NumPy arrays is what makes sketch construction with hundreds
of independent atomic-sketch instances feasible in pure Python.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import DimensionalityError, DomainError


class BoxSet:
    """An immutable collection of ``n`` axis-aligned boxes in ``d`` dimensions.

    Coordinates are stored as ``int64``; ``lows[i, k] <= highs[i, k]`` holds
    for every box ``i`` and dimension ``k``.
    """

    __slots__ = ("_lows", "_highs")

    def __init__(self, lows: np.ndarray, highs: np.ndarray, *, validate: bool = True) -> None:
        lows = np.atleast_2d(np.asarray(lows, dtype=np.int64))
        highs = np.atleast_2d(np.asarray(highs, dtype=np.int64))
        if lows.shape != highs.shape:
            raise DimensionalityError(
                f"lows shape {lows.shape} does not match highs shape {highs.shape}"
            )
        if lows.ndim != 2:
            raise DimensionalityError("BoxSet expects 2-d arrays of shape (n, d)")
        if validate and lows.size and np.any(lows > highs):
            bad = int(np.argmax(np.any(lows > highs, axis=1)))
            raise DomainError(f"box {bad} has a lower endpoint above its upper endpoint")
        self._lows = lows
        self._highs = highs
        self._lows.setflags(write=False)
        self._highs.setflags(write=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_intervals(cls, intervals: Iterable[tuple[int, int]]) -> "BoxSet":
        """Build a 1-d BoxSet from ``(lo, hi)`` pairs."""
        pairs = [(int(lo), int(hi)) for lo, hi in intervals]
        if not pairs:
            raise DomainError("cannot build a BoxSet from an empty interval list")
        arr = np.array(pairs, dtype=np.int64)
        return cls(arr[:, :1], arr[:, 1:])

    @classmethod
    def empty(cls, dimension: int) -> "BoxSet":
        """An empty box set of the given dimensionality."""
        if dimension < 1:
            raise DimensionalityError("dimension must be at least 1")
        zero = np.zeros((0, dimension), dtype=np.int64)
        return cls(zero, zero.copy())

    # -- accessors --------------------------------------------------------

    @property
    def lows(self) -> np.ndarray:
        return self._lows

    @property
    def highs(self) -> np.ndarray:
        return self._highs

    @property
    def dimension(self) -> int:
        return self._lows.shape[1]

    def __len__(self) -> int:
        return self._lows.shape[0]

    def __iter__(self) -> Iterator["BoxSet"]:
        """Each box as a one-row BoxSet."""
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index) -> "BoxSet":
        """Row-subset the collection (always returns a BoxSet)."""
        lows = self._lows[index]
        highs = self._highs[index]
        if lows.ndim == 1:
            lows = lows[None, :]
            highs = highs[None, :]
        return BoxSet(lows, highs, validate=False)

    # -- transformations ---------------------------------------------------

    def concat(self, other: "BoxSet") -> "BoxSet":
        if other.dimension != self.dimension:
            raise DimensionalityError("cannot concatenate BoxSets of different dimensionality")
        return BoxSet(
            np.concatenate([self._lows, other._lows]),
            np.concatenate([self._highs, other._highs]),
            validate=False,
        )

    def scaled(self, factor: int) -> "BoxSet":
        """Multiply every coordinate by ``factor`` (used by the endpoint transform)."""
        if factor <= 0:
            raise DomainError("scale factor must be positive")
        return BoxSet(self._lows * factor, self._highs * factor, validate=False)

    def shrunk_for_endpoint_transform(self) -> "BoxSet":
        """Apply the Section 5.2 shrink: coordinates scaled by 3, then
        lower endpoints moved to ``3*lo + 1`` and upper endpoints to ``3*hi - 1``.

        The resulting boxes never share an endpoint coordinate with any box
        whose coordinates were merely scaled by 3.
        """
        return BoxSet(self._lows * 3 + 1, self._highs * 3 - 1, validate=False)

    def sample(self, size: int, rng: np.random.Generator) -> "BoxSet":
        """A uniform random subset of ``size`` boxes (without replacement)."""
        if size > len(self):
            raise DomainError(f"cannot sample {size} boxes from a set of {len(self)}")
        idx = rng.choice(len(self), size=size, replace=False)
        return self[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxSet(n={len(self)}, d={self.dimension})"
