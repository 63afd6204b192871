"""A Fenwick tree (binary indexed tree) over a fixed-size integer range.

Used by the plane-sweep rectangle join to maintain dynamic counts of
active interval endpoints with O(log n) updates and prefix-sum queries.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DomainError


class FenwickTree:
    """Point updates and prefix-sum queries over positions ``0 .. size-1``."""

    __slots__ = ("_size", "_tree")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise DomainError("Fenwick tree size must be positive")
        self._size = int(size)
        self._tree = np.zeros(self._size + 1, dtype=np.int64)

    def add(self, position: int, delta: int = 1) -> None:
        """Add ``delta`` to the count at ``position``."""
        if not 0 <= position < self._size:
            raise DomainError(f"position {position} outside [0, {self._size})")
        index = position + 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, position: int) -> int:
        """Sum of counts at positions ``0 .. position`` (inclusive).

        ``position = -1`` is allowed and yields 0.
        """
        if position >= self._size:
            position = self._size - 1
        total = 0
        index = position + 1
        while index > 0:
            total += int(self._tree[index])
            index -= index & (-index)
        return total
