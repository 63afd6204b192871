"""A uniform grid index over a BoxSet.

Each grid cell keeps the ids of the boxes intersecting it.  The index
supports box-overlap candidate retrieval and an index-nested-loop join.
It is intentionally simple — the R-tree is the more capable index — but a
grid matches the fixed partitioning used by the histogram baselines and is
very cheap to build.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

import numpy as np

from repro.errors import DimensionalityError, SketchConfigError
from repro.geometry.boxset import BoxSet
from repro.geometry.rectangle import Rect


class GridIndex:
    """Uniform grid over the bounding box of the indexed data."""

    def __init__(self, boxes: BoxSet, *, cells_per_dim: int = 32) -> None:
        if cells_per_dim < 1:
            raise SketchConfigError("cells_per_dim must be positive")
        if len(boxes) == 0:
            raise SketchConfigError("cannot index an empty BoxSet")
        self._boxes = boxes
        self._cells_per_dim = int(cells_per_dim)
        lows = boxes.lows.min(axis=0).astype(np.float64)
        highs = boxes.highs.max(axis=0).astype(np.float64) + 1.0
        self._origin = lows
        self._extent = np.maximum(highs - lows, 1.0) / self._cells_per_dim
        self._cells: dict[tuple[int, ...], list[int]] = defaultdict(list)
        first, last = self._cell_span(boxes.lows, boxes.highs)
        for index in range(len(boxes)):
            for cell in self._cells_between(first[index], last[index]):
                self._cells[cell].append(index)

    # -- geometry helpers --------------------------------------------------------------

    @property
    def boxes(self) -> BoxSet:
        return self._boxes

    @property
    def cells_per_dim(self) -> int:
        return self._cells_per_dim

    def _cell_span(self, lows: np.ndarray, highs: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        first = np.floor((lows - self._origin) / self._extent).astype(np.int64)
        last = np.floor((highs - self._origin) / self._extent).astype(np.int64)
        first = np.clip(first, 0, self._cells_per_dim - 1)
        last = np.clip(last, 0, self._cells_per_dim - 1)
        return first, last

    @staticmethod
    def _cells_between(first: np.ndarray, last: np.ndarray) -> Iterable[tuple[int, ...]]:
        ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(first, last)]
        cells: list[tuple[int, ...]] = [()]
        for axis_range in ranges:
            cells = [cell + (value,) for cell in cells for value in axis_range]
        return cells

    # -- queries -------------------------------------------------------------------------

    def candidates(self, query: Rect | BoxSet) -> np.ndarray:
        """Ids of indexed boxes whose grid cells intersect the query box."""
        if isinstance(query, Rect):
            query = BoxSet.from_rects([query])
        if query.dimension != self._boxes.dimension:
            raise DimensionalityError("query dimensionality does not match the index")
        first, last = self._cell_span(query.lows, query.highs)
        found: set[int] = set()
        for cell in self._cells_between(first[0], last[0]):
            found.update(self._cells.get(cell, ()))
        return np.fromiter(sorted(found), dtype=np.int64, count=len(found))

    def query(self, query: Rect | BoxSet, *, closed: bool = False) -> np.ndarray:
        """Ids of indexed boxes actually overlapping the query box."""
        if isinstance(query, Rect):
            query = BoxSet.from_rects([query])
        ids = self.candidates(query)
        if ids.size == 0:
            return ids
        lows = self._boxes.lows[ids]
        highs = self._boxes.highs[ids]
        q_lo, q_hi = query.lows[0], query.highs[0]
        if closed:
            mask = np.all((lows <= q_hi) & (q_lo <= highs), axis=1)
        else:
            mask = np.all((lows < q_hi) & (q_lo < highs), axis=1)
        return ids[mask]

    def join_count(self, probe: BoxSet, *, closed: bool = False) -> int:
        """Index-nested-loop join count: number of (probe, indexed) overlapping pairs."""
        if probe.dimension != self._boxes.dimension:
            raise DimensionalityError("probe dimensionality does not match the index")
        total = 0
        for index in range(len(probe)):
            total += int(self.query(probe[index], closed=closed).size)
        return total
