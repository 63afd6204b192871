"""Geometric Histograms (GH) for spatial-join selectivity [An et al., ICDE 2001].

A GH of level L partitions the space into a ``2^L x 2^L`` grid; every cell
stores four statistics about the objects intersecting it, each computed on
the geometry *clipped to the cell*:

* the number of object corner points falling in the cell,
* the sum of the clipped object areas,
* the sum of the clipped vertical edge lengths,
* the sum of the clipped horizontal edge lengths.

The join estimate rests on the same geometric identity the paper's counting
procedure uses (Section 4.2.1): two overlapping rectangles in general
position always produce exactly four "incidences" — corners of one inside
the other plus crossings between perpendicular edges.  Under a per-cell
uniformity assumption the expected number of incidences inside a cell is

    [ C_R * A_S + C_S * A_R + V_R * H_S + V_S * H_R ] / cell_area

so summing over all cells and dividing by four estimates the join size.
The histogram is a sum of per-object contributions, hence it supports
inserts and deletes incrementally, like the sketches.
"""

from __future__ import annotations

import numpy as np

from repro.core.domain import Domain
from repro.geometry.boxset import BoxSet
from repro.histograms.base import GridHistogram


class GeometricHistogram(GridHistogram):
    """The GH baseline used in Section 7 (referred to as "GH" in the figures)."""

    def __init__(self, domain: Domain, level: int) -> None:
        super().__init__(domain, level)
        cells = self._cells_per_dim
        self._corners = np.zeros((cells, cells), dtype=np.float64)
        self._areas = np.zeros((cells, cells), dtype=np.float64)
        self._vertical = np.zeros((cells, cells), dtype=np.float64)
        self._horizontal = np.zeros((cells, cells), dtype=np.float64)

    # -- maintenance -------------------------------------------------------------

    def insert(self, boxes: BoxSet) -> None:
        """Add the objects' contributions."""
        self._check(boxes)
        lows = boxes.lows.astype(np.float64)
        # The closed integer box [lo, hi] covers the real extent [lo, hi + 1).
        highs = boxes.highs.astype(np.float64) + 1.0
        first, last = self._cell_range(boxes.lows, boxes.highs)
        for index in range(len(boxes)):
            self._insert_one(lows[index], highs[index], first[index], last[index])
        self._count += len(boxes)

    def _insert_one(self, lo: np.ndarray, hi: np.ndarray, first: np.ndarray,
                    last: np.ndarray) -> None:
        for i in range(int(first[0]), int(last[0]) + 1):
            x_lo, x_hi, _, _ = self._cell_bounds(i, 0)
            clip_w = min(hi[0], x_hi) - max(lo[0], x_lo)
            if clip_w <= 0:
                continue
            corner_x = x_lo <= lo[0] < x_hi, x_lo <= hi[0] <= x_hi
            for j in range(int(first[1]), int(last[1]) + 1):
                _, _, y_lo, y_hi = self._cell_bounds(0, j)
                clip_h = min(hi[1], y_hi) - max(lo[1], y_lo)
                if clip_h <= 0:
                    continue
                corner_y = y_lo <= lo[1] < y_hi, y_lo <= hi[1] <= y_hi
                corners = (int(corner_x[0]) + int(corner_x[1])) * \
                          (int(corner_y[0]) + int(corner_y[1]))
                self._corners[i, j] += corners
                self._areas[i, j] += clip_w * clip_h
                # Vertical edges of the object run at x = lo and x = hi; each
                # contributes its clipped length if that x lies in the cell.
                vertical = clip_h * (int(corner_x[0]) + int(corner_x[1]))
                horizontal = clip_w * (int(corner_y[0]) + int(corner_y[1]))
                self._vertical[i, j] += vertical
                self._horizontal[i, j] += horizontal

    # -- estimation ------------------------------------------------------------------

    def estimate_join(self, other: "GeometricHistogram") -> float:
        """Estimated ``|R join_o S|`` between the two summarised datasets."""
        self._compatible(other)
        cell_area = float(self._cell_extent[0] * self._cell_extent[1])
        incidences = (
            self._corners * other._areas
            + other._corners * self._areas
            + self._vertical * other._horizontal
            + other._vertical * self._horizontal
        ) / cell_area
        return float(max(0.0, incidences.sum() / 4.0))

    # -- accounting -------------------------------------------------------------------

    def storage_words(self) -> float:
        """``4^(L+1)`` words: four statistics per grid cell (Section 7)."""
        return float(4 ** (self._level + 1))
