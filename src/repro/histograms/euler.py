"""Generalized Euler Histograms (EH) [Sun et al., ICDE 2002 / EDBT 2002].

An Euler histogram allocates buckets not only for the cells of a uniform
grid but also for the interior grid *edges* and *vertices*.  Every object
contributes +1 to each grid element its interior intersects, so by the
Euler characteristic an aligned region query can be answered exactly:

    #objects intersecting the region = sum(cells) - sum(edges) + sum(vertices).

The *generalized* Euler histogram additionally stores, per cell (and here
also per edge), statistics of the clipped geometry — average clipped width
and height — which feed a per-bucket probabilistic model for spatial-join
estimation.  This reimplementation estimates, for every grid element, the
expected number of join pairs whose intersection region meets the element
(assuming objects clipped to a bucket are uniformly distributed within it)
and combines the per-element estimates with Euler-characteristic signs:

    |R join S|  ~=  sum(cell estimates) - sum(edge estimates) + sum(vertex estimates).

If the per-element estimates were exact, the total would be exact, because
the intersection region of an overlapping pair has Euler characteristic 1
over the grid subdivision.  The per-bucket uniformity assumptions are what
make EH accurate at coarse grids but increasingly unpredictable as the grid
is refined (the behaviour Figures 9-11 of the paper highlight).
"""

from __future__ import annotations

import numpy as np

from repro.core.domain import Domain
from repro.geometry.boxset import BoxSet
from repro.histograms.base import GridHistogram


class EulerHistogram(GridHistogram):
    """The EH baseline used in Section 7 (referred to as "EH" in the figures)."""

    def __init__(self, domain: Domain, level: int) -> None:
        super().__init__(domain, level)
        cells = self._cells_per_dim
        # Per-cell statistics.
        self._cell_count = np.zeros((cells, cells), dtype=np.float64)
        self._cell_width = np.zeros((cells, cells), dtype=np.float64)
        self._cell_height = np.zeros((cells, cells), dtype=np.float64)
        # Interior vertical boundaries: between columns i and i+1, per row.
        self._vedge_count = np.zeros((max(cells - 1, 1), cells), dtype=np.float64)
        self._vedge_length = np.zeros((max(cells - 1, 1), cells), dtype=np.float64)
        # Interior horizontal boundaries: between rows j and j+1, per column.
        self._hedge_count = np.zeros((cells, max(cells - 1, 1)), dtype=np.float64)
        self._hedge_length = np.zeros((cells, max(cells - 1, 1)), dtype=np.float64)
        # Interior vertices.
        self._vertex_count = np.zeros((max(cells - 1, 1), max(cells - 1, 1)), dtype=np.float64)

    # -- maintenance --------------------------------------------------------------

    def insert(self, boxes: BoxSet) -> None:
        """Add the objects' contributions."""
        self._check(boxes)
        lows = boxes.lows.astype(np.float64)
        highs = boxes.highs.astype(np.float64) + 1.0
        first, last = self._cell_range(boxes.lows, boxes.highs)
        for index in range(len(boxes)):
            self._insert_one(lows[index], highs[index], first[index], last[index])
        self._count += len(boxes)

    def _insert_one(self, lo: np.ndarray, hi: np.ndarray, first: np.ndarray,
                    last: np.ndarray) -> None:
        cw, ch = float(self._cell_extent[0]), float(self._cell_extent[1])
        i0, i1 = int(first[0]), int(last[0])
        j0, j1 = int(first[1]), int(last[1])

        clip_ws = []
        for i in range(i0, i1 + 1):
            clip_ws.append(min(hi[0], (i + 1) * cw) - max(lo[0], i * cw))
        clip_hs = []
        for j in range(j0, j1 + 1):
            clip_hs.append(min(hi[1], (j + 1) * ch) - max(lo[1], j * ch))

        for oi, i in enumerate(range(i0, i1 + 1)):
            for oj, j in enumerate(range(j0, j1 + 1)):
                if clip_ws[oi] <= 0 or clip_hs[oj] <= 0:
                    continue
                self._cell_count[i, j] += 1
                self._cell_width[i, j] += clip_ws[oi]
                self._cell_height[i, j] += clip_hs[oj]

        # Vertical interior boundaries strictly crossed by the object.
        for i in range(i0, i1):
            boundary = (i + 1) * cw
            if not lo[0] < boundary < hi[0]:
                continue
            for oj, j in enumerate(range(j0, j1 + 1)):
                if clip_hs[oj] <= 0:
                    continue
                self._vedge_count[i, j] += 1
                self._vedge_length[i, j] += clip_hs[oj]

        # Horizontal interior boundaries strictly crossed by the object.
        for j in range(j0, j1):
            boundary = (j + 1) * ch
            if not lo[1] < boundary < hi[1]:
                continue
            for oi, i in enumerate(range(i0, i1 + 1)):
                if clip_ws[oi] <= 0:
                    continue
                self._hedge_count[i, j] += 1
                self._hedge_length[i, j] += clip_ws[oi]

        # Interior vertices covered by the object's interior.
        for i in range(i0, i1):
            x_boundary = (i + 1) * cw
            if not lo[0] < x_boundary < hi[0]:
                continue
            for j in range(j0, j1):
                y_boundary = (j + 1) * ch
                if lo[1] < y_boundary < hi[1]:
                    self._vertex_count[i, j] += 1

    # -- join estimation ---------------------------------------------------------------------

    @staticmethod
    def _pair_factor(count_a: np.ndarray, sum_a: np.ndarray, count_b: np.ndarray,
                     sum_b: np.ndarray, extent: float) -> np.ndarray:
        """Per-bucket ``n_a * n_b * min(1, (mean_a + mean_b) / extent)``."""
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_a = np.where(count_a > 0, sum_a / np.maximum(count_a, 1e-12), 0.0)
            mean_b = np.where(count_b > 0, sum_b / np.maximum(count_b, 1e-12), 0.0)
        probability = np.minimum(1.0, (mean_a + mean_b) / extent)
        return count_a * count_b * probability

    def estimate_join(self, other: "EulerHistogram") -> float:
        """Estimated ``|R join_o S|`` between the two summarised datasets."""
        self._compatible(other)
        cw, ch = float(self._cell_extent[0]), float(self._cell_extent[1])

        cell_terms = (
            self._cell_count * other._cell_count
            * np.minimum(1.0, self._safe_mean(self._cell_width, self._cell_count)
                         / cw + self._safe_mean(other._cell_width, other._cell_count) / cw)
            * np.minimum(1.0, self._safe_mean(self._cell_height, self._cell_count)
                         / ch + self._safe_mean(other._cell_height, other._cell_count) / ch)
        )
        vedge_terms = self._pair_factor(self._vedge_count, self._vedge_length,
                                        other._vedge_count, other._vedge_length, ch)
        hedge_terms = self._pair_factor(self._hedge_count, self._hedge_length,
                                        other._hedge_count, other._hedge_length, cw)
        vertex_terms = self._vertex_count * other._vertex_count

        estimate = (cell_terms.sum() - vedge_terms.sum() - hedge_terms.sum()
                    + vertex_terms.sum())
        return float(max(0.0, estimate))

    @staticmethod
    def _safe_mean(total: np.ndarray, count: np.ndarray) -> np.ndarray:
        return np.where(count > 0, total / np.maximum(count, 1e-12), 0.0)

    # -- accounting ------------------------------------------------------------------------------

    def storage_words(self) -> float:
        """``9 * 2^(2L) - 6 * 2^L + 1`` words, the figure quoted in Section 7."""
        cells = self._cells_per_dim
        return float(9 * cells * cells - 6 * cells + 1)
