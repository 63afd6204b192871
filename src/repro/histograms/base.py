"""Common infrastructure for the grid-histogram baselines."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.domain import Domain
from repro.errors import DimensionalityError, SketchConfigError
from repro.geometry.boxset import BoxSet


class SelectivityEstimator(ABC):
    """Minimal interface shared by all baseline estimators.

    ``insert`` summarises additional data; ``estimate_join`` produces the
    estimated join cardinality against another summary of the same type.
    """

    @abstractmethod
    def insert(self, boxes: BoxSet) -> None:
        """Summarise additional objects."""

    @abstractmethod
    def estimate_join(self, other: "SelectivityEstimator") -> float:
        """Estimated join cardinality between the two summarised datasets."""

    @abstractmethod
    def storage_words(self) -> float:
        """Memory footprint in words under the paper's accounting."""


class GridHistogram(SelectivityEstimator):
    """Shared machinery for histograms over a uniform 2-d grid of level L.

    A grid of level L partitions each dimension into ``2^L`` equi-width
    cells (Section 7).  Subclasses store per-cell (and possibly per-edge /
    per-vertex) statistics.
    """

    def __init__(self, domain: Domain, level: int) -> None:
        if domain.dimension != 2:
            raise DimensionalityError("the grid histograms are two-dimensional")
        if level < 0:
            raise SketchConfigError("the grid level must be non-negative")
        self._domain = domain
        self._level = int(level)
        self._cells_per_dim = 2 ** self._level
        sizes = np.asarray(domain.requested_sizes, dtype=np.float64)
        self._cell_extent = sizes / self._cells_per_dim
        self._count = 0

    # -- shared accessors -------------------------------------------------------

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def level(self) -> int:
        return self._level

    @property
    def cells_per_dim(self) -> int:
        return self._cells_per_dim

    @property
    def count(self) -> int:
        """Number of objects summarised so far."""
        return self._count

    # -- shared geometry helpers ----------------------------------------------------

    def _check(self, boxes: BoxSet) -> None:
        if boxes.dimension != 2:
            raise DimensionalityError("expected two-dimensional boxes")
        if not self._domain.contains(boxes):
            raise DimensionalityError("boxes fall outside the histogram domain")

    def _cell_range(self, lows: np.ndarray, highs: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """First and last grid cell index intersected by each box, per dimension."""
        first = np.floor(lows / self._cell_extent).astype(np.int64)
        last = np.floor(highs / self._cell_extent).astype(np.int64)
        first = np.clip(first, 0, self._cells_per_dim - 1)
        last = np.clip(last, 0, self._cells_per_dim - 1)
        return first, last

    def _cell_bounds(self, i: int, j: int) -> tuple[float, float, float, float]:
        """``(x_lo, x_hi, y_lo, y_hi)`` of cell ``(i, j)`` in domain coordinates."""
        x_lo = i * self._cell_extent[0]
        y_lo = j * self._cell_extent[1]
        return x_lo, x_lo + self._cell_extent[0], y_lo, y_lo + self._cell_extent[1]

    def _compatible(self, other: "GridHistogram") -> None:
        if type(other) is not type(self):
            raise SketchConfigError(
                f"cannot join a {type(self).__name__} with a {type(other).__name__}"
            )
        if other.level != self.level or other.cells_per_dim != self.cells_per_dim:
            raise SketchConfigError("histograms must use the same grid level")
        if other.domain.requested_sizes != self.domain.requested_sizes:
            raise SketchConfigError("histograms must be built over the same domain")
