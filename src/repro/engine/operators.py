"""Physical operators of the mini spatial query engine.

Every operator executes exactly (no approximation) and reports execution
statistics — most importantly the number of elementary comparisons it
performed, which is the unit the cost model predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.relation import SpatialRelation
from repro.errors import EngineError
from repro.exact.rectangle_join import plane_sweep_join_count
from repro.index.grid import GridIndex
from repro.index.rtree import RTree


@dataclass
class OperatorResult:
    """Execution outcome: result cardinality plus basic statistics."""

    cardinality: int
    comparisons: int
    operator: str
    pairs: list[tuple[int, int]] = field(default_factory=list)


class _JoinOperator:
    """Common plumbing of the binary join operators."""

    name = "join"

    def __init__(self, left: SpatialRelation, right: SpatialRelation,
                 *, closed: bool = False) -> None:
        if left.dimension != right.dimension:
            raise EngineError("join inputs have different dimensionality")
        self._left = left
        self._right = right
        self._closed = closed

    def execute(self) -> OperatorResult:  # pragma: no cover - overridden
        raise NotImplementedError


class NestedLoopJoin(_JoinOperator):
    """Block nested-loop join (chunked all-pairs evaluation)."""

    name = "nested_loop"

    def execute(self, *, collect_pairs: bool = False, chunk_size: int = 256) -> OperatorResult:
        left = self._left.boxes()
        right = self._right.boxes()
        if len(left) == 0 or len(right) == 0:
            return OperatorResult(0, 0, self.name)
        comparisons = len(left) * len(right)
        cardinality = 0
        pairs: list[tuple[int, int]] = []
        for start in range(0, len(left), chunk_size):
            stop = min(start + chunk_size, len(left))
            l_lo = left.lows[start:stop, None, :]
            l_hi = left.highs[start:stop, None, :]
            if self._closed:
                per_dim = (l_lo <= right.highs[None, :, :]) & (right.lows[None, :, :] <= l_hi)
            else:
                per_dim = (l_lo < right.highs[None, :, :]) & (right.lows[None, :, :] < l_hi)
                proper = np.all(left.lows[start:stop] < left.highs[start:stop], axis=1)
                per_dim &= proper[:, None, None]
                proper_right = np.all(right.lows < right.highs, axis=1)
                per_dim &= proper_right[None, :, None]
            hits = np.all(per_dim, axis=2)
            cardinality += int(np.count_nonzero(hits))
            if collect_pairs:
                for i, j in zip(*np.nonzero(hits)):
                    pairs.append((start + int(i), int(j)))
        return OperatorResult(cardinality, comparisons, self.name, pairs)


class PlaneSweepJoin(_JoinOperator):
    """Plane-sweep join (two-dimensional data only)."""

    name = "plane_sweep"

    def execute(self) -> OperatorResult:
        left = self._left.boxes()
        right = self._right.boxes()
        if left.dimension != 2:
            raise EngineError("the plane-sweep join handles two-dimensional data only")
        if len(left) == 0 or len(right) == 0:
            return OperatorResult(0, 0, self.name)
        cardinality = plane_sweep_join_count(left, right, closed=self._closed)
        total = len(left) + len(right)
        comparisons = int(total * max(1, np.log2(max(total, 2))))
        return OperatorResult(cardinality, comparisons, self.name)


class IndexNestedLoopJoin(_JoinOperator):
    """Grid-index nested-loop join: index the right input, probe with the left."""

    name = "index_nested_loop"

    def __init__(self, left: SpatialRelation, right: SpatialRelation, *,
                 closed: bool = False, cells_per_dim: int = 32) -> None:
        super().__init__(left, right, closed=closed)
        self._cells_per_dim = cells_per_dim

    def execute(self) -> OperatorResult:
        left = self._left.boxes()
        right = self._right.boxes()
        if len(left) == 0 or len(right) == 0:
            return OperatorResult(0, 0, self.name)
        index = GridIndex(right, cells_per_dim=self._cells_per_dim)
        cardinality = 0
        comparisons = len(right)  # build cost proxy
        for i in range(len(left)):
            candidates = index.candidates(left[i])
            comparisons += int(candidates.size) + 1
            matches = index.query(left[i], closed=self._closed)
            cardinality += int(matches.size)
        return OperatorResult(cardinality, comparisons, self.name)


class RTreeJoin(_JoinOperator):
    """Dual R-tree join: bulk-load both inputs and traverse the trees together."""

    name = "rtree_join"

    def execute(self) -> OperatorResult:
        left = self._left.boxes()
        right = self._right.boxes()
        if len(left) == 0 or len(right) == 0:
            return OperatorResult(0, 0, self.name)
        left_tree = RTree(left)
        right_tree = RTree(right)
        cardinality = left_tree.join_count(right_tree, closed=self._closed)
        total = len(left) + len(right)
        comparisons = int(total * max(1, np.log2(max(total, 2)))) + 4 * cardinality
        return OperatorResult(cardinality, comparisons, self.name)

