"""Exact cardinality of epsilon-joins of point sets (Section 6.3 ground truth).

The default algorithm hashes the B points onto a uniform grid with cell
side ``epsilon`` and, for every A point, inspects only the neighbouring
cells, giving near-linear behaviour for realistic point densities.  The
L-infinity distance is used, matching the estimator.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.errors import DimensionalityError, DomainError
from repro.geometry.boxset import PointSet


def epsilon_join_count(left: PointSet, right: PointSet, epsilon: int) -> int:
    """Number of pairs ``(a, b)`` with ``dist_inf(a, b) <= epsilon``."""
    if left.dimension != right.dimension:
        raise DimensionalityError("point sets have different dimensionality")
    if epsilon < 0:
        raise DomainError("epsilon must be non-negative")
    if len(left) == 0 or len(right) == 0:
        return 0
    if epsilon == 0:
        return _exact_match_count(left, right)

    cell = max(1, int(epsilon))
    grid: dict[tuple[int, ...], list[int]] = defaultdict(list)
    right_cells = right.coords // cell
    for index in range(len(right)):
        grid[tuple(int(c) for c in right_cells[index])].append(index)

    dims = left.dimension
    offsets = _neighbour_offsets(dims)
    left_cells = left.coords // cell
    total = 0
    for index in range(len(left)):
        a = left.coords[index]
        base = left_cells[index]
        for offset in offsets:
            key = tuple(int(c) for c in (base + offset))
            bucket = grid.get(key)
            if not bucket:
                continue
            candidates = right.coords[bucket]
            distances = np.max(np.abs(candidates - a), axis=1)
            total += int(np.count_nonzero(distances <= epsilon))
    return total


def _neighbour_offsets(dims: int) -> list[np.ndarray]:
    offsets = [np.zeros(0, dtype=np.int64)]
    for _ in range(dims):
        offsets = [np.concatenate([prefix, np.array([delta], dtype=np.int64)])
                   for prefix in offsets for delta in (-1, 0, 1)]
    return offsets


def _exact_match_count(left: PointSet, right: PointSet) -> int:
    """Pairs of identical points (epsilon = 0)."""
    def counts(points: PointSet) -> dict[tuple[int, ...], int]:
        result: dict[tuple[int, ...], int] = defaultdict(int)
        for index in range(len(points)):
            result[points.point(index)] += 1
        return result

    left_counts = counts(left)
    right_counts = counts(right)
    return sum(count * right_counts.get(point, 0) for point, count in left_counts.items())
