"""Exact cardinality of epsilon-joins of point sets (Section 6.3 ground truth).

Points are degenerate boxes (``lo == hi``); their ``lows`` are the
coordinates.  The algorithm hashes the B points onto a uniform grid with
cell side ``max(1, epsilon)`` and, for every A point, inspects only the
neighbouring cells, giving near-linear behaviour for realistic point
densities (with ``epsilon == 0`` it counts exact matches).  The L-infinity
distance is used, matching the estimator.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.errors import DimensionalityError, DomainError
from repro.geometry.boxset import BoxSet


def epsilon_join_count(left: BoxSet, right: BoxSet, epsilon: int) -> int:
    """Number of pairs ``(a, b)`` with ``dist_inf(a, b) <= epsilon``."""
    if left.dimension != right.dimension:
        raise DimensionalityError("point sets have different dimensionality")
    if epsilon < 0:
        raise DomainError("epsilon must be non-negative")
    if len(left) == 0 or len(right) == 0:
        return 0

    cell = max(1, int(epsilon))
    grid: dict[tuple[int, ...], list[int]] = defaultdict(list)
    left_points, right_points = left.lows, right.lows
    right_cells = right_points // cell
    for index in range(len(right)):
        grid[tuple(int(c) for c in right_cells[index])].append(index)

    dims = left.dimension
    offsets = _neighbour_offsets(dims)
    left_cells = left_points // cell
    total = 0
    for index in range(len(left)):
        a = left_points[index]
        base = left_cells[index]
        for offset in offsets:
            key = tuple(int(c) for c in (base + offset))
            bucket = grid.get(key)
            if not bucket:
                continue
            candidates = right_points[bucket]
            distances = np.max(np.abs(candidates - a), axis=1)
            total += int(np.count_nonzero(distances <= epsilon))
    return total


def _neighbour_offsets(dims: int) -> list[np.ndarray]:
    offsets = [np.zeros(0, dtype=np.int64)]
    for _ in range(dims):
        offsets = [np.concatenate([prefix, np.array([delta], dtype=np.int64)])
                   for prefix in offsets for delta in (-1, 0, 1)]
    return offsets
