"""Synthetic spatial workloads (Section 7.1).

The paper's synthetic two-dimensional datasets generate the interval of an
object independently per dimension: the position follows a Zipfian
distribution with parameter ``z`` (``z = 0`` is uniform) and the average
object extent per dimension is of order ``sqrt(domain size)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.domain import Domain
from repro.data.zipf import zipf_sample
from repro.errors import WorkloadError
from repro.geometry.boxset import BoxSet, PointSet


def _resolve_rng(rng) -> np.random.Generator:
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _check_count(count: int) -> None:
    if count < 1:
        raise WorkloadError(f"the number of objects must be positive, got {count}")


def _sample_lengths(count: int, mean_length: float, rng: np.random.Generator,
                    max_length: int) -> np.ndarray:
    """Exponentially distributed object extents with a given mean (>= 1)."""
    if mean_length < 1:
        raise WorkloadError("the mean object length must be at least 1")
    lengths = rng.exponential(scale=mean_length, size=count)
    lengths = np.clip(np.round(lengths), 1, max(1, max_length)).astype(np.int64)
    return lengths


def generate_intervals(count: int, domain: Domain | int, *,
                       mean_length: float | None = None, rng=None) -> BoxSet:
    """Generate ``count`` one-dimensional intervals, uniformly placed.

    Parameters
    ----------
    count:
        Number of intervals.
    domain:
        The data space (or its size).
    mean_length:
        Mean interval extent; defaults to ``sqrt(domain size)`` as in the paper.
    rng:
        Seed or :class:`numpy.random.Generator`.
    """
    _check_count(count)
    if isinstance(domain, int):
        domain = Domain(domain)
    if domain.dimension != 1:
        raise WorkloadError("generate_intervals needs a one-dimensional domain")
    rng = _resolve_rng(rng)
    size = domain.requested_sizes[0]
    if mean_length is None:
        mean_length = float(np.sqrt(size))
    lengths = _sample_lengths(count, mean_length, rng, size - 1)
    starts = zipf_sample(count, size - 1, 0.0, rng)
    highs = np.minimum(starts + lengths, size - 1)
    lows = np.minimum(starts, highs - 1)
    lows = np.maximum(lows, 0)
    return BoxSet(lows[:, None], highs[:, None])


def generate_rectangles(count: int, domain: Domain, *, skew: float | tuple[float, ...] = 0.0,
                        mean_length: float | tuple[float, ...] | None = None,
                        rng=None) -> BoxSet:
    """Generate ``count`` axis-aligned hyper-rectangles.

    Positions follow independent per-dimension Zipf distributions with the
    given skew(s); extents are exponential with mean ``sqrt(domain size)``
    per dimension unless overridden.
    """
    _check_count(count)
    rng = _resolve_rng(rng)
    dimension = domain.dimension
    if isinstance(skew, (int, float)):
        skew = (float(skew),) * dimension
    if len(skew) != dimension:
        raise WorkloadError("one skew value per dimension is required")
    if mean_length is None or isinstance(mean_length, (int, float)):
        mean_length = (mean_length,) * dimension
    if len(mean_length) != dimension:
        raise WorkloadError("one mean length per dimension is required")

    lows = np.empty((count, dimension), dtype=np.int64)
    highs = np.empty((count, dimension), dtype=np.int64)
    for dim in range(dimension):
        size = domain.requested_sizes[dim]
        mean = mean_length[dim]
        if mean is None:
            mean = float(np.sqrt(size))
        lengths = _sample_lengths(count, mean, rng, size - 1)
        starts = zipf_sample(count, size - 1, skew[dim], rng, shuffle_ranks=skew[dim] > 0)
        hi = np.minimum(starts + lengths, size - 1)
        lo = np.maximum(np.minimum(starts, hi - 1), 0)
        lows[:, dim] = lo
        highs[:, dim] = hi
    return BoxSet(lows, highs)


def generate_points(count: int, domain: Domain, *, rng=None) -> PointSet:
    """Generate ``count`` points, each coordinate independent and uniform
    per dimension."""
    _check_count(count)
    rng = _resolve_rng(rng)
    dimension = domain.dimension
    sizes = np.asarray(domain.requested_sizes, dtype=np.int64)
    coords = np.empty((count, dimension), dtype=np.int64)
    for dim in range(dimension):
        coords[:, dim] = zipf_sample(count, int(sizes[dim]), 0.0, rng)
    return PointSet(coords)
