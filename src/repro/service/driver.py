"""Reproducible synthetic boxes and queries for examples, benchmarks and the CLI.

An :class:`~repro.data.streams.UpdateStream` feeds a service with no
adapter: ``for kind, boxes in stream.batches(n): service.ingest(name,
boxes, side=side, kind=kind)`` (an :class:`~repro.data.streams.UpdateKind`
is the ``str`` kind ``ingest`` takes).
"""

from __future__ import annotations

import numpy as np

from repro.core.domain import Domain
from repro.errors import ServiceError
from repro.geometry.boxset import BoxSet


def synthetic_boxes(domain: Domain, count: int, *, seed: int = 0,
                    max_extent_fraction: float = 0.25,
                    degenerate: bool = False) -> BoxSet:
    """Uniform random boxes inside a domain (any dimensionality).

    A deliberately simple generator for examples, benchmarks and the CLI —
    the richer skewed/clustered generators live in :mod:`repro.data.synthetic`.
    ``degenerate=True`` produces points (``lo == hi``), as the epsilon-join
    family expects.
    """
    if count < 0:
        raise ServiceError("count must be non-negative")
    rng = np.random.default_rng(seed)
    sizes = np.asarray(domain.requested_sizes, dtype=np.int64)
    lows = rng.integers(0, np.maximum(sizes - 1, 1), size=(count, domain.dimension))
    if degenerate:
        return BoxSet(lows, lows.copy(), validate=False)
    max_extent = np.maximum((sizes * max_extent_fraction).astype(np.int64), 1)
    extents = rng.integers(1, np.maximum(max_extent, 2),
                           size=(count, domain.dimension))
    highs = np.minimum(lows + extents, sizes - 1)
    lows = np.minimum(lows, highs)
    return BoxSet(lows, highs, validate=False)


def synthetic_queries(domain: Domain, count: int, *, seed: int = 0,
                      max_extent_fraction: float = 0.25) -> BoxSet:
    """Uniform random query rectangles for batch-estimation workloads.

    A thin alias of :func:`synthetic_boxes` under a query-shaped name: the
    batched estimation benchmarks and the CLI's ``--batch-file`` tooling
    want reproducible query batches, and a query rectangle is just a box.
    """
    return synthetic_boxes(domain, count, seed=seed,
                           max_extent_fraction=max_extent_fraction)
