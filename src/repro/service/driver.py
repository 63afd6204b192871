"""Feed :mod:`repro.data.streams` update streams into a running service.

:class:`StreamDriver` adapts the repository's reproducible insert/delete
streams (:class:`~repro.data.streams.UpdateStream`) to the service's
batched ingestion API: operations are grouped into same-kind batches and
submitted as bulk inserts/deletes, which is both how a real feed would
arrive and what the vectorised sketch update path wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.domain import Domain
from repro.errors import ServiceError
from repro.geometry.boxset import BoxSet

if TYPE_CHECKING:  # a server start never loads the data generators
    from repro.data.streams import UpdateStream


@dataclass(frozen=True)
class DriveReport:
    """Totals of one stream replay."""

    inserts: int
    deletes: int
    batches: int


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


class StreamDriver:
    """Replays an update stream into one side of a service estimator."""

    def __init__(self, service, name: str, *, side: str = "left",
                 batch_size: int = 512) -> None:
        if batch_size < 1:
            raise ServiceError("batch_size must be positive")
        service.spec(name)  # fail fast on unknown names
        self._service = service
        self._name = name
        self._side = side
        self._batch_size = int(batch_size)

    def drive(self, stream: UpdateStream) -> DriveReport:
        """Push the whole stream through the service in same-kind batches."""
        from repro.data.streams import UpdateKind

        inserts = deletes = batches = 0
        for kind, boxes in stream.batches(self._batch_size):
            self._service.ingest(self._name, boxes, side=self._side,
                                 kind="insert" if kind is UpdateKind.INSERT else "delete")
            if kind is UpdateKind.INSERT:
                inserts += len(boxes)
            else:
                deletes += len(boxes)
            batches += 1
        return DriveReport(inserts=inserts, deletes=deletes, batches=batches)
