"""Batched ingestion: buffer updates, flush them through vectorised inserts.

Per-box sketch updates pay the full Python/NumPy dispatch overhead for a
single dyadic cover; the vectorised :meth:`repro.core.atomic.SketchBank.insert`
amortises that overhead over thousands of boxes.  The
:class:`IngestPipeline` therefore *buffers* submitted updates, one list per
``(name, side, kind)`` destination, and only touches the shard estimators
on :meth:`flush`, where each destination's boxes are concatenated once and
hash-partitioned once (:meth:`ShardedSketchStore.apply`).

Correctness relies on sketch linearity twice over: within one flush the
inserts and deletes of a destination commute, so regrouping them loses
nothing; and across shards the hash-partitioned batches sum to exactly the
unsharded sketch.  A flush applies the shards one after the other in the
calling thread: the update kernels are a few short NumPy calls per word,
too short for a thread pool to do anything but trade the GIL.

The xi tables those kernels gather from are built when a name's first
batch is buffered, not by the name's first flush: the wait sits on the
first ack, where a fleet's workers share it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.boxset import BoxSet
from repro.service.store import ShardedSketchStore


@dataclass(frozen=True)
class FlushReport:
    """What one :meth:`IngestPipeline.flush` call actually did.

    ``updates`` holds one ``(name, side, kind, boxes)`` entry per flushed
    destination, in the order applied; ``batches`` counts the shard
    batches those split into.
    """

    boxes: int
    batches: int
    updates: tuple[tuple[str, str, str, BoxSet], ...]

    def __bool__(self) -> bool:
        return self.boxes > 0


@dataclass
class IngestStats:
    """Running totals of a pipeline's lifetime."""

    submitted_boxes: int = 0
    flushed_boxes: int = 0
    flushes: int = 0
    auto_flushes: int = 0
    flushed_batches: int = 0
    #: Names fed since they were registered (their xi tables are pre-paid).
    names: set = field(default_factory=set)


class IngestPipeline:
    """Buffers updates per destination and flushes them in bulk.

    Parameters
    ----------
    store:
        The sharded store receiving the flushed batches.

    The pipeline never flushes on its own: crossing a threshold is the
    owning :class:`~repro.service.service.EstimationService`'s decision,
    taken under its lock.
    """

    def __init__(self, store: ShardedSketchStore) -> None:
        self._store = store
        # (name, side, kind) -> the buffered batches, in arrival order.
        self._buffers: dict[tuple[str, str, str], list[BoxSet]] = {}
        self._pending = 0
        self._lock = threading.Lock()
        self._stats = IngestStats()

    # -- introspection ------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of buffered boxes not yet applied to the shards."""
        return self._pending

    @property
    def stats(self) -> IngestStats:
        return self._stats

    # -- buffering ----------------------------------------------------------------

    def submit(self, name: str, boxes: BoxSet, *, side: str = "left",
               kind: str = "insert") -> int:
        """Buffer one batch of updates; returns the new pending count.

        An unknown ``name`` raises; the batch itself is the caller's to
        check (``EstimationService.ingest`` runs
        :func:`~repro.service.specs.check_update`), so a flush never meets a
        box its estimators would refuse.  The first non-empty batch of a
        name also builds the name's xi tables
        (:meth:`ShardedSketchStore.prepay_tables`).
        """
        self._store.spec(name)
        if len(boxes) == 0:
            return self._pending
        with self._lock:
            self._buffers.setdefault((name, side, kind), []).append(boxes)
            self._pending += len(boxes)
            self._stats.submitted_boxes += len(boxes)
            if name not in self._stats.names:
                # The name's first box pays for its xi tables here, before
                # the ack, not inside its first flush: a fleet's workers
                # get a name's first sub-batches together and so build
                # side by side.  Under the lock, so racing first frames
                # (and a flush of what is buffered above) wait for the one
                # build instead of trading the GIL with it.
                self._stats.names.add(name)
                self._store.prepay_tables(name)
        return self._pending

    def discard(self, name: str) -> int:
        """Drop every buffered batch for *name*; returns boxes discarded.

        Unregistering an estimator with updates still buffered must not
        leave batches behind — the next flush would try to apply them to a
        spec that no longer exists.
        """
        dropped = 0
        with self._lock:
            for key in [key for key in self._buffers if key[0] == name]:
                dropped += sum(len(part) for part in self._buffers.pop(key))
            self._pending -= dropped
            # A re-registered name is a new one: other seed, other tables.
            self._stats.names.discard(name)
        return dropped

    # -- flushing -----------------------------------------------------------------

    def flush(self, *, auto: bool = False) -> FlushReport:
        """Apply every buffered destination to the shards and clear the buffers."""
        with self._lock:
            buffers, self._buffers = self._buffers, {}
            flushed_boxes, self._pending = self._pending, 0

        batches = 0
        updates = []
        for key in sorted(buffers):
            boxes = _concat(buffers[key])
            batches += self._store.apply(*key, boxes)
            updates.append((*key, boxes))
        self._stats.flushes += 1 if updates else 0
        self._stats.auto_flushes += 1 if (updates and auto) else 0
        self._stats.flushed_boxes += flushed_boxes
        self._stats.flushed_batches += batches
        return FlushReport(boxes=flushed_boxes, batches=batches,
                           updates=tuple(updates))


def _concat(parts: list[BoxSet]) -> BoxSet:
    if len(parts) == 1:
        return parts[0]
    lows = np.vstack([part.lows for part in parts])
    highs = np.vstack([part.highs for part in parts])
    return BoxSet(lows, highs, validate=False)
