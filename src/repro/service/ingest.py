"""Batched ingestion: buffer updates, flush them through vectorised inserts.

Per-box sketch updates pay the full Python/NumPy dispatch overhead for a
single dyadic cover; the vectorised :meth:`repro.core.atomic.SketchBank.insert`
amortises that overhead over thousands of boxes.  The
:class:`IngestPipeline` therefore *buffers* submitted updates as per-shard
deltas and only touches the shard estimators on :meth:`flush`, where all
buffered inserts (and, separately, all deletes) of one ``(shard, name,
side)`` destination are concatenated into a single large batch.

Correctness relies on sketch linearity twice over: within one flush the
inserts and deletes of a destination commute, so regrouping them loses
nothing; and across shards the hash-partitioned deltas sum to exactly the
unsharded sketch.  A flush applies the shards one after the other in the
calling thread: the update kernels are a few short NumPy calls per word,
too short for a thread pool to do anything but trade the GIL.

The xi tables those kernels gather from are built when a name's first
batch is buffered, not by the flush that would cross their break-even:
the wait sits on the first ack, where a fleet's workers share it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServiceError
from repro.geometry.boxset import BoxSet
from repro.service.specs import UPDATE_KINDS, as_boxes
from repro.service.store import ShardedSketchStore


@dataclass(frozen=True)
class FlushReport:
    """What one :meth:`IngestPipeline.flush` call actually did."""

    boxes: int
    batches: int
    shards_touched: int
    names: tuple[str, ...]

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
    """Buffers updates into per-shard deltas and flushes them in bulk.

    Parameters
    ----------
    store:
        The sharded store receiving the flushed deltas.

    The pipeline never flushes on its own: crossing a threshold is the
    owning :class:`~repro.service.service.EstimationService`'s decision,
    taken under its lock.
    """

    def __init__(self, store: ShardedSketchStore) -> None:
        self._store = store
        # deltas[shard][(name, side, kind)] -> list[BoxSet]
        self._deltas: list[dict[tuple[str, str, str], list[BoxSet]]] = [
            {} for _ in range(store.num_shards)
        ]
        self._pending = 0
        self._lock = threading.Lock()
        self._stats = IngestStats()

    # -- introspection ------------------------------------------------------------

    @property
    def store(self) -> ShardedSketchStore:
        return self._store

    @property
    def pending(self) -> int:
        """Number of buffered boxes not yet applied to the shards."""
        return self._pending

    @property
    def stats(self) -> IngestStats:
        return self._stats

    # -- buffering ----------------------------------------------------------------

    def submit(self, name: str, boxes, *, side: str = "left",
               kind: str = "insert") -> int:
        """Buffer one batch of updates; returns the new pending count.

        The batch is hash-partitioned immediately (routing is cheap and
        vectorised) so that flushing only has to concatenate and apply.
        The first non-empty batch of a name also builds the name's xi
        tables (:meth:`ShardedSketchStore.prepay_tables`).
        """
        spec = self._store.spec(name)
        side = spec.info.resolve_side(side)
        if kind not in UPDATE_KINDS:
            raise ServiceError(f"update kind must be one of {UPDATE_KINDS}, got {kind!r}")
        boxes = as_boxes(boxes)
        if len(boxes) == 0:
            return self._pending
        key = (name, side, kind)
        with self._lock:
            for shard_index, part in enumerate(self._store.partition(boxes)):
                if part is not None:
                    self._deltas[shard_index].setdefault(key, []).append(part)
            self._pending += len(boxes)
            self._stats.submitted_boxes += len(boxes)
            if name not in self._stats.names:
                # The name's first box pays for its xi tables here, before
                # the ack, not inside whichever flush crosses the
                # break-even: a fleet's workers get a name's first
                # sub-batches together and so build side by side.  Under
                # the lock, so racing first frames (and a flush of what is
                # buffered above) wait for the one build instead of
                # trading the GIL with it.
                self._stats.names.add(name)
                self._store.prepay_tables(name)
        return self._pending

    def discard(self, name: str) -> int:
        """Drop every buffered delta for *name*; returns boxes discarded.

        Unregistering an estimator with updates still buffered must not
        leave deltas behind — the next flush would try to apply them to a
        spec that no longer exists.
        """
        dropped = 0
        with self._lock:
            for shard_deltas in self._deltas:
                for key in [k for k in shard_deltas if k[0] == name]:
                    dropped += sum(len(part) for part in shard_deltas.pop(key))
            self._pending -= dropped
            # A re-registered name is a new one: other seed, other tables.
            self._stats.names.discard(name)
        return dropped

    # -- flushing -----------------------------------------------------------------

    def flush(self, *, auto: bool = False) -> FlushReport:
        """Apply every buffered delta to its shard and clear the buffers."""
        with self._lock:
            deltas, self._deltas = self._deltas, [
                {} for _ in range(self._store.num_shards)
            ]
            flushed_boxes, self._pending = self._pending, 0

        batches = 0
        shards_touched = 0
        names: set[str] = set()
        # Names under a delta watch additionally get a copy of their flushed
        # boxes recorded into the store's delta tracker (concatenated across
        # shards — the tracker estimator is unsharded).  Within one flush
        # the updates of a destination commute, so shard order is free.
        watched: dict[tuple[str, str, str], list[BoxSet]] = {}
        for shard_index, shard_deltas in enumerate(deltas):
            if not shard_deltas:
                continue
            shards_touched += 1
            for key in sorted(shard_deltas):
                name, side, kind = key
                boxes = _concat(shard_deltas[key])
                self._store.apply_to_shard(shard_index, name, side, kind, boxes)
                names.add(name)
                batches += 1
                if self._store.is_watching(name):
                    watched.setdefault(key, []).append(boxes)

        for (name, side, kind), parts in sorted(watched.items()):
            self._store.record_delta(name, side, kind, _concat(parts))
        # Every box of this flush was offered to the trackers above, so
        # watches stay live across the version bump.
        for name in names:
            self._store.mark_updated(name, delta_recorded=True)
        self._stats.flushes += 1 if shards_touched else 0
        self._stats.auto_flushes += 1 if (shards_touched and auto) else 0
        self._stats.flushed_boxes += flushed_boxes
        self._stats.flushed_batches += batches
        return FlushReport(boxes=flushed_boxes, batches=batches,
                           shards_touched=shards_touched,
                           names=tuple(sorted(names)))


def _concat(parts: list[BoxSet]) -> BoxSet:
    if len(parts) == 1:
        return parts[0]
    lows = np.vstack([part.lows for part in parts])
    highs = np.vstack([part.highs for part in parts])
    return BoxSet(lows, highs, validate=False)
