"""A hash-partitioned store of merge-compatible sketch shards.

:class:`ShardedSketchStore` is the heart of the sketch service: for every
registered estimator name it keeps ``num_shards`` independent estimators,
all built from one shared :class:`~repro.service.specs.EstimatorSpec`.
Because the spec fixes the seed, every shard draws identical xi families,
and the linearity of atomic sketches makes the shard copies *exactly*
mergeable: summing the shard counters yields bit-for-bit the sketch a
single estimator would have produced over the whole stream (counter
updates are integer-valued, so float64 addition is exact and
order-independent).

Boxes are routed to shards by a deterministic mix of their integer
coordinates (:func:`shard_ids`); a cluster router splits an ingest frame
over its shard workers with the same rule.  The one invariant is that the
shards **sum** to the name's sketch, which is all every reader
(:meth:`ShardedSketchStore.merge_view`) and a snapshot hold: a restored
name sits in shard 0, and a later delete may drive another shard negative.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ServiceError
from repro.geometry.boxset import BoxSet
from repro.service.specs import EstimatorSpec, apply_update

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)


def shard_ids(boxes: BoxSet, num_shards: int) -> np.ndarray:
    """Deterministic shard assignment for every box (splitmix-style hash).

    The hash depends only on the box coordinates and the shard count, never
    on insertion order or process state, so a frame splits the same way in
    every process.
    """
    if num_shards < 1:
        raise ServiceError("num_shards must be at least 1")
    count = len(boxes)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if num_shards == 1:
        return np.zeros(count, dtype=np.int64)
    lows = boxes.lows.astype(np.uint64)
    highs = boxes.highs.astype(np.uint64)
    h = np.full(count, _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for dim in range(boxes.dimension):
            h = (h ^ (lows[:, dim] + _MIX_A)) * _MIX_B
            h = (h ^ (highs[:, dim] + _MIX_C)) * _MIX_B
        h ^= h >> np.uint64(31)
        h *= _MIX_A
        h ^= h >> np.uint64(33)
    return (h % np.uint64(num_shards)).astype(np.int64)


def partition_boxes(boxes: BoxSet, num_shards: int) -> list[BoxSet | None]:
    """Split a box set into per-shard subsets (``None`` for empty shards)."""
    ids = shard_ids(boxes, num_shards)
    parts: list[BoxSet | None] = [None] * num_shards
    if len(boxes) == 0:
        return parts
    # np.bincount, not np.unique: the first np.unique of a process imports
    # numpy.ma (10-30 ms) — on the first ingest frame a server handles.
    for shard in np.flatnonzero(np.bincount(ids, minlength=num_shards)):
        parts[shard] = boxes[ids == shard]
    return parts


class ShardedSketchStore:
    """``num_shards`` merge-compatible estimators per registered name.

    The store itself performs no buffering — every :meth:`apply` call goes
    straight into the shard estimators.  Batching lives in
    :class:`repro.service.ingest.IngestPipeline`; combined query views come
    from :meth:`merge_view`, and the deltas that refresh them live with the
    views, in :class:`repro.service.service.EstimationService`.
    """

    def __init__(self, num_shards: int = 4) -> None:
        if num_shards < 1:
            raise ServiceError("a sharded store needs at least one shard")
        self._num_shards = int(num_shards)
        self._specs: dict[str, EstimatorSpec] = {}
        # One {name: estimator} mapping per shard.
        self._shards: list[dict[str, Any]] = [{} for _ in range(self._num_shards)]
        # Bumped on every mutation of a name; lets caches detect staleness.
        self._versions: dict[str, int] = {}

    # -- registration -------------------------------------------------------------

    def register(self, name: str, spec: EstimatorSpec) -> None:
        """Create the shard estimators for a new name: one build, the
        other shards its companions, so all of them alias one set of xi
        families and every merge across them skips the by-value check."""
        if not name:
            raise ServiceError("estimator names must be non-empty")
        if name in self._specs:
            raise ServiceError(f"estimator {name!r} is already registered")
        if not isinstance(spec, EstimatorSpec):
            raise ServiceError(f"expected an EstimatorSpec, got {type(spec).__name__}")
        first = spec.build()
        self._specs[name] = spec
        for index, shard in enumerate(self._shards):
            shard[name] = first.companion() if index else first
        self._versions[name] = 0

    def unregister(self, name: str) -> None:
        self.spec(name)  # raises for unknown names
        del self._specs[name]
        del self._versions[name]
        for shard in self._shards:
            del shard[name]

    # -- introspection ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def names(self) -> list[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def spec(self, name: str) -> EstimatorSpec:
        try:
            return self._specs[name]
        except KeyError as exc:
            raise ServiceError(f"unknown estimator {name!r}; registered: "
                               f"{self.names()}") from exc

    def version(self, name: str) -> int:
        """Mutation counter for a name (used for cache invalidation)."""
        self.spec(name)
        return self._versions[name]

    def shard_estimators(self, name: str) -> tuple[Any, ...]:
        self.spec(name)
        return tuple(shard[name] for shard in self._shards)

    # -- routing and updates ------------------------------------------------------

    def apply(self, name: str, side: str, kind: str, boxes: BoxSet) -> int:
        """Hash-partition a batch, update every shard it touches and bump
        the name's version once; returns the shard batches applied."""
        spec = self.spec(name)
        parts = [(shard, part) for shard, part
                 in enumerate(partition_boxes(boxes, self._num_shards))
                 if part is not None]
        for shard, part in parts:
            apply_update(spec, self._shards[shard][name], side, kind, part)
        if parts:
            self.mark_updated(name)
        return len(parts)

    def prepay_tables(self, name: str) -> None:
        """Build the xi tables ``name`` will update through, ahead of a flush.

        Shard 0's estimator stands for all of them: its families are the
        ones every shard, merged view and view delta of the name shares.
        """
        self.spec(name)  # raises for unknown names
        self._shards[0][name].prepay_tables()

    def mark_updated(self, name: str) -> None:
        """Bump a name's version after a mutation."""
        self._versions[name] = self._versions.get(name, 0) + 1

    # -- merged views -------------------------------------------------------------

    def merge_view(self, name: str) -> Any:
        """A fresh estimator equal to the sum of all shard estimators.

        The view starts as shard 0's ``companion()`` (zero counters over
        the xi families shard 0 already holds, so nothing is redrawn) and
        is independent of the store's counters: later shard updates do not
        affect it, which is exactly what a query-side cache wants.  Each
        fold is one vectorised add of contiguous counter tensors
        (:meth:`repro.core.atomic.SketchBank.merge`) — no per-word
        traversal, so view construction is O(shards) array ops per bank.
        """
        self.spec(name)  # raises for unknown names
        merged = self._shards[0][name].companion()
        for shard in self._shards:
            merged.merge(shard[name])
        return merged

    # -- persistence ----------------------------------------------------------------

    def state_dict(self) -> dict:
        """Every spec and, per name, one state: its :meth:`merge_view`,
        built for this state alone, so its counters go over uncopied —
        contiguous tensors, the form the binary snapshot writer writes."""
        return {"estimators": {
            name: {"spec": spec.to_dict(), "version": self._versions[name],
                   "shards": [self.merge_view(name).state_dict(copy=False)]}
            for name, spec in self._specs.items()}}

    def load_state_dict(self, state: Mapping) -> None:
        """Restore a snapshot into this (compatible, possibly empty) store."""
        from repro.service.snapshot import restore_store_state

        restore_store_state(self, state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedSketchStore(shards={self._num_shards}, "
                f"estimators={self.names()})")
