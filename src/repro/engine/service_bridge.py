"""Source the engine's synopses from a running sketch service.

:class:`ServiceSynopses` is a drop-in replacement for
:class:`~repro.engine.synopses.SynopsisManager` that keeps its sketches
inside an :class:`~repro.service.service.EstimationService` instead of as
in-process estimator objects.  Relations of a :class:`~repro.engine.catalog.Catalog`
are wired to the service through the same listener protocol the classic
manager uses, so inserts and deletes flow through the service's batched,
sharded ingestion path — and the optimizer consumes exactly the interface
it already knows (``estimated_join_cardinality``).

This is the shape argued for by the federated-grid and probabilistic-
summary lines of related work: compact linear summaries maintained near
the data (the service shards), combined at query time (merged views).
"""

from __future__ import annotations

from typing import Sequence


from repro.core.domain import Domain
from repro.core.hashing import stable_seed_offset as pair_seed_offset
from repro.engine.relation import SpatialRelation
from repro.errors import EngineError
from repro.geometry.boxset import BoxSet
from repro.geometry.rectangle import Rect


class _ServicePairListener:
    """Routes relation mutations into the two sides of a service estimator."""

    def __init__(self, service, name: str, left: SpatialRelation,
                 right: SpatialRelation) -> None:
        self._service = service
        self._name = name
        self._left = left
        self._right = right

    def on_insert(self, relation: SpatialRelation, boxes: BoxSet) -> None:
        if relation is self._left:
            self._service.ingest(self._name, boxes, side="left", kind="insert")
        if relation is self._right:
            self._service.ingest(self._name, boxes, side="right", kind="insert")

    def on_delete(self, relation: SpatialRelation, boxes: BoxSet) -> None:
        if relation is self._left:
            self._service.ingest(self._name, boxes, side="left", kind="delete")
        if relation is self._right:
            self._service.ingest(self._name, boxes, side="right", kind="delete")


class _ServiceSingleListener:
    """Routes relation mutations into a single-input service estimator."""

    def __init__(self, service, name: str, relation: SpatialRelation) -> None:
        self._service = service
        self._name = name
        self._relation = relation

    def on_insert(self, relation: SpatialRelation, boxes: BoxSet) -> None:
        if relation is self._relation:
            self._service.ingest(self._name, boxes, side="data", kind="insert")

    def on_delete(self, relation: SpatialRelation, boxes: BoxSet) -> None:
        if relation is self._relation:
            self._service.ingest(self._name, boxes, side="data", kind="delete")


class ServiceSynopses:
    """Service-backed synopses with the :class:`SynopsisManager` interface.

    Parameters
    ----------
    domain:
        The engine's data space (possibly level-restricted via ``max_level``).
    service:
        An :class:`~repro.service.service.EstimationService` to use; a
        private 4-shard service is created when omitted.
    num_instances, seed:
        Sketch sizing, matching :class:`SynopsisManager`'s parameters.
    """

    def __init__(self, domain: Domain, *, service=None, num_instances: int = 256,
                 seed: int = 0, max_level: int | None = None,
                 num_shards: int = 4) -> None:
        from repro.service.service import EstimationService

        self._domain = domain if max_level is None else domain.with_max_level(max_level)
        if service is None:
            service = EstimationService(num_shards=num_shards)
        self._service = service
        self._num_instances = int(num_instances)
        self._seed = int(seed)
        self._join_names: dict[tuple[str, str], str] = {}
        self._range_names: dict[str, str] = {}

    @classmethod
    def from_snapshot(cls, path, domain: Domain, *, num_instances: int = 256,
                      seed: int = 0, max_level: int | None = None,
                      **service_kwargs) -> "ServiceSynopses":
        """Boot synopses from a (binary v2) service snapshot file.

        Snapshots restore by memory-mapping the counter tensors, so a warm
        optimizer comes up in milliseconds even for large sketch inventories.  Estimators already
        present in the snapshot are adopted as-is (see
        :meth:`join_sketch_name`); pairs first probed after the restore are
        registered fresh with the deterministic per-pair seeds, exactly as
        the snapshotting process derived them.
        """
        from repro.service.service import EstimationService

        service = EstimationService.load(path, **service_kwargs)
        return cls(domain, service=service, num_instances=num_instances,
                   seed=seed, max_level=max_level)

    @property
    def service(self):
        return self._service

    @property
    def domain(self) -> Domain:
        return self._domain

    # -- join sketches ------------------------------------------------------------

    def join_sketch_name(self, left: SpatialRelation, right: SpatialRelation) -> str:
        """Service estimator name for an ordered relation pair (lazily created)."""
        if left.name == right.name:
            raise EngineError("a join sketch needs two distinct relations")
        key = (left.name, right.name)
        if key not in self._join_names:
            name = f"join::{left.name}::{right.name}"
            if name not in self._service:
                # pair_seed_offset is a deterministic (process-independent)
                # hash: snapshots taken in one process stay merge-compatible
                # with sketches built for the same pair in another.
                pair_seed = self._seed + pair_seed_offset(key)
                self._service.register(name, family="hyperrect",
                                       domain=self._domain,
                                       num_instances=self._num_instances,
                                       seed=pair_seed)
                if len(left):
                    self._service.ingest(name, left.boxes(), side="left")
                if len(right):
                    self._service.ingest(name, right.boxes(), side="right")
            # An already-registered name (snapshot-restored service, or a
            # service shared with an earlier ServiceSynopses) is adopted
            # as-is: it already summarises the relations' contents, so no
            # backfill — only this instance's listeners are attached.
            listener = _ServicePairListener(self._service, name, left, right)
            left.add_listener(listener)
            right.add_listener(listener)
            self._join_names[key] = name
        return self._join_names[key]

    def join_sketch(self, left: SpatialRelation, right: SpatialRelation):
        """The merged (all-shard) estimator for a pair — a read-only snapshot."""
        return self._service.merged_view(self.join_sketch_name(left, right))

    def estimated_join_cardinality(self, left: SpatialRelation,
                                   right: SpatialRelation) -> float:
        """The interface the optimizer consumes."""
        if len(left) == 0 or len(right) == 0:
            return 0.0
        name = self.join_sketch_name(left, right)
        return max(0.0, self._service.estimate(name).estimate)

    def estimated_join_cardinalities(
            self, pairs: Sequence[tuple[SpatialRelation, SpatialRelation]]
    ) -> list[float]:
        """Batched probe across many relation pairs (one executor dispatch).

        Mirrors :meth:`SynopsisManager.estimated_join_cardinalities`: every
        live pair is one request of a single
        :meth:`~repro.service.service.EstimationService.estimate_multi`
        call.  Adopted (snapshot-restored) names may carry different
        instance counts than this bridge's default; the executor's
        reduction grouping handles the mix, boosting each ``(instances,
        plan)`` group with one
        :func:`~repro.core.boosting.median_of_means_batch` call.
        Bit-identical to per-pair :meth:`estimated_join_cardinality` calls.
        """
        results: list[float] = [0.0] * len(pairs)
        live = [index for index, (left, right) in enumerate(pairs)
                if len(left) and len(right)]
        outcomes = self._service.estimate_multi(
            [(self.join_sketch_name(*pairs[index]), None) for index in live])
        for index, outcome in zip(live, outcomes):
            results[index] = max(0.0, outcome.estimate)
        return results

    # -- range sketches -----------------------------------------------------------

    def range_sketch_name(self, relation: SpatialRelation) -> str:
        if relation.name not in self._range_names:
            name = f"range::{relation.name}"
            if name not in self._service:
                self._service.register(name, family="range", domain=self._domain,
                                       num_instances=self._num_instances,
                                       seed=self._seed + pair_seed_offset(
                                           (relation.name,)))
                if len(relation):
                    self._service.ingest(name, relation.boxes(), side="data")
            relation.add_listener(_ServiceSingleListener(self._service, name, relation))
            self._range_names[relation.name] = name
        return self._range_names[relation.name]

    def range_sketch(self, relation: SpatialRelation):
        return self._service.merged_view(self.range_sketch_name(relation))

    def estimated_range_cardinality(self, relation: SpatialRelation,
                                    query: Rect | BoxSet) -> float:
        if len(relation) == 0:
            return 0.0
        name = self.range_sketch_name(relation)
        return max(0.0, self._service.estimate(name, query).estimate)
