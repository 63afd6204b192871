"""Per-relation synopses maintained under inserts and deletes.

The :class:`SynopsisManager` is the glue between the engine and the
estimation techniques of :mod:`repro.core`: ``join_sketch(left, right)``
lazily registers a ``hyperrect``
(:class:`~repro.core.join_hyperrect.SpatialJoinEstimator`) estimator for a
relation pair, back-fills it with the relations' current contents and from
then on keeps it up to date by listening to relation mutations.

The sketches live in an :class:`~repro.service.service.EstimationService`
(a private one unless one is passed in): compact linear summaries kept next
to the data and combined at query time, so relation mutations flow through
the service's batched, sharded ingestion path and a batch of pair probes is
one :meth:`~repro.service.service.EstimationService.estimate_multi` call.
Estimated selectivities are what the optimizer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.domain import Domain
from repro.core.hashing import stable_seed_offset
from repro.engine.relation import SpatialRelation
from repro.errors import EngineError
from repro.geometry.boxset import BoxSet
from repro.service.service import EstimationService


@dataclass(frozen=True)
class _ServiceListener:
    """Routes relation mutations into one service estimator.

    ``sides`` maps each watched relation's name to the estimator side it
    feeds.  Listeners compare by value, so a second manager on the same
    service attaching the same listener is a no-op
    (:meth:`SpatialRelation.add_listener` skips an equal one) instead of a
    second copy of every update.
    """

    service: Any
    name: str
    sides: tuple[tuple[str, str], ...]

    def _ingest(self, relation: SpatialRelation, boxes: BoxSet, kind: str) -> None:
        self.service.ingest(self.name, boxes, side=dict(self.sides)[relation.name],
                            kind=kind)

    def on_insert(self, relation: SpatialRelation, boxes: BoxSet) -> None:
        self._ingest(relation, boxes, "insert")

    def on_delete(self, relation: SpatialRelation, boxes: BoxSet) -> None:
        self._ingest(relation, boxes, "delete")


class SynopsisManager:
    """Creates and maintains synopses for relations of one catalog/domain.

    Parameters
    ----------
    domain:
        The engine's data space (level-restricted via ``max_level``).
    service:
        The :class:`~repro.service.service.EstimationService` holding the
        sketches; a private one with default settings when omitted.  A
        shared or snapshot-restored service may already hold a pair's
        estimator: it is adopted as-is (no back-fill), only the listeners
        are attached.
    num_instances, seed:
        Sketch sizing.  A sketch over relations ``names`` is seeded
        ``seed + stable_seed_offset(names)`` — process-independent, so
        snapshots stay merge-compatible with sketches built elsewhere.
    """

    def __init__(self, domain: Domain, *, service: EstimationService | None = None,
                 num_instances: int = 256, seed: int = 0,
                 max_level: int | None = None) -> None:
        self._domain = domain if max_level is None else domain.with_max_level(max_level)
        self._service = EstimationService() if service is None else service
        self._num_instances = int(num_instances)
        self._seed = int(seed)

    @classmethod
    def from_snapshot(cls, path, domain: Domain, *, num_instances: int = 256,
                      seed: int = 0, max_level: int | None = None,
                      **service_kwargs) -> "SynopsisManager":
        """Boot synopses from a (binary v2) service snapshot file.

        Snapshots restore by memory-mapping the counter tensors, so a warm
        optimizer comes up in milliseconds.  Estimators in the snapshot are
        adopted; pairs first probed after the restore are registered fresh
        with the same deterministic seeds the snapshotting process used.
        """
        return cls(domain, service=EstimationService.load(path, **service_kwargs),
                   num_instances=num_instances, seed=seed, max_level=max_level)

    @property
    def service(self) -> EstimationService:
        return self._service

    # -- join sketches -----------------------------------------------------------------

    def join_sketch_name(self, left: SpatialRelation, right: SpatialRelation) -> str:
        """Service estimator name for an ordered relation pair: registered
        (or adopted) on first use, and kept watching both relations."""
        if left.name == right.name:
            raise EngineError("a join sketch needs two distinct relations")
        key = (left.name, right.name)
        name = "::".join(("join",) + key)
        if name not in self._service:
            self._service.register(name, family="hyperrect", domain=self._domain,
                                   num_instances=self._num_instances,
                                   seed=self._seed + stable_seed_offset(key))
            for relation, side in ((left, "left"), (right, "right")):
                if len(relation):
                    self._service.ingest(name, relation.boxes(), side=side)
        listener = _ServiceListener(self._service, name,
                                    ((left.name, "left"), (right.name, "right")))
        left.add_listener(listener)
        right.add_listener(listener)
        return name

    def join_sketch(self, left: SpatialRelation, right: SpatialRelation):
        """The merged (all-shard) estimator for a pair — a read-only view."""
        return self._service.merged_view(self.join_sketch_name(left, right))

    def estimated_join_cardinality(self, left: SpatialRelation,
                                   right: SpatialRelation) -> float:
        """The interface the optimizer consumes (0 for an empty side)."""
        return self.estimated_join_cardinalities([(left, right)])[0]

    def estimated_join_cardinalities(
            self, pairs: Sequence[tuple[SpatialRelation, SpatialRelation]]
    ) -> list[float]:
        """Batched probe across many relation pairs (one executor dispatch).

        Every live pair is one request of a single
        :meth:`~repro.service.service.EstimationService.estimate_multi` call,
        which boosts each ``(instances, plan)`` group with one
        :func:`~repro.core.boosting.median_of_means_batch` reduction — so
        adopted names with other instance counts mix freely.  Pairs with an
        empty side report 0 without probing.
        """
        results: list[float] = [0.0] * len(pairs)
        live = [index for index, (left, right) in enumerate(pairs)
                if len(left) and len(right)]
        outcomes = self._service.estimate_multi(
            [(self.join_sketch_name(*pairs[index]), None) for index in live])
        for index, outcome in zip(live, outcomes):
            results[index] = max(0.0, outcome.estimate)
        return results
