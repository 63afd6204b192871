"""The query front-end of the sketch service.

:class:`EstimationService` ties the sharded store and the batched ingestion
pipeline together behind four verbs:

* ``register(name, spec)`` — declare an estimator (any of the eight
  families) to be maintained across all shards,
* ``ingest(name, boxes, side=..., kind=...)`` — buffer stream updates,
* ``estimate(name, query=None)`` — answer from a *merged view* combining
  every shard, with an LRU cache of views; each cached view owns the delta
  of the boxes flushed since it was built, which refreshes it after a
  flush (:mod:`repro.service.delta`),
* ``estimate_batch(name, queries)`` — answer a whole query batch from one
  cached merged view,
* ``estimate_multi(requests)`` — answer a **mixed-estimator** batch of
  ``(name, query)`` pairs with one merged-view fetch per name,
* ``snapshot()`` — checkpoint the whole service (specs plus each name's
  summed counter tensors) to a state tree, which
  :func:`~repro.service.snapshot.restore_service` reads back; ``save()`` /
  ``load()`` put that tree in a binary v2 file.

Every estimate verb compiles each name's queries into sketch programs and
runs the whole request as a single dispatch of the service's
:class:`~repro.core.program.ProgramExecutor` (one executor call per
request; each name's program de-duplicates its own letter sums).
``estimate`` and ``estimate_multi`` go through ``answer_multi``, the
serving fronts' engine call, and raise its first failure.  ``estimate`` stays the scalar reference the bit-identity suites
compare the batch paths against.

All public methods are thread-safe: ingestion from several producer
threads and concurrent estimates are supported (estimates read only
immutable merged views once built).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from repro.core.hashing import sign_table_stats
from repro.core.program import ProgramExecutor
from repro.core.result import EstimateResult
from repro.errors import ServiceError
from repro.geometry.boxset import BoxSet
from repro.service import delta
from repro.service.ingest import FlushReport, IngestPipeline
from repro.service.specs import (
    EstimatorSpec,
    answer_requests,
    apply_update,
    check_update,
    compile_programs,
)
from repro.service.store import ShardedSketchStore

#: Capacity of a service's LRU cache of merged query views.
VIEW_CACHE_SIZE = 16


class _View:
    """One cached merged view and the delta that refreshes it.

    ``delta`` is a zero-counter companion of ``view`` (xi families aliased)
    fed every batch a flush applies to the name; ``through`` is the store
    version it covers.  By sketch linearity ``view + delta`` equals a fresh
    shard re-merge bit for bit whenever ``through`` is the store's current
    version.  A mutation the service did not feed leaves the store version
    past ``through`` for good, and a delta fed more than
    :data:`~repro.service.delta.DELTA_BOX_BUDGET` boxes is dropped: the
    name is written far more than it is read, so the next miss rebuilds.
    """

    __slots__ = ("view", "version", "delta", "boxes", "through")

    def __init__(self, view: Any, version: int, *, with_delta: bool) -> None:
        self.view = view
        self.version = version
        self.delta = delta.empty_delta_estimator(view) if with_delta else None
        self.boxes = 0
        self.through = version

    def feed(self, spec: EstimatorSpec, side: str, kind: str,
             boxes: BoxSet) -> None:
        """Record one batch the store applied (and versioned) for the name."""
        self.through += 1
        self.boxes += len(boxes)
        if self.delta is not None and self.boxes > delta.DELTA_BOX_BUDGET:
            self.delta = None
        if self.delta is not None:
            apply_update(spec, self.delta, side, kind, boxes)

    def delta_at(self, version: int) -> Any:
        """The delta when it covers every version up to ``version``."""
        return self.delta if self.through == version else None


@dataclass
class ServiceStats:
    """Counters describing a service's lifetime.

    Instances handed out by :attr:`EstimationService.stats` are immutable
    copies taken under the service lock, so a reader never observes a
    half-updated set of counters (e.g. ``estimates`` bumped but
    ``batch_estimates`` not yet).
    """

    ingested_boxes: int = 0
    estimates: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Refinement of ``cache_misses``: every miss is served either by the
    #: delta fast path (``delta_applies``) or a full shard re-merge
    #: (``rebuilds``); the two always sum to ``cache_misses``.
    delta_applies: int = 0
    rebuilds: int = 0
    evictions: int = 0
    #: Executor dispatches that answered a query: one per
    #: :meth:`EstimationService.answer_multi` call (the coalescer's engine
    #: call, and what ``estimate`` / ``estimate_multi`` run) and one per
    #: ``estimate_batch``, however many queries it carried.
    batch_estimates: int = 0
    coalesced_queries: int = 0

    def copy(self) -> "ServiceStats":
        return replace(self)

    def as_dict(self) -> dict:
        return asdict(self)


class EstimationService:
    """A long-running, sharded estimation service over spatial sketches.

    Parameters
    ----------
    num_shards:
        Number of hash partitions; each registered estimator keeps one
        merge-compatible sketch per shard, and snapshots hold their sum.
    flush_threshold:
        Buffered boxes that trigger an automatic flush (``None`` disables).
    delta_propagation:
        When ``True`` (the default), cached merged views are refreshed
        after a flush by applying the accumulated counter delta (one fused
        tensor add per bank, xi families aliased) instead of re-merging
        every shard — bit-identical by sketch linearity, O(delta) instead
        of O(state).  ``False`` restores rebuild-on-any-version-bump
        (the benchmark baseline).
    """

    def __init__(self, *, num_shards: int = 4, flush_threshold: int | None = 8192,
                 delta_propagation: bool = True) -> None:
        if flush_threshold is not None and flush_threshold < 1:
            raise ServiceError("flush_threshold must be positive (or None)")
        self._store = ShardedSketchStore(num_shards)
        # Auto-flushing is handled here (under the service lock) rather than
        # inside the pipeline, so that every shard mutation is serialised
        # against merged-view construction.
        self._pipeline = IngestPipeline(self._store)
        self._flush_threshold = flush_threshold
        self._delta_propagation = bool(delta_propagation)
        # Stale entries (version behind the store) are deliberately
        # retained: they are invisible to lookups but, with their deltas,
        # the base of the next refresh.
        self._views: OrderedDict[str, _View] = OrderedDict()
        self._lock = threading.RLock()
        self._stats = ServiceStats()
        # The batch execution engine: one vectorised executor for every
        # estimator this service serves, whose counters the stats op reports.
        self._executor = ProgramExecutor()
        # Durability (repro.wal): attached via attach_wal(); None = volatile.
        self._wal: Any = None
        # Multi-tenancy (repro.tenancy): None until enable_tenancy() — a
        # service without a registry behaves exactly as before.
        self._tenants: Any = None

    # -- tenancy ------------------------------------------------------------------

    @property
    def tenants(self) -> Any:
        """The attached :class:`~repro.tenancy.TenantRegistry` (or ``None``)."""
        return self._tenants

    def enable_tenancy(self, registry: Any = None) -> Any:
        """Attach (or create) a tenant registry; idempotent.

        Once a registry is attached, serving layers built on this service
        (:class:`~repro.server.SketchServer`,
        :class:`~repro.cluster.ClusterRouter`) switch to authenticated
        multi-tenant mode.  The registry is embedded in snapshots and its
        mutations are journaled through the WAL (when attached), so
        recovery and replica bootstrap are tenant-aware.
        """
        from repro.tenancy import TenantRegistry

        with self._lock:
            if self._tenants is None:
                self._tenants = registry if registry is not None else TenantRegistry()
            elif registry is not None and registry is not self._tenants:
                raise ServiceError("service already has a tenant registry")
            return self._tenants

    def tenant_create(self, tenant_id: str, *, token: str, quota: Any = None) -> Any:
        """Register a tenant; journaled through the WAL when attached."""
        registry = self.enable_tenancy()
        with self._lock:
            record = registry.create(tenant_id, token=token, quota=quota)
            if self._wal is not None:
                self._wal.append_tenant("create", tenant_id, record.to_dict())
        return record

    def tenant_update(self, tenant_id: str, *, token: str | None = None,
                      quota: Any = None, disabled: bool | None = None) -> Any:
        if self._tenants is None:
            raise ServiceError("service has no tenant registry")
        with self._lock:
            record = self._tenants.update(tenant_id, token=token, quota=quota,
                                          disabled=disabled)
            if self._wal is not None:
                self._wal.append_tenant("update", tenant_id, record.to_dict())
        return record

    def tenant_upsert(self, record: Any) -> Any:
        """Install a tenant record verbatim (WAL replay)."""
        registry = self.enable_tenancy()
        with self._lock:
            registry.upsert(record)
            if self._wal is not None:
                self._wal.append_tenant("update", record.tenant_id,
                                        record.to_dict())
        return record

    def tenant_remove(self, tenant_id: str) -> Any:
        """Drop a tenant and unregister every estimator in its namespace."""
        from repro.tenancy import TENANT_SEP

        if self._tenants is None:
            raise ServiceError("service has no tenant registry")
        with self._lock:
            record = self._tenants.remove(tenant_id)
            prefix = tenant_id + TENANT_SEP
            for name in list(self.names()):
                if name.startswith(prefix):
                    self.unregister(name)
            if self._wal is not None:
                self._wal.append_tenant("remove", tenant_id)
        return record

    # -- durability ---------------------------------------------------------------

    @property
    def wal(self) -> Any:
        """The attached :class:`~repro.wal.writer.WalWriter` (or ``None``)."""
        return self._wal

    def attach_wal(self, writer: Any) -> None:
        """Make every mutation durable through a write-ahead log.

        Once attached, ingest appends each update batch to the log *before*
        buffering it (write-ahead: no counter mutation can outrun the log),
        and register/unregister events are logged too, so snapshot + replay
        reconstructs the full estimator set.  A writer with
        ``checkpoint_boxes`` set checkpoints the service once that many
        update rows accumulate in the log (see :meth:`checkpoint`).
        """
        with self._lock:
            if self._wal is not None:
                raise ServiceError("service already has a WAL attached")
            self._wal = writer

    def detach_wal(self, *, close: bool = True) -> Any:
        """Detach (and by default close) the WAL; returns the writer."""
        with self._lock:
            writer, self._wal = self._wal, None
        if writer is not None and close:
            writer.close()
        return writer

    def checkpoint(self) -> dict:
        """Snapshot to the WAL's recovery base, then truncate the WAL
        through the covered seqno.

        The snapshot embeds the log position it covers (``wal_seqno``), so
        recovery replays only the tail written since; a failed write
        truncates nothing.  The service lock is held across the flush,
        capture *and* file write — a brief stop-the-world pause that
        guarantees no append slips between the captured sequence number and
        the tensors on disk.
        """
        with self._lock:
            wal = self._wal
            if wal is None:
                raise ServiceError("checkpoint requires an attached WAL "
                                   "(see attach_wal)")
            self.save(wal.base)
            seqno = wal.last_seqno
        removed = wal.truncate_through(seqno)
        return {"path": wal.base, "wal_seqno": seqno,
                "segments_removed": removed}

    def _maybe_checkpoint(self) -> None:
        wal = self._wal
        if (wal is not None and wal.checkpoint_boxes is not None
                and wal.appended_boxes >= wal.checkpoint_boxes):
            self.checkpoint()

    # -- introspection ------------------------------------------------------------

    @property
    def store(self) -> ShardedSketchStore:
        return self._store

    @property
    def pipeline(self) -> IngestPipeline:
        return self._pipeline

    @property
    def program_executor(self) -> ProgramExecutor:
        """The executor every estimate of this service runs on."""
        return self._executor

    @property
    def num_shards(self) -> int:
        return self._store.num_shards

    @property
    def pending(self) -> int:
        return self._pipeline.pending

    @property
    def stats(self) -> ServiceStats:
        """An atomic copy of the lifetime counters.

        The live counters are mutated under the service lock; returning
        them directly would let readers see torn multi-field updates, so
        this snapshot-copies them under ``_lock`` instead.
        """
        with self._lock:
            return self._stats.copy()

    def names(self) -> list[str]:
        return self._store.names()

    def __contains__(self, name: str) -> bool:
        return name in self._store

    def spec(self, name: str) -> EstimatorSpec:
        return self._store.spec(name)

    def describe(self) -> dict:
        """A JSON-friendly summary (used by the CLI's ``stats`` op)."""
        with self._lock:
            return {
                "wal": self._wal.describe() if self._wal is not None else None,
                "tenants": (self._tenants.describe()
                            if self._tenants is not None else None),
                "num_shards": self.num_shards,
                "pending": self.pending,
                "estimators": {name: self._store.spec(name).to_dict()
                               for name in self.names()},
                "cached_views": list(self._views),
                "delta_watches": sorted(
                    name for name, entry in self._views.items()
                    if entry.delta_at(self._store.version(name)) is not None),
                "stats": self._stats.as_dict(),
                "program_executor": self._executor.stats.as_dict(),
                # Process-wide: xi sign tables are interned by content,
                # whichever service or view first needed them.
                **sign_table_stats(),
                "ingest": {
                    "submitted_boxes": self._pipeline.stats.submitted_boxes,
                    "flushed_boxes": self._pipeline.stats.flushed_boxes,
                    "flushes": self._pipeline.stats.flushes,
                    "auto_flushes": self._pipeline.stats.auto_flushes,
                },
            }

    # -- registration -------------------------------------------------------------

    def register(self, name: str, spec: EstimatorSpec | None = None, *,
                 family: str | None = None, domain=None, num_instances: int = 256,
                 seed: int = 0, **options: Any) -> EstimatorSpec:
        """Register an estimator by spec, or inline via family/domain kwargs."""
        if spec is None:
            if family is None or domain is None:
                raise ServiceError(
                    "register needs either a spec or family= and domain= arguments"
                )
            spec = EstimatorSpec.create(family, domain, num_instances,
                                        seed=seed, **options)
        elif family is not None or options:
            raise ServiceError("pass either a spec or inline arguments, not both")
        with self._lock:
            self._store.register(name, spec)
            if self._wal is not None:
                self._wal.append_register(name, spec.to_dict())
        return spec

    def unregister(self, name: str) -> None:
        with self._lock:
            self._store.unregister(name)
            self._pipeline.discard(name)
            self._views.pop(name, None)
            if self._wal is not None:
                self._wal.append_unregister(name)

    # -- ingestion ----------------------------------------------------------------

    def ingest(self, name: str, boxes, *, side: str = "left",
               kind: str = "insert") -> int:
        """Buffer a batch of inserts/deletes; returns the pending count.

        Crossing ``flush_threshold`` buffered boxes triggers an automatic
        batched flush.

        The batch passes :func:`~repro.service.specs.check_update` once,
        before anything is logged or buffered, so a refused batch changes
        nothing.  With a WAL attached it is then logged, and *then*
        buffered.  Check, log and buffer share one hold of the service
        lock, so a racing ``unregister`` comes wholly before the batch
        (which is refused) or wholly after it (which discards it), and a
        snapshot's embedded ``wal_seqno`` can never claim a record whose
        boxes it does not hold (and vice versa).  The log write precedes
        every counter mutation: write-ahead in the strict sense.
        """
        with self._lock:
            side = check_update(self._store.spec(name), side, kind, boxes)
            if self._wal is not None and len(boxes):
                self._wal.append_update(
                    name, side, kind, np.hstack((boxes.lows, boxes.highs)))
            pending = self._pipeline.submit(name, boxes, side=side, kind=kind)
            self._stats.ingested_boxes += len(boxes)
        if self._flush_threshold is not None and pending >= self._flush_threshold:
            self.flush(auto=True)
        self._maybe_checkpoint()
        return self._pipeline.pending

    def flush(self, *, auto: bool = False) -> FlushReport:
        """Apply all buffered updates; affected cached views go stale.

        With delta propagation on, stale entries stay in the cache — the
        version check makes them invisible to lookups — and each is fed
        the flushed batches of its name, so the next fetch refreshes it
        with that delta instead of re-merging every shard.  Without it,
        they are dropped immediately (rebuild-on-flush).
        """
        with self._lock:
            report = self._pipeline.flush(auto=auto)
            for name, side, kind, boxes in report.updates:
                entry = self._views.get(name)
                if entry is None:
                    continue
                if self._delta_propagation:
                    entry.feed(self._store.spec(name), side, kind, boxes)
                else:
                    del self._views[name]
        return report

    # -- query side ---------------------------------------------------------------

    def merged_view(self, name: str) -> Any:
        """The cached merged estimator for a name (flushes pending updates).

        The returned estimator is a snapshot: it is never mutated by later
        ingestion, so callers may estimate from it without holding locks.

        Misses take one of two routes.  When the cache still holds the
        previous view of the name *and* that entry's delta covers every
        version since (the service fed it each batch flushed for the
        name), the new view is the old one plus the delta — one counter
        add per bank, xi families aliased, so the new view reads the sign
        tables the old one built (:mod:`repro.service.delta`).  Otherwise
        — cold name, evicted entry, a delta over its budget, a store
        mutation the service did not feed — the view is fully rebuilt
        from the shards.  Both routes are bit-identical; they are counted
        separately as ``delta_applies`` / ``rebuilds``.
        """
        with self._lock:
            if self._pipeline.pending:
                self.flush()
            version = self._store.version(name)
            entry = self._views.get(name)
            if entry is not None and entry.version == version:
                self._views.move_to_end(name)
                self._stats.cache_hits += 1
                return entry.view
            self._stats.cache_misses += 1
            fed = entry.delta_at(version) if entry is not None else None
            if fed is not None:
                view = delta.delta_merged_view(entry.view, fed)
                self._stats.delta_applies += 1
            else:
                view = self._store.merge_view(name)
                self._stats.rebuilds += 1
            self._views[name] = _View(view, version,
                                      with_delta=self._delta_propagation)
            self._views.move_to_end(name)
            while len(self._views) > VIEW_CACHE_SIZE:
                self._views.popitem(last=False)
                self._stats.evictions += 1
        return view

    def estimate(self, name: str, query: BoxSet | None = None) -> EstimateResult:
        """One boosted estimate: ``estimate_multi([(name, query)])[0]``."""
        return self.estimate_multi([(name, query)])[0]

    def estimate_batch(self, name: str, queries) -> list[EstimateResult]:
        """Boosted estimates for a whole query batch from one merged view.

        ``queries`` is a :class:`BoxSet`/sequence of rectangles for
        queryable families, or an integer count / sequence of ``None`` for
        query-less ones; result ``j`` is ``estimate(name, queries[j])``.
        The batch is checked and compiled against the name's merged view
        (:func:`~repro.service.specs.compile_programs`) and runs as one
        call of the service's executor, one ``batch_estimates``
        dispatch.
        """
        view = self.merged_view(name)
        results = self._executor.run(
            compile_programs(self._store.spec(name), view, queries))
        with self._lock:
            self._stats.estimates += len(results)
            self._stats.batch_estimates += 1
        return results

    def estimate_multi(self, requests) -> list[EstimateResult]:
        """One executor dispatch for a mixed-estimator request batch.

        ``requests`` is a sequence of ``(name, query)`` pairs — ``query`` a
        single-row :class:`BoxSet` for queryable families, ``None`` for
        query-less ones.  Every named estimator's merged view is fetched
        **once**, and the batch is one executor call in which each name's
        program de-duplicates the letter sums of its own queries.  Results
        come back in request order.

        The first request that fails raises; :meth:`answer_multi` is the
        same dispatch answering each request on its own.
        """
        results = self.answer_multi(requests)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results

    def answer_multi(self, requests) -> list:
        """:meth:`estimate_multi` for a serving front: a request that fails
        gets its exception in place of a result, and the others are
        answered by the same one executor run
        (:func:`~repro.service.specs.answer_requests`).

        This is the engine call behind the server's cross-estimator request
        coalescing (:mod:`repro.server.coalescer`).
        """
        def resolve(name):
            view = self.merged_view(name)
            return self._store.spec(name), view

        results = answer_requests(
            self._executor, [(str(name), query) for name, query in requests],
            resolve)
        answered = sum(not isinstance(result, BaseException)
                       for result in results)
        if answered:
            with self._lock:
                self._stats.estimates += answered
                self._stats.batch_estimates += 1
        return results

    def record_coalesced(self, count: int) -> None:
        """Count queries that a serving layer answered through coalesced
        batches (see :mod:`repro.server`); the metrics verb derives the
        coalesce factor as ``coalesced_queries / batch_estimates``.
        """
        with self._lock:
            self._stats.coalesced_queries += count

    # -- persistence --------------------------------------------------------------

    def snapshot(self) -> dict:
        """A checkpoint of specs and summed counters (a tensor state tree).

        Pending (unflushed) updates are flushed first, under the same lock
        hold as the capture, so the snapshot reflects everything ingested
        so far and nothing slips in between.

        With a WAL attached the state carries the log position it covers
        (``wal_seqno``) — the anchor ``load snapshot + replay tail``
        recovery resumes from.
        """
        from repro.service.snapshot import store_snapshot

        with self._lock:
            if self._pipeline.pending:
                self.flush()
            state = store_snapshot(self._store)
            if self._tenants is not None:
                state["tenants"] = self._tenants.to_state()
            if self._wal is not None:
                state["wal_seqno"] = self._wal.last_seqno
        return state

    def save(self, path) -> None:
        """Write a binary (v2) snapshot file atomically.

        The state is captured under the service lock, so concurrent
        ingestion cannot tear the snapshot.  :meth:`load` reads it back.
        """
        from repro.service.snapshot import write_binary_snapshot_state

        write_binary_snapshot_state(self.snapshot(), path)

    @classmethod
    def load(cls, path, *, num_shards: int = 4) -> "EstimationService":
        """Read a snapshot file written by :meth:`save` and rebuild its service."""
        from repro.service.snapshot import read_binary_snapshot_state, restore_service

        return restore_service(read_binary_snapshot_state(path), num_shards=num_shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"EstimationService(shards={self.num_shards}, "
                f"estimators={self.names()}, pending={self.pending})")
