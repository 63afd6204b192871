"""The scatter-gather cluster router: the serving front over a fleet.

:class:`ClusterRouter` is the :class:`~repro.server.front.ServingFront`
whose counters live in a fleet of
:class:`~repro.server.server.SketchServer` workers, driven over the same
protocol it answers — one :class:`~repro.client.ServiceClient` works
unchanged against a single server or a whole cluster.  Connections, auth,
quota admission, dispatch, ``ping`` / ``tenant`` / ``estimate`` and the
reply shapes of ``stats`` / ``metrics`` are the front's; this module adds
topology, the routing below, fleet aggregation, and two hooks: a worker's
``ok: false`` reply passes through to the client unchanged, a lost or
stalled worker link answers ``degraded``.  ``reload``, snapshot ``fetch``
and ``checkpoint`` act on one worker's own state and are refused here.

Request routing:

* ``ingest`` — one partition rule: the owners are the shard workers
  sorted by name, and row ``i`` of a frame goes to
  ``owners[shard_ids(boxes, len(owners))[i]]`` — the deterministic mix the
  in-process sharded store uses (:func:`repro.service.store.shard_ids`).
  Each owner's sub-batch is fanned to the owner **and every healthy
  replica** in parallel (linear sketches keep the mirrors bit-identical).
  Which owner holds a box never changes an answer: an estimate sums every
  owner's counters.
* ``estimate`` — one scatter per name per coalesced batch: each name costs
  one ``partial: true`` counter state per owner group (a round-robin
  member), merged once at the router; one executor run answers the batch,
  bit-identical to a single-node service (see :mod:`repro.cluster.partial`).
* degraded mode — when an owner group has no healthy member, ingest
  applies the surviving portion and reports a structured ``degraded``
  error (applied/dropped counts, down owners); estimates fail with the
  same taxonomy until a replacement is bootstrapped.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.cluster.manager import ClusterManager, WorkerInfo
from repro.cluster.partial import merge_partial_states
from repro.core.hashing import sign_table_stats
from repro.core.program import default_executor
from repro.errors import ConnectionLostError, DegradedError, ServiceError
from repro.server import protocol
from repro.server.coalescer import EstimateCoalescer
from repro.server.front import FrontConfig, ServingFront
from repro.server.metrics import fold, render, samples
from repro.service.specs import EstimatorSpec, answer_requests, check_update
from repro.service.store import shard_ids
from repro.tenancy import TENANT_SEP, TenantRegistry


@dataclass(frozen=True)
class RouterConfig(FrontConfig):
    """Tunables of one :class:`ClusterRouter`: the front's (``admin_token``
    and the frame bound face the router's clients), plus the fleet's."""

    request_timeout: float = 60.0
    worker_token: str | None = None  # presented on router -> worker links


class _ScatterCoalescer(EstimateCoalescer):
    """A batch's engine step is the router's scatter, awaited on the loop."""

    async def _run_engine(self, router, entries) -> list:
        return await router.answer_batch(entries)


class ClusterRouter(ServingFront):
    """N sketch workers behind one protocol-compatible endpoint."""

    _PING_FIELDS = {"cluster": True}

    def __init__(self, *, config: RouterConfig | None = None) -> None:
        super().__init__(config or RouterConfig())
        self.manager = ClusterManager(
            request_timeout=self.config.request_timeout,
            worker_token=self.config.worker_token)
        # name -> (spec, template): one resident empty estimator per spec.
        # Scatter-gather reduces against companions of the template, so the
        # xi families (and the sign tables they build) live as long as the
        # name, not as long as one estimate.
        self._specs: dict[str, tuple[EstimatorSpec, Any]] = {}
        # Tenancy: the router is the authenticating edge of a fleet — it
        # holds the registry, charges quotas, and forwards tenant identity
        # (already-namespaced names + a ``tenant`` label) over its
        # admin-authenticated worker links.  The first ``tenant create``
        # attaches one.
        self.tenants = None
        self.coalescer = _ScatterCoalescer(  # its defaults: no router knob
            lambda: self, executor=self._executor)

    async def _drain(self) -> None:
        await self.manager.close()

    # -- topology -----------------------------------------------------------------

    async def attach(self, name: str, host: str, port: int) -> WorkerInfo:
        """Register a shard worker, reconciling estimator specs both ways.

        Specs the worker serves (e.g. loaded from a snapshot) are adopted
        by the router; specs the router already knows are registered on
        the worker as empty estimators — an empty sketch contributes zero
        counters, so the scatter-gather reduction stays exact across a
        fleet attached in any order.
        """
        info = await self.manager.add_worker(name, host, port)
        await self._reconcile_specs(info)
        return info

    async def bootstrap_replica(self, name: str, host: str, port: int, *,
                                source: str) -> WorkerInfo:
        """Attach a read replica bootstrapped from a shard worker."""
        return await self.manager.bootstrap_replica(name, host, port,
                                                    source=source)

    async def _reconcile_specs(self, info: WorkerInfo) -> None:
        stats = await info.link.request_ok({"op": "stats"})
        served = set()
        for name, spec_dict in stats.get("estimators", {}).items():
            served.add(name)
            self._adopt_spec(name, EstimatorSpec.from_dict(spec_dict))
        for name, (spec, _) in self._specs.items():
            if name not in served:
                _check_registered(name, spec, await info.link.request_ok(
                    _register_request(name, spec)))

    async def refresh_specs(self) -> None:
        """Adopt estimator specs from the whole fleet (snapshot starts)."""
        for stats in (await self.manager.poll({"op": "stats"})).values():
            for name, spec_dict in stats.get("estimators", {}).items():
                self._adopt_spec(name, EstimatorSpec.from_dict(spec_dict))

    def _adopt_spec(self, name: str, spec: EstimatorSpec) -> None:
        """Start serving ``name`` (first spec wins) with its template."""
        if name not in self._specs:
            self._specs[name] = (spec, spec.build())

    async def _spec_for(self, name: str) -> tuple[EstimatorSpec, Any]:
        """The ``(spec, template)`` pair served under ``name``."""
        if name not in self._specs:
            await self.refresh_specs()
        if name not in self._specs:
            raise ServiceError(f"unknown estimator {name!r}; registered: "
                               f"{sorted(self._specs)}")
        return self._specs[name]

    def _owner_names(self) -> list[str]:
        """The shard workers sorted by name: ingest row ``i`` goes to
        ``owners[shard_ids(boxes, len(owners))[i]]``."""
        owners = [info.name for info in self.manager.workers()
                  if info.role == "shard"]
        if not owners:
            raise ServiceError("the cluster has no shard workers")
        return owners

    # -- request dispatch ---------------------------------------------------------

    def _failure(self, exc: Exception, op: str, request: dict) -> dict:
        reply = getattr(exc, "reply", None)
        if reply is not None:
            # A worker refused the forwarded request: its verdict — text,
            # code and detail (a quota's retry_after) — is the answer.
            return protocol.error_payload(
                str(exc), code=exc.code, op=op, request=request,
                detail=reply.get("detail"))
        if isinstance(exc, ConnectionLostError):
            # A worker died mid-request: that is a *cluster* degradation,
            # not a client protocol problem.
            return protocol.error_payload(
                f"worker connection lost: {exc}", code="degraded", op=op,
                request=request, detail={"op": op})
        return super()._failure(exc, op, request)

    async def _op_register(self, fields: dict, scope) -> dict:
        name, spec = fields["name"], fields["spec"]
        if name in self._specs:
            raise ServiceError(f"estimator {name!r} is already registered")
        # Inside every group's write gate: a member joining now gets the
        # name in its snapshot or in the broadcast.
        async with self.manager.writing_everywhere():
            replies = await self.manager.broadcast(
                _register_request(name, spec, acting_for=scope.tenant))
        for reply in replies.values():
            _check_registered(name, spec, reply)
        self._adopt_spec(name, spec)
        return protocol.ok_payload("register", fields, name=name,
                                   spec=spec.to_dict())

    async def _op_unregister(self, fields: dict, scope) -> dict:
        name = fields["name"]
        await self._spec_for(name)
        async with self.manager.writing_everywhere():
            await self.manager.broadcast(protocol.build(
                "unregister", name=name, acting_for=scope.tenant))
        del self._specs[name]
        return protocol.ok_payload("unregister", fields, name=name)

    async def _op_ingest(self, fields: dict, scope) -> dict:
        name = fields["name"]
        spec, _ = await self._spec_for(name)
        boxes = protocol.boxes_from_rows(fields["boxes"], spec.dimension)
        # Refuse the whole frame before any owner sees a part of it.
        check_update(spec, fields["side"], fields["kind"], boxes)
        # Re-partition from the validated BoxSet, not the request value:
        # the rows may have arrived as a zero-copy binary tensor or as
        # JSON lists, and ndarray row-gathering serves both — each owner's
        # sub-batch is then itself a tensor, which re-encodes to raw bytes
        # on the binary worker links.
        rows = np.hstack([boxes.lows, boxes.highs])
        # The same deterministic hash the in-process store uses, taken over
        # the owners: inserts and their deletes always meet on one owner.
        owners = self._owner_names()
        owner_of_row = shard_ids(boxes, len(owners))
        # A boolean mask keeps each owner's rows in arrival order, so a
        # worker logs the same bytes however the batch was split.  (Not
        # np.unique: its first call in a process imports numpy.ma.)
        per_owner = {owners[index]: rows[owner_of_row == index]
                     for index in np.flatnonzero(np.bincount(owner_of_row))}

        applied = 0
        dropped = 0
        down: list[str] = []

        async def send(owner: str, part: np.ndarray) -> list[dict]:
            nonlocal applied, dropped
            # The owner group is read inside its write gate: a replica
            # still bootstrapping makes this wait, then takes the write.
            async with self.manager.writing(owner):
                writers = self.manager.writers(owner)
                if not writers:
                    dropped += len(part)
                    down.append(owner)
                    return []
                applied += len(part)
                # Worker links speak binary: the sub-batch ships raw.
                request = protocol.build(
                    "ingest", name=name, boxes=part, side=fields["side"],
                    kind=fields["kind"], acting_for=scope.tenant)
                return await asyncio.gather(*(
                    info.link.request_ok(request) for info in writers))

        replies = [reply for group in await asyncio.gather(*(
            send(owner, part) for owner, part in per_owner.items()))
            for reply in group]
        pending = max((reply.get("pending", 0) for reply in replies),
                      default=0)
        if dropped:
            return protocol.error_payload(
                f"cluster degraded: {len(down)} owner group(s) down, "
                f"{dropped} of {len(boxes)} boxes dropped",
                code="degraded", op="ingest", request=fields,
                detail={"op": "ingest", "name": name, "applied": applied,
                        "dropped": dropped, "down_owners": sorted(down)})
        return protocol.ok_payload("ingest", fields, boxes=applied,
                                   pending=pending)

    async def answer_batch(self, entries) -> list:
        """One coalesced batch, in order: each (name, requester tenant)
        gathers one ``partial: true`` state per owner group, all at once on
        the loop; one executor step then answers every query.  A failed
        gather or compile answers only its own entries."""
        keys = list(dict.fromkeys((entry.name, entry.tenant)
                                  for entry in entries))
        gathered = await asyncio.gather(*(self._gather(*key) for key in keys),
                                        return_exceptions=True)
        return await self._run_blocking(self._reduce, entries,
                                        dict(zip(keys, gathered)))

    async def _gather(self, name: str, tenant: str | None):
        """``(spec, template, states)``: one state per owner group."""
        spec, template = await self._spec_for(name)
        readers = {owner: self.manager.reader(owner)
                   for owner in self._owner_names()}
        down = sorted(owner for owner, reader in readers.items()
                      if reader is None)
        if down:
            raise DegradedError(
                f"cluster degraded: owner group(s) {down} have no healthy "
                "worker", detail={"op": "estimate", "name": name,
                                  "down_owners": down})
        request = protocol.build("estimate", name=name, partial=True,
                                 acting_for=tenant)
        replies = await asyncio.gather(*(
            reader.link.request_ok(request, timeout=self.config.request_timeout)
            for reader in readers.values()))
        return spec, template, [reply["state"] for reply in replies]

    @staticmethod
    def _reduce(entries, gathered: dict) -> list:
        """On an executor thread: merge each name once, compile, run all."""
        def resolve(key):
            found = gathered[key]
            if isinstance(found, BaseException):
                raise found
            spec, template, states = found
            return spec, merge_partial_states(spec, states, template=template)

        return answer_requests(
            default_executor(),
            [((entry.name, entry.tenant), entry.query) for entry in entries],
            resolve)

    async def _op_flush(self, fields: dict, scope) -> dict:
        replies = await self.manager.broadcast(protocol.build("flush"))
        return protocol.ok_payload(
            "flush", fields,
            boxes=sum(reply.get("boxes", 0) for reply in replies.values()),
            batches=sum(reply.get("batches", 0)
                        for reply in replies.values()))

    async def _describe(self) -> dict:
        await self.refresh_specs()
        return {
            "num_shards": sum(info.role == "shard"
                              for info in self.manager.workers()),
            "estimators": {name: spec.to_dict()
                           for name, (spec, _) in sorted(self._specs.items())},
            "cluster": self.manager.status(),
            # This process's own xi tables (the templates' families); the
            # workers report theirs through their own stats.
            **sign_table_stats(),
        }

    async def _exposition(self) -> tuple[list, str, dict]:
        # The router's own front and fleet families, the fleet's samples
        # summed under their router names, and the router process's own xi
        # tables (it holds the templates') under repro_cluster_router_.
        replies = await self.manager.poll({"op": "metrics"})
        fleet = SimpleNamespace(workers=self.manager.workers(),
                                replies=replies)
        own = samples(front=self.metrics, fleet=fleet) + fold(
            reply["samples"] for reply in replies.values())
        text = ("# repro cluster router metrics\n"
                + render("repro_cluster_", own)
                + render("repro_cluster_router_",
                         samples(xi=sign_table_stats())))
        return own, text, {"workers": replies}

    async def _op_snapshot(self, fields: dict, scope) -> dict:
        for field in ("fetch", "checkpoint"):
            # Both act on one worker's own state (its snapshot bytes, its
            # WAL); a routed reply must never claim a truncation it did
            # not make.
            if fields[field]:
                raise ServiceError(
                    f"snapshot {field} is a worker-level op; send it to a "
                    "worker (cluster_status lists them)")
        path = fields["path"]
        if not path:
            raise ServiceError("cluster snapshot needs a path prefix")
        paths: dict[str, str] = {}
        for owner in self._owner_names():
            reader = self.manager.reader(owner)
            if reader is None:
                raise ServiceError(
                    f"owner group {owner!r} has no healthy worker to snapshot")
            target = f"{path}.{owner}"
            await reader.link.request_ok(protocol.build("snapshot",
                                                        path=target))
            paths[owner] = target
        return protocol.ok_payload("snapshot", fields, paths=paths)

    async def _op_reload(self, fields: dict, scope) -> dict:
        raise ServiceError(
            "reload is a worker-level op; bootstrap or replace workers "
            "through the cluster manager instead")

    async def _tenant_apply(self, verb: str, fields: dict, **changes):
        # Mutations apply to the router's registry (the authenticating
        # edge) and broadcast to every healthy worker, whose services
        # journal them through their WALs and embed them in snapshots —
        # the durable copies a restarted fleet recovers from.
        if verb == "create" and self.tenants is None:
            self.tenants = TenantRegistry()  # the first tenant turns gating on
        if self.tenants is None:
            raise ServiceError("no tenant registry is attached")
        record = getattr(self.tenants, verb)(fields["tenant"], **changes)
        async with self.manager.writing_everywhere():
            await self.manager.broadcast(protocol.build("tenant", **fields))
        if verb == "remove":
            # The fleet also dropped the tenant's estimators; forget the
            # router's cached specs for that namespace.
            prefix = record.tenant_id + TENANT_SEP
            for name in [n for n in self._specs if n.startswith(prefix)]:
                del self._specs[name]
        return record

    async def _op_cluster_status(self, fields: dict, scope) -> dict:
        return protocol.ok_payload(
            "cluster_status", fields, estimators=sorted(self._specs),
            **self.manager.status())

    _HANDLERS = {
        **ServingFront._HANDLERS,
        "register": _op_register,
        "unregister": _op_unregister,
        "ingest": _op_ingest,
        "flush": _op_flush,
        "snapshot": _op_snapshot,
        "reload": _op_reload,
        "cluster_status": _op_cluster_status,
    }


def _register_request(name: str, spec: EstimatorSpec,
                      acting_for: str | None = None) -> dict:
    """The ``register`` request that creates ``spec`` on a worker: always
    with explicit ``max_levels`` (a spec without any is uncapped — null
    entries), so the worker builds this spec and derives nothing."""
    return protocol.build(
        "register", name=name, family=spec.family, sizes=list(spec.sizes),
        instances=spec.num_instances, seed=spec.seed,
        options=dict(spec.options), acting_for=acting_for,
        max_levels=list(spec.max_levels or (None,) * spec.dimension))


def _check_registered(name: str, spec: EstimatorSpec, reply: dict) -> None:
    """Raise unless a worker's ``register`` reply carries ``spec``.

    The counter layout has no wire field: a worker gives ``name`` the
    layout of a new registration, which a spec restored from stored state
    (one cell per word where a new one splits) cannot be given."""
    served = EstimatorSpec.from_dict(reply["spec"])
    # The request spells an uncapped spec's caps as null entries.
    if served != replace(spec, max_levels=spec.max_levels or (None,) * spec.dimension):
        raise ServiceError(
            f"a worker registered {name!r} as {served.to_dict()}, "
            f"not as the router's {spec.to_dict()}")
