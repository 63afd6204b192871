"""The scatter-gather cluster router.

:class:`ClusterRouter` is an asyncio TCP server that speaks the exact
NDJSON protocol of :mod:`repro.server.protocol` on its client side and
drives a fleet of :class:`~repro.server.server.SketchServer` workers over
the same protocol on the other — one :class:`~repro.client.ServiceClient`
works unchanged against a single server or a whole cluster.

Request routing:

* ``ingest`` — boxes are hash-partitioned into ``num_slots`` shard slots
  with the *same* deterministic mix the in-process sharded store uses
  (:func:`repro.service.store.shard_ids`), slots resolve to owner groups
  through the consistent-hash ring, and each owner's sub-batch is fanned
  to the owner **and every healthy replica** in parallel (linear sketches
  keep the mirrors bit-identical).
* ``estimate`` — one owner group means one worker already holds all data:
  the request is forwarded to a round-robin reader (replica reads are what
  scale estimate QPS).  Several owner groups scatter ``partial: true``
  estimates, gather shard-local merged counter states, and reduce them at
  the router with one vectorised merge before the ordinary boosted
  reduction — bit-identical to a single-node service (see
  :mod:`repro.cluster.partial`).
* degraded mode — when an owner group has no healthy member, ingest
  applies the surviving portion and reports a structured ``degraded``
  error (applied/dropped counts, down owners); estimates touching the dead
  group fail with the same taxonomy until a replacement is bootstrapped.

The per-connection pipelining (in-order replies, bounded in-flight
requests) mirrors :class:`~repro.server.server.SketchServer`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import functools
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.cluster.manager import ClusterManager, HeartbeatConfig, WorkerInfo
from repro.cluster.partial import reduce_partials
from repro.cluster.ring import DEFAULT_VNODES
from repro.core.hashing import sign_table_stats
from repro.errors import (
    AuthenticationError,
    ConnectionLostError,
    ReproError,
    ServiceError,
)
from repro.server import auth, protocol, wire
from repro.server.metrics import (
    ServerMetrics,
    label_value,
    sign_table_lines,
)
from repro.tenancy import TenantAdmission, TenantQuota, hash_token
from repro.service.specs import EstimatorSpec
from repro.service.store import shard_ids


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of one :class:`ClusterRouter`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick
    num_slots: int = 64  # shard slots hashed onto the ring
    vnodes: int = DEFAULT_VNODES
    request_timeout: float = 60.0
    max_inflight_per_connection: int = 128
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    executor_workers: int = 4
    binary_wire: bool = True  # offer binary frames to router clients
    worker_wire: str = "auto"  # wire preference on router -> worker links
    admin_token: str | None = None  # admin role on the router's client side
    worker_token: str | None = None  # presented on router -> worker links

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ServiceError("num_slots must be positive")
        if self.max_inflight_per_connection < 1:
            raise ServiceError("max_inflight_per_connection must be positive")


class ClusterRouter:
    """N sketch workers behind one protocol-compatible endpoint."""

    def __init__(self, *, config: RouterConfig | None = None,
                 manager: ClusterManager | None = None,
                 heartbeat: HeartbeatConfig | None = None,
                 registry=None) -> None:
        self.config = config or RouterConfig()
        self.manager = manager or ClusterManager(
            vnodes=self.config.vnodes, heartbeat=heartbeat,
            request_timeout=self.config.request_timeout,
            wire=self.config.worker_wire,
            worker_token=self.config.worker_token)
        self.metrics = ServerMetrics()
        # name -> (spec, template): one resident empty estimator per spec.
        # Scatter-gather reduces against companions of the template, so the
        # xi families (and the sign tables they build) live as long as the
        # name, not as long as one estimate.
        self._specs: dict[str, tuple[EstimatorSpec, Any]] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._tcp_server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        # (ring membership, _slot_owners() result) assignment cache.
        self._assignment_cache: tuple[tuple[str, ...], tuple] | None = None
        # Tenancy: the router is the authenticating edge of a fleet — it
        # holds the registry, charges quotas, and forwards tenant identity
        # (already-namespaced names + a ``tenant`` label) over its
        # admin-authenticated worker links.
        self.tenants = registry
        self._admin_token_hash = (hash_token(self.config.admin_token)
                                  if self.config.admin_token else None)
        self._admissions: dict[str, TenantAdmission] = {}

    def enable_tenancy(self, registry=None):
        """Attach (or create) the router's tenant registry; idempotent."""
        from repro.tenancy import TenantRegistry

        if self.tenants is None:
            self.tenants = registry if registry is not None else TenantRegistry()
        elif registry is not None and registry is not self.tenants:
            raise ServiceError("router already has a tenant registry")
        return self.tenants

    # -- lifecycle ----------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._tcp_server is None:
            raise ServiceError("router is not started")
        return self._tcp_server.sockets[0].getsockname()[1]

    async def start(self) -> "ClusterRouter":
        cfg = self.config
        self._executor = ThreadPoolExecutor(
            max_workers=cfg.executor_workers,
            thread_name_prefix="cluster-router")
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port,
            limit=cfg.max_line_bytes)
        return self

    async def serve_forever(self) -> None:
        if self._tcp_server is None:
            await self.start()
        assert self._tcp_server is not None
        await self._tcp_server.serve_forever()

    async def close(self) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        while self._connections:
            await asyncio.sleep(0.01)
        await self.manager.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    async def _run_blocking(self, func, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, func, *args)

    # -- topology -----------------------------------------------------------------

    async def attach(self, name: str, host: str, port: int) -> WorkerInfo:
        """Register a shard worker, reconciling estimator specs both ways.

        Specs the worker serves (e.g. loaded from a snapshot) are adopted
        by the router; specs the router already knows are registered on
        the worker as empty estimators — an empty sketch contributes zero
        counters, so the scatter-gather reduction stays exact across a
        fleet attached in any order.
        """
        info = await self.manager.add_worker(name, host, port, role="shard")
        self._assignment_cache = None
        await self._reconcile_specs(info)
        return info

    async def bootstrap_replica(self, name: str, host: str, port: int, *,
                                source: str, sync: str = "fanout"
                                ) -> WorkerInfo:
        """Attach a read replica bootstrapped from a shard worker.

        ``sync="wal"`` attaches a log-shipped follower (caught up via
        :meth:`ClusterManager.sync_follower`) instead of a fan-out mirror.
        """
        return await self.manager.bootstrap_replica(name, host, port,
                                                    source=source, sync=sync)

    async def _reconcile_specs(self, info: WorkerInfo) -> None:
        stats = await info.link.request_ok({"op": "stats"})
        served = set()
        for name, spec_dict in stats.get("estimators", {}).items():
            served.add(name)
            self._adopt_spec(name, EstimatorSpec.from_dict(spec_dict))
        for name, (spec, _) in self._specs.items():
            if name not in served:
                await info.link.request_ok({
                    "op": "register", "name": name, "family": spec.family,
                    "sizes": list(spec.sizes),
                    "instances": spec.num_instances, "seed": spec.seed,
                    "options": dict(spec.options)})

    async def refresh_specs(self) -> dict[str, EstimatorSpec]:
        """Adopt estimator specs from the whole fleet (snapshot starts)."""
        for info in self.manager.workers():
            if not info.healthy:
                continue
            try:
                stats = await info.link.request_ok({"op": "stats"})
            except (ReproError, ConnectionLostError):
                continue
            for name, spec_dict in stats.get("estimators", {}).items():
                self._adopt_spec(name, EstimatorSpec.from_dict(spec_dict))
        return {name: spec for name, (spec, _) in self._specs.items()}

    def _adopt_spec(self, name: str, spec: EstimatorSpec) -> None:
        """Start serving ``name`` (first spec wins) with its template."""
        if name not in self._specs:
            self._specs[name] = (spec, spec.build())

    def estimators(self) -> list[str]:
        """Names of every estimator the router currently knows."""
        return sorted(self._specs)

    async def _spec_for(self, name: str) -> tuple[EstimatorSpec, Any]:
        """The ``(spec, template)`` pair served under ``name``."""
        if name not in self._specs:
            await self.refresh_specs()
        if name not in self._specs:
            raise ServiceError(f"unknown estimator {name!r}; registered: "
                               f"{sorted(self._specs)}")
        return self._specs[name]

    def _slot_owners(self) -> tuple[list[str], list[str], np.ndarray]:
        """``(slot -> owner, distinct owners, slot -> index into those)``.

        Cached per ring membership; the distinct owners are listed in order
        of their first slot.
        """
        members = tuple(self.manager.ring.workers())
        cache = self._assignment_cache
        if cache is None or cache[0] != members:
            owners = self.manager.ring.assignments(self.config.num_slots)
            names = list(dict.fromkeys(owners))
            position = {name: index for index, name in enumerate(names)}
            indices = np.array([position[owner] for owner in owners],
                               dtype=np.intp)
            cache = self._assignment_cache = (members, (owners, names, indices))
        return cache[1]

    def _assignments(self) -> list[str]:
        """Slot -> owner map."""
        return self._slot_owners()[0]

    def _owner_names(self) -> list[str]:
        return list(self._slot_owners()[1])

    # -- connection handling (shared with SketchServer) ---------------------------

    @property
    def wire_formats(self) -> tuple[str, ...]:
        """Formats this router offers in the ``hello`` handshake."""
        if self.config.binary_wire:
            return wire.WIRE_FORMATS
        return (wire.WIRE_NDJSON,)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.metrics.connections_opened += 1
        self.metrics.connections_active += 1
        self._connections.add(writer)
        try:
            await wire.serve_connection(self, reader, writer)
        finally:
            self.metrics.connections_active -= 1
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- authentication and tenant scoping ----------------------------------------

    def authenticate(self, request: dict) -> tuple[dict, str | None]:
        """Resolve an ``auth`` request: ``(reply, bound principal | None)``."""
        return auth.authenticate_request(self.tenants,
                                         self._admin_token_hash, request)

    def _admission(self, record) -> TenantAdmission:
        now = asyncio.get_running_loop().time()
        entry = self._admissions.get(record.tenant_id)
        if entry is None or entry.quota != record.quota:
            entry = TenantAdmission(record.tenant_id, record.quota, now=now)
            self._admissions[record.tenant_id] = entry
        return entry

    async def _admitted(self, handler, request: dict,
                        scope: auth.Scope) -> dict:
        """Run a handler under the scope tenant's quota accounting.

        The router is the fleet's authenticating edge: quotas are charged
        here exactly once, and forwarded worker requests carry
        ``scoped: true`` so workers never re-charge them.
        """
        op = str(request.get("op"))
        entry = self._admission(scope.record)
        if op == "ingest":
            boxes = request.get("boxes")
            count = len(boxes) if isinstance(boxes, (list, tuple)) else 1
            entry.admit_ingest(count, asyncio.get_running_loop().time())
            return await handler(self, request, scope)
        if op == "estimate":
            entry.acquire_estimate()
            try:
                return await handler(self, request, scope)
            finally:
                entry.release_estimate()
        return await handler(self, request, scope)

    # -- request dispatch ---------------------------------------------------------

    async def _process(self, request: dict,
                       principal: str | None = None) -> dict:
        op = str(request.get("op"))
        try:
            scope = auth.resolve_scope(self.tenants, principal, request)
        except ReproError as exc:
            return protocol.error_payload_for(exc, op=op, request=request)
        tenant = scope.tenant
        scoped_request = dict(scope.request)
        if tenant is not None:
            self.metrics.record_tenant_request(tenant, op)
            # Worker links are admin-authenticated; the tenant label rides
            # in the forwarded payload so workers attribute metrics and
            # fair-share queueing to the right tenant.
            scoped_request.setdefault("tenant", tenant)
        try:
            if op == "tenant":
                payload = await self._op_tenant(scoped_request, principal)
            else:
                handler = self._HANDLERS.get(op)
                if handler is None:
                    payload = protocol.error_payload(
                        f"unknown op {op!r}", code="unknown_op", op=op,
                        request=request)
                elif scope.enforce_quota:
                    payload = await self._admitted(handler, scoped_request,
                                                   scope)
                else:
                    payload = await handler(self, scoped_request, scope)
        except ConnectionLostError as exc:
            # A worker died mid-request: that is a *cluster* degradation,
            # not a client protocol problem.
            payload = protocol.error_payload(
                f"worker connection lost: {exc}", code="degraded", op=op,
                request=request, detail={"op": op})
        except Exception as exc:
            payload = protocol.error_payload_for(exc, op=op, request=request)
        if tenant is not None:
            if not payload.get("ok"):
                if payload.get("error_code") == "quota_exceeded":
                    self.metrics.record_quota_rejection(tenant)
                else:
                    self.metrics.record_tenant_error(tenant)
            payload = auth.unscope_reply(payload, tenant)
        return payload

    async def _op_ping(self, request: dict, scope=None) -> dict:
        return protocol.ok_payload("ping", request,
                                   version=protocol.PROTOCOL_VERSION,
                                   cluster=True)

    async def _op_register(self, request: dict, scope=None) -> dict:
        spec = EstimatorSpec.create(
            request["family"], request["sizes"],
            int(request.get("instances", 256)),
            seed=int(request.get("seed", 0)),
            **request.get("options", {}))
        name = str(request["name"])
        if name in self._specs:
            raise ServiceError(f"estimator {name!r} is already registered")
        await self.manager.broadcast({
            "op": "register", "name": name, "family": spec.family,
            "sizes": list(spec.sizes),
            "instances": spec.num_instances, "seed": spec.seed,
            "options": dict(spec.options), **_forward_fields(request)})
        self._adopt_spec(name, spec)
        return protocol.ok_payload("register", request, name=name,
                                   spec=spec.to_dict())

    async def _op_unregister(self, request: dict, scope=None) -> dict:
        name = str(request["name"])
        if name not in self._specs:
            raise ServiceError(f"unknown estimator {name!r}; registered: "
                               f"{sorted(self._specs)}")
        await self.manager.broadcast({"op": "unregister", "name": name,
                                      **_forward_fields(request)})
        del self._specs[name]
        return protocol.ok_payload("unregister", request, name=name)

    async def _op_ingest(self, request: dict, scope=None) -> dict:
        name = str(request["name"])
        spec, _ = await self._spec_for(name)
        boxes = protocol.boxes_from_rows(request["boxes"], spec.dimension)
        side = request.get("side", "left")
        kind = request.get("kind", "insert")
        # Re-partition from the validated BoxSet, not the request value:
        # the rows may have arrived as a zero-copy binary tensor or as
        # JSON lists, and ndarray row-gathering serves both — each owner's
        # sub-batch is then itself a tensor, which re-encodes to raw bytes
        # on binary worker links.
        rows = np.hstack([boxes.lows, boxes.highs])
        # The same deterministic hash the in-process store uses, taken over
        # num_slots: inserts and their deletes always meet on one owner.
        slots = shard_ids(boxes, self.config.num_slots)
        _, owners, owner_of_slot = self._slot_owners()
        owner_of_row = np.take(owner_of_slot, slots)
        # A boolean mask keeps each owner's rows in arrival order, so a
        # worker logs the same bytes however the batch was split.  (Not
        # np.unique: its first call in a process imports numpy.ma.)
        per_owner = {owners[index]: rows[owner_of_row == index]
                     for index in np.flatnonzero(np.bincount(owner_of_row))}

        applied = 0
        pending = 0
        dropped = 0
        down: list[str] = []

        async def send(info: WorkerInfo, part: np.ndarray) -> dict:
            # Binary links ship the sub-batch tensor raw; NDJSON links
            # render it to lists via the encoder's json_default hook.
            return await info.link.request_ok({
                "op": "ingest", "name": name, "boxes": part,
                "side": side, "kind": kind, **_forward_fields(request)})

        sends: list = []
        counted: list[int] = []
        for owner, part in per_owner.items():
            writers = self.manager.writers(owner)
            if not writers:
                dropped += len(part)
                down.append(owner)
                continue
            applied += len(part)
            for info in writers:
                sends.append(send(info, part))
                counted.append(len(part))
        replies = await asyncio.gather(*sends)
        pending = max((reply.get("pending", 0) for reply in replies),
                      default=0)
        if dropped:
            return protocol.error_payload(
                f"cluster degraded: {len(down)} owner group(s) down, "
                f"{dropped} of {len(boxes)} boxes dropped",
                code="degraded", op="ingest", request=request,
                detail={"op": "ingest", "name": name, "applied": applied,
                        "dropped": dropped, "down_owners": sorted(down)})
        return protocol.ok_payload("ingest", request, boxes=applied,
                                   pending=pending)

    async def _op_estimate(self, request: dict, scope=None) -> dict:
        name = str(request["name"])
        spec, template = await self._spec_for(name)
        row = request.get("query")
        if spec.info.queryable:
            if row is None:
                raise ServiceError(
                    f"family {spec.family!r} estimates need a query rectangle")
            query = protocol.boxes_from_rows([row], spec.dimension)
        else:
            if row is not None:
                raise ServiceError(
                    f"family {spec.family!r} does not take a query argument")
            query = None

        owners = self._owner_names()
        readers: dict[str, WorkerInfo] = {}
        down: list[str] = []
        for owner in owners:
            reader = self.manager.reader(owner)
            if reader is None:
                down.append(owner)
            else:
                readers[owner] = reader
        if down:
            return protocol.error_payload(
                f"cluster degraded: owner group(s) {sorted(down)} have no "
                f"healthy worker",
                code="degraded", op="estimate", request=request,
                detail={"op": "estimate", "name": name,
                        "down_owners": sorted(down)})

        start = time.perf_counter()
        if len(readers) == 1:
            # One owner group holds *all* the data (a single worker, or a
            # primary with read replicas): forward the request whole and
            # pass the worker's reply through — replicas are bit-identical
            # mirrors, so every member answers the same numbers.
            (reader,) = readers.values()
            reply = await reader.link.request(
                dict(request), timeout=self.config.request_timeout)
            if reply.get("ok"):
                self.metrics.record_estimate_latency(
                    time.perf_counter() - start)
            return reply

        # Scatter: every owner group contributes its shard-local merged
        # state; the reduction happens once, at the router.  Binary links
        # ask for the arrays encoding — the counter matrix and stacked xi
        # coefficients then cross the wire as raw tensors instead of JSON
        # number lists (the dominant cost of a wide scatter).
        async def gather(info: WorkerInfo) -> Mapping:
            payload = {"op": "estimate", "name": name, "partial": True,
                       **_forward_fields(request)}
            if info.link.mode == wire.WIRE_BINARY:
                payload["encoding"] = "arrays"
            reply = await info.link.request_ok(
                payload, timeout=self.config.request_timeout)
            return reply["state"]

        states = await asyncio.gather(*(gather(info)
                                        for info in readers.values()))
        result = await self._run_blocking(functools.partial(
            reduce_partials, spec, states, query, template=template))
        self.metrics.record_estimate_latency(time.perf_counter() - start)
        return protocol.ok_payload("estimate", request, name=name,
                                   **protocol.estimate_fields(result))

    async def _op_flush(self, request: dict, scope=None) -> dict:
        replies = await self.manager.broadcast({"op": "flush"})
        return protocol.ok_payload(
            "flush", request,
            boxes=sum(reply.get("boxes", 0) for reply in replies.values()),
            batches=sum(reply.get("batches", 0)
                        for reply in replies.values()))

    async def _op_stats(self, request: dict, scope=None) -> dict:
        await self.refresh_specs()
        description = {
            "num_shards": self.config.num_slots,
            "estimators": {name: spec.to_dict()
                           for name, (spec, _) in sorted(self._specs.items())},
            "cluster": self.manager.status(),
            # This process's own xi tables (the templates' families); the
            # workers report theirs through their own stats.
            **sign_table_stats(),
            "server": {
                "connections_active": self.metrics.connections_active,
                "queue_depth": 0,
                "reloads": self.metrics.reloads,
                "wire": self.metrics.wire_state(),
            },
        }
        if scope is not None and scope.tenant is not None:
            description = auth.scoped_stats(description, scope.tenant)
            # Fleet topology is operator-facing, not a tenant's business.
            description.pop("cluster", None)
            description["tenant_metrics"] = self.metrics.tenant_state(
                scope.tenant)
        else:
            description["tenant_metrics"] = self.metrics.tenant_state()
        return protocol.ok_payload("stats", request, **description)

    async def _op_metrics(self, request: dict, scope=None) -> dict:
        fleet: dict[str, dict] = {}
        for info in self.manager.workers():
            if not info.healthy:
                continue
            try:
                reply = await info.link.request_ok({"op": "metrics"})
            except (ReproError, ConnectionLostError):
                continue
            fleet[info.name] = {
                "uptime": float(reply.get("uptime", 0.0)),
                "requests": dict(reply.get("requests", {})),
                "errors": dict(reply.get("errors", {})),
                "wire": {format: dict(counters) for format, counters
                         in dict(reply.get("wire", {})).items()},
                "tenants": dict(reply.get("tenants", {})),
                "delta": dict(reply.get("delta", {})),
                "program": dict(reply.get("program", {})),
                "sign_tables": dict(reply.get("sign_tables", {})),
            }
        tenants = self._aggregate_tenants(fleet)
        text = self._render_metrics(fleet, tenants)
        return protocol.ok_payload(
            "metrics", request, text=text,
            uptime=self.metrics.uptime,
            requests=dict(self.metrics.requests),
            errors=dict(self.metrics.errors),
            wire=self.metrics.wire_state(),
            workers=fleet,
            tenants=tenants,
            sign_tables=sign_table_stats())

    def _aggregate_tenants(self, fleet: Mapping[str, Mapping]) -> dict:
        """Fleet-wide per-tenant totals: the router's own edge counters
        (where quotas are charged) plus every worker's labelled series."""
        totals: dict[str, dict] = {}
        for tenant, state in self.metrics.tenant_state().items():
            totals[tenant] = {
                "requests": int(state.get("requests", 0)),
                "errors": int(state.get("errors", 0)),
                "quota_rejections": int(state.get("quota_rejections", 0)),
                "estimate_qps": float(state.get("estimate_qps", 0.0)),
                "estimate_p99_ms": float(state.get("estimate_p99_ms", 0.0)),
            }
        for entry in fleet.values():
            for tenant, state in entry.get("tenants", {}).items():
                slot = totals.setdefault(tenant, {
                    "requests": 0, "errors": 0, "quota_rejections": 0,
                    "estimate_qps": 0.0, "estimate_p99_ms": 0.0})
                slot["worker_requests"] = (slot.get("worker_requests", 0)
                                           + int(state.get("requests", 0)))
                slot["worker_errors"] = (slot.get("worker_errors", 0)
                                         + int(state.get("errors", 0)))
        return totals

    def _render_metrics(self, fleet: Mapping[str, Mapping],
                        tenants: Mapping[str, Mapping] | None = None) -> str:
        """Aggregated fleet metrics under the ``repro_cluster_*`` prefix."""
        workers = self.manager.workers()
        lines = ["# repro cluster router metrics",
                 f"repro_cluster_uptime_seconds {self.metrics.uptime:.3f}",
                 f"repro_cluster_workers_total {len(workers)}",
                 "repro_cluster_workers_healthy "
                 f"{sum(info.healthy for info in workers)}",
                 "repro_cluster_connections_active "
                 f"{self.metrics.connections_active}"]
        for op in sorted(self.metrics.requests):
            lines.append(
                f'repro_cluster_requests_total{{op="{label_value(op)}"}} '
                f"{self.metrics.requests[op]}")
        for code in sorted(self.metrics.errors):
            lines.append(
                f'repro_cluster_errors_total{{code="{label_value(code)}"}} '
                f"{self.metrics.errors[code]}")
        quantiles = self.metrics.latency_quantiles()
        lines.append("repro_cluster_estimate_qps "
                     f"{self.metrics.estimate_qps():.3f}")
        for q, seconds in sorted(quantiles.items()):
            lines.append(
                f'repro_cluster_estimate_latency_ms{{quantile="{q}"}} '
                f"{seconds * 1000.0:.3f}")
        # The router's own client-side wire traffic, then the fleet's
        # worker-side totals aggregated per format/direction — the same
        # re-export pattern as worker request counts below.
        for format in sorted(self.metrics.wire):
            counters = self.metrics.wire[format]
            for direction, count in (("in", counters.bytes_in),
                                     ("out", counters.bytes_out)):
                lines.append(
                    "repro_cluster_wire_bytes_total"
                    f'{{format="{label_value(format)}",'
                    f'direction="{direction}"}} {count}')
        wire_totals: dict[tuple[str, str], int] = {}
        for entry in fleet.values():
            for format, counters in entry.get("wire", {}).items():
                for direction, key in (("in", "bytes_in"),
                                       ("out", "bytes_out")):
                    slot = (format, direction)
                    wire_totals[slot] = (wire_totals.get(slot, 0)
                                         + int(counters.get(key, 0)))
        for format, direction in sorted(wire_totals):
            lines.append(
                "repro_cluster_worker_wire_bytes_total"
                f'{{format="{label_value(format)}",'
                f'direction="{direction}"}} '
                f"{wire_totals[(format, direction)]}")
        totals: dict[str, int] = {}
        for entry in fleet.values():
            for op, count in entry["requests"].items():
                totals[op] = totals.get(op, 0) + int(count)
        for op in sorted(totals):
            lines.append("repro_cluster_worker_requests_total"
                         f'{{op="{label_value(op)}"}} {totals[op]}')
        for name in sorted(fleet):
            lines.append("repro_cluster_worker_uptime_seconds"
                         f'{{worker="{label_value(name)}"}} '
                         f"{fleet[name]['uptime']:.3f}")
        # Per-tenant fleet aggregates, one contiguous family per metric.
        tenants = tenants or {}
        for key, metric in (("requests", "repro_cluster_tenant_requests_total"),
                            ("errors", "repro_cluster_tenant_errors_total"),
                            ("quota_rejections",
                             "repro_cluster_tenant_quota_rejected_total")):
            for tenant in sorted(tenants):
                lines.append(
                    f'{metric}{{tenant="{label_value(tenant)}"}} '
                    f"{int(tenants[tenant].get(key, 0))}")
        for tenant in sorted(tenants):
            lines.append(
                "repro_cluster_tenant_estimate_qps"
                f'{{tenant="{label_value(tenant)}"}} '
                f"{float(tenants[tenant].get('estimate_qps', 0.0)):.3f}")
        # Fleet-wide delta-propagation and program-executor totals, summed
        # from each worker's structured metrics payload.  Workers resolve
        # view refreshes locally, so the cluster-level ratio of applies to
        # rebuilds is the steady-state health signal for delta propagation.
        delta_totals: dict[str, int] = {}
        program_totals: dict[str, int] = {}
        own_tables = sign_table_stats()
        table_totals = dict.fromkeys(own_tables, 0)
        for entry in fleet.values():
            for key, count in entry.get("delta", {}).items():
                delta_totals[key] = delta_totals.get(key, 0) + int(count)
            for key, count in entry.get("program", {}).items():
                program_totals[key] = program_totals.get(key, 0) + int(count)
            for key in table_totals:
                table_totals[key] += int(entry.get("sign_tables", {}).get(key, 0))
        for key, metric in (("delta_applies",
                             "repro_cluster_delta_applies_total"),
                            ("rebuilds",
                             "repro_cluster_view_rebuilds_total"),
                            ("evictions",
                             "repro_cluster_view_evictions_total")):
            lines.append(f"{metric} {delta_totals.get(key, 0)}")
        for key in sorted(program_totals):
            lines.append(f"repro_cluster_program_{key} {program_totals[key]}")
        # Each worker process interns its own xi sign tables; so does the
        # router, for the templates it reduces against.
        lines.extend(sign_table_lines("repro_cluster_", table_totals))
        lines.extend(sign_table_lines("repro_cluster_router_", own_tables))
        return "\n".join(lines) + "\n"

    async def _op_snapshot(self, request: dict, scope=None) -> dict:
        protocol.check_write_format(request)
        if request.get("fetch"):
            raise ServiceError(
                "inline snapshot fetch is a worker-level op; fetch from a "
                "worker or use cluster_status to find one")
        path = request.get("path")
        if not path:
            raise ServiceError("cluster snapshot needs a path prefix")
        paths: dict[str, str] = {}
        for owner in self._owner_names():
            reader = self.manager.reader(owner)
            if reader is None:
                raise ServiceError(
                    f"owner group {owner!r} has no healthy worker to snapshot")
            target = f"{path}.{owner}"
            await reader.link.request_ok({"op": "snapshot", "path": target})
            paths[owner] = target
        return protocol.ok_payload("snapshot", request, paths=paths)

    async def _op_reload(self, request: dict, scope=None) -> dict:
        raise ServiceError(
            "reload is a worker-level op; bootstrap or replace workers "
            "through the cluster manager instead")

    async def _op_tenant(self, request: dict,
                         principal: str | None = None) -> dict:
        """Tenant registry administration, mirrored across the fleet.

        Mutations apply to the router's registry (the authenticating
        edge) and broadcast to every healthy worker, whose services
        journal them through their WALs and embed them in snapshots —
        the durable copies a restarted fleet recovers from.
        """
        action = str(request.get("action", "list"))
        if principal is not None and principal != auth.ADMIN:
            if action != "describe":
                raise AuthenticationError(
                    f"tenant action {action!r} requires admin access")
            target = str(request.get("tenant", principal))
            if target != principal:
                raise AuthenticationError("a tenant may only describe itself")
            record = self.tenants.require(principal)
            info = record.to_dict()
            info.pop("token_hash", None)
            entry = self._admissions.get(principal)
            fields: dict = {"tenant": principal, "record": info,
                            "metrics": self.metrics.tenant_state(principal)}
            if entry is not None and entry.quota == record.quota:
                fields["admission"] = entry.describe(
                    asyncio.get_running_loop().time())
            return protocol.ok_payload("tenant", request, action="describe",
                                       **fields)
        registry = self.tenants
        if action == "create":
            registry = self.enable_tenancy()
            quota = (TenantQuota.from_dict(request["quota"])
                     if request.get("quota") else None)
            record = registry.create(str(request["tenant"]),
                                     token=str(request["token"]),
                                     quota=quota)
            await self.manager.broadcast(dict(request))
            return protocol.ok_payload("tenant", request, action="create",
                                       tenant=record.tenant_id,
                                       record=record.to_dict())
        if action == "list":
            tenants = registry.describe() if registry is not None else {}
            return protocol.ok_payload("tenant", request, action="list",
                                       tenants=tenants)
        if action == "describe":
            if registry is None:
                raise ServiceError("router has no tenant registry")
            record = registry.require(str(request["tenant"]))
            return protocol.ok_payload(
                "tenant", request, action="describe",
                tenant=record.tenant_id, record=record.to_dict(),
                metrics=self.metrics.tenant_state(record.tenant_id))
        if action in ("update", "disable", "enable"):
            if registry is None:
                raise ServiceError("router has no tenant registry")
            kwargs: dict = {}
            if action == "update":
                if request.get("token") is not None:
                    kwargs["token"] = str(request["token"])
                if request.get("quota") is not None:
                    kwargs["quota"] = TenantQuota.from_dict(request["quota"])
                if request.get("disabled") is not None:
                    kwargs["disabled"] = bool(request["disabled"])
            else:
                kwargs["disabled"] = action == "disable"
            record = registry.update(str(request["tenant"]), **kwargs)
            await self.manager.broadcast(dict(request))
            return protocol.ok_payload("tenant", request, action=action,
                                       tenant=record.tenant_id,
                                       record=record.to_dict())
        if action == "remove":
            if registry is None:
                raise ServiceError("router has no tenant registry")
            record = registry.remove(str(request["tenant"]))
            self._admissions.pop(record.tenant_id, None)
            await self.manager.broadcast(dict(request))
            # The fleet also dropped the tenant's estimators; forget the
            # router's cached specs for that namespace.
            prefix = record.tenant_id + "/"
            for name in [n for n in self._specs if n.startswith(prefix)]:
                del self._specs[name]
            return protocol.ok_payload("tenant", request, action="remove",
                                       tenant=record.tenant_id)
        raise ServiceError(f"unknown tenant action {action!r}")

    async def _op_cluster_status(self, request: dict, scope=None) -> dict:
        status = self.manager.status()
        assignments = self._assignments() if len(self.manager.ring) else []
        slots_per_owner: dict[str, int] = {}
        for owner in assignments:
            slots_per_owner[owner] = slots_per_owner.get(owner, 0) + 1
        return protocol.ok_payload(
            "cluster_status", request,
            num_slots=self.config.num_slots,
            estimators=sorted(self._specs),
            slots_per_owner=slots_per_owner,
            **status)

    _HANDLERS = {
        "ping": _op_ping,
        "register": _op_register,
        "unregister": _op_unregister,
        "ingest": _op_ingest,
        "estimate": _op_estimate,
        "flush": _op_flush,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "snapshot": _op_snapshot,
        "save": _op_snapshot,
        "reload": _op_reload,
        "cluster_status": _op_cluster_status,
    }


def _forward_fields(request: Mapping) -> dict:
    """Tenant identity fields a router adds to forwarded worker payloads.

    ``scoped: true`` tells the worker the name is already namespaced and
    quota was charged at the edge — it labels, but never re-scopes or
    re-charges.
    """
    tenant = request.get("tenant")
    if tenant is None:
        return {}
    return {"tenant": tenant, "scoped": True}


async def serve_router(router: ClusterRouter, *, ready=None,
                       shutdown: asyncio.Event | None = None,
                       install_signal_handlers: bool = False,
                       heartbeat: bool = True) -> None:
    """Run a started-or-fresh router until cancelled or shut down."""
    await router.start()
    if heartbeat:
        router.manager.start_heartbeat()
    stop = shutdown if shutdown is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, ValueError,
                    RuntimeError):  # pragma: no cover - non-POSIX loops
                pass
    if ready is not None:
        ready(router)
    forever = asyncio.create_task(router.serve_forever())
    waiter = asyncio.create_task(stop.wait())
    try:
        await asyncio.wait({forever, waiter},
                           return_when=asyncio.FIRST_COMPLETED)
    except asyncio.CancelledError:
        pass
    finally:
        for task in (forever, waiter):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        for signum in installed:
            with contextlib.suppress(ValueError, RuntimeError):
                loop.remove_signal_handler(signum)
        await router.close()


class ThreadedClusterRouter:
    """Drive a router (plus its worker links) on a background loop thread.

    The synchronous mirror of :class:`~repro.server.runner.ThreadedServer`
    for clusters: tests and benchmarks start it, talk to ``port`` with a
    plain :class:`~repro.client.ServiceClient`, and steer topology through
    :meth:`run` (which executes a coroutine on the router's loop)::

        with ThreadedClusterRouter([("127.0.0.1", p1), ("127.0.0.1", p2)]) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            handle.run(handle.router.bootstrap_replica(
                "r0", "127.0.0.1", p3, source="w0"))
    """

    def __init__(self, workers: Sequence[tuple[str, int]] = (), *,
                 config: RouterConfig | None = None,
                 heartbeat: HeartbeatConfig | None = None,
                 start_heartbeat: bool = True,
                 registry=None) -> None:
        self.router = ClusterRouter(config=config, heartbeat=heartbeat,
                                    registry=registry)
        self._workers = list(workers)
        self._start_heartbeat = start_heartbeat
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready: concurrent.futures.Future = concurrent.futures.Future()

    def start(self, timeout: float = 30.0) -> "ThreadedClusterRouter":
        if self._thread is not None:
            raise ServiceError("router thread already started")
        self._thread = threading.Thread(target=self._run_thread, daemon=True,
                                        name="cluster-router-loop")
        self._thread.start()
        self._ready.result(timeout=timeout)
        return self

    def _run_thread(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            for index, (host, port) in enumerate(self._workers):
                await self.router.attach(f"w{index}", host, port)
            await self.router.start()
            if self._start_heartbeat:
                self.router.manager.start_heartbeat()
        except BaseException as exc:  # noqa: BLE001 - relayed to start()
            self._ready.set_exception(exc)
            return
        self._ready.set_result(self.router.port)
        await self._stop.wait()
        await self.router.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)
        self._thread = None

    def run(self, coroutine, timeout: float = 60.0):
        """Execute a coroutine on the router's event loop (thread-safe)."""
        if self._loop is None:
            raise ServiceError("router thread is not running")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=timeout)

    @property
    def port(self) -> int:
        return self.router.port

    @property
    def manager(self) -> ClusterManager:
        return self.router.manager

    def __enter__(self) -> "ThreadedClusterRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
