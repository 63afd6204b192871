"""The asyncio TCP sketch server.

:class:`SketchServer` puts a long-lived
:class:`~repro.service.service.EstimationService` behind the
newline-delimited JSON protocol of :mod:`repro.server.protocol`:

* ``estimate`` requests flow through the request coalescer
  (:mod:`repro.server.coalescer`) — concurrent queries for one estimator
  are answered by a single batched engine call,
* ``ingest`` / ``flush`` / ``snapshot`` run on a thread-pool executor so
  NumPy-heavy work never blocks the event loop,
* ``reload`` hot-swaps the backing service from a snapshot file (binary v2
  snapshots restore via ``np.memmap``) **without dropping connections** —
  handlers resolve :attr:`service` per request,
* per-connection pipelining with **in-order replies**: a reader task turns
  lines into request tasks, a writer task writes each reply as soon as its
  request finishes, preserving submission order; a per-connection in-flight
  cap provides backpressure (the reader simply stops reading, so TCP flow
  control pushes back on the client).

Overload degrades gracefully: when the coalescer's admission queue is
full, requests get an immediate structured ``overloaded`` error instead of
queueing without bound.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.hashing import sign_table_stats
from repro.errors import AuthenticationError, ReproError, ServiceError
from repro.server import auth, protocol, wire
from repro.server.coalescer import EstimateCoalescer
from repro.server.metrics import ServerMetrics
from repro.service.service import EstimationService
from repro.tenancy import TenantAdmission, TenantQuota, hash_token


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`SketchServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick (the bound port is on the server)
    max_batch: int = 64
    max_delay: float = 0.002  # seconds a query waits for batch companions
    max_queue: int = 1024  # admission cap (queued + in-flight queries)
    max_inflight_per_connection: int = 128
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    executor_workers: int = 4
    binary_wire: bool = True  # offer the binary frame format on hello
    admin_token: str | None = None  # grants the unscoped administrative role

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServiceError("max_batch must be positive")
        if self.max_queue < 1:
            raise ServiceError("max_queue must be positive")
        if self.max_inflight_per_connection < 1:
            raise ServiceError("max_inflight_per_connection must be positive")


class SketchServer:
    """Serves one :class:`EstimationService` over TCP.

    Parameters
    ----------
    service:
        The backing service; replaced atomically by the ``reload`` verb.
    config:
        Network and coalescing tunables.
    snapshot_path:
        Default for ``snapshot``/``reload`` requests that omit a path.
    """

    def __init__(self, service: EstimationService, *,
                 config: ServerConfig | None = None,
                 snapshot_path: str | None = None) -> None:
        self._service = service
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics()
        self._snapshot_path = snapshot_path
        self._executor: ThreadPoolExecutor | None = None
        self._coalescer: EstimateCoalescer | None = None
        self._tcp_server: asyncio.base_events.Server | None = None
        self._reload_lock: asyncio.Lock | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._admin_token_hash = (hash_token(self.config.admin_token)
                                  if self.config.admin_token else None)
        # Per-tenant admission state (token buckets, in-flight estimate
        # counts); entries rebuild lazily when a tenant's quota changes.
        self._admissions: dict[str, TenantAdmission] = {}

    # -- lifecycle ----------------------------------------------------------------

    @property
    def service(self) -> EstimationService:
        """The *current* backing service (``reload`` swaps it)."""
        return self._service

    @property
    def coalescer(self) -> EstimateCoalescer:
        if self._coalescer is None:
            raise ServiceError("server is not started")
        return self._coalescer

    @property
    def port(self) -> int:
        """The actually-bound TCP port (useful with ``port=0``)."""
        if self._tcp_server is None:
            raise ServiceError("server is not started")
        return self._tcp_server.sockets[0].getsockname()[1]

    async def start(self) -> "SketchServer":
        cfg = self.config
        self._executor = ThreadPoolExecutor(
            max_workers=cfg.executor_workers,
            thread_name_prefix="sketch-server")
        self._coalescer = EstimateCoalescer(
            lambda: self._service, max_batch=cfg.max_batch,
            max_delay=cfg.max_delay, max_queue=cfg.max_queue,
            executor=self._executor)
        self._reload_lock = asyncio.Lock()
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
        """Stop accepting connections and drain in-flight work.

        Established connections are closed (their readers see EOF, so
        handlers finish any requests already admitted); clients observe a
        clean disconnect instead of a dangling socket.
        """
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        while self._connections:
            await asyncio.sleep(0.01)
        if self._coalescer is not None:
            await self._coalescer.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    async def _run_blocking(self, func, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, func, *args)

    # -- connection handling ------------------------------------------------------

    @property
    def wire_formats(self) -> tuple[str, ...]:
        """Formats this server offers in the ``hello`` handshake."""
        if self.config.binary_wire:
            return wire.WIRE_FORMATS
        return (wire.WIRE_NDJSON,)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        # The pipelined in-order reader/writer pair (and the binary-frame
        # negotiation) is shared with the cluster router — see
        # repro.server.wire.serve_connection.
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
        return auth.authenticate_request(self._service.tenants,
                                         self._admin_token_hash, request)

    def _admission(self, record) -> TenantAdmission:
        """The (lazily rebuilt) admission state for one tenant record."""
        now = asyncio.get_running_loop().time()
        entry = self._admissions.get(record.tenant_id)
        if entry is None or entry.quota != record.quota:
            entry = TenantAdmission(record.tenant_id, record.quota, now=now)
            self._admissions[record.tenant_id] = entry
        return entry

    async def _admitted(self, handler, scope: auth.Scope) -> dict:
        """Run a handler under the scope tenant's quota accounting."""
        request = dict(scope.request)
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
            scope = auth.resolve_scope(self._service.tenants, principal,
                                       request)
        except ReproError as exc:
            return protocol.error_payload_for(exc, op=op, request=request)
        tenant = scope.tenant
        if tenant is not None:
            self.metrics.record_tenant_request(tenant, op)
        try:
            if op == "tenant":
                payload = await self._op_tenant(dict(scope.request), principal)
            else:
                handler = self._HANDLERS.get(op)
                if handler is None:
                    payload = protocol.error_payload(
                        f"unknown op {op!r}", code="unknown_op", op=op,
                        request=request)
                elif scope.enforce_quota:
                    payload = await self._admitted(handler, scope)
                else:
                    payload = await handler(self, dict(scope.request), scope)
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
                                   version=protocol.PROTOCOL_VERSION)

    async def _op_register(self, request: dict, scope=None) -> dict:
        from repro.service.specs import EstimatorSpec

        spec = EstimatorSpec.create(
            request["family"], request["sizes"],
            int(request.get("instances", 256)),
            seed=int(request.get("seed", 0)),
            **request.get("options", {}))
        self._service.register(request["name"], spec)
        return protocol.ok_payload("register", request, name=request["name"],
                                   spec=spec.to_dict())

    async def _op_unregister(self, request: dict, scope=None) -> dict:
        self._service.unregister(request["name"])
        return protocol.ok_payload("unregister", request,
                                   name=request["name"])

    async def _op_ingest(self, request: dict, scope=None) -> dict:
        def apply() -> tuple[int, int]:
            service = self._service
            spec = service.spec(request["name"])
            boxes = protocol.boxes_from_rows(request["boxes"], spec.dimension)
            pending = service.ingest(request["name"], boxes,
                                     side=request.get("side", "left"),
                                     kind=request.get("kind", "insert"))
            return len(boxes), pending

        count, pending = await self._run_blocking(apply)
        return protocol.ok_payload("ingest", request, boxes=count,
                                   pending=pending)

    async def _op_estimate(self, request: dict, scope=None) -> dict:
        service = self._service
        name = request["name"]
        spec = service.spec(name)
        if request.get("partial"):
            # Shard-local partial result: the merged-view estimator state.
            # Sketches are linear projections, so a cluster router can
            # reduce the partials of many workers with one vectorised
            # merge and estimate from the reduction bit-identically to a
            # single-node service over the union of the boxes.  With
            # encoding="arrays" the counters come back as numpy tensors —
            # on a binary connection they ship as raw little-endian bytes
            # instead of JSON number lists.
            arrays = request.get("encoding") == "arrays"
            state = await self._run_blocking(
                lambda: service.merged_view(name).state_dict(arrays=arrays))
            return protocol.ok_payload("estimate", request, name=name,
                                       partial=True, spec=spec.to_dict(),
                                       state=state)
        row = request.get("query")
        query = None
        if spec.info.queryable:
            if row is None:
                raise ServiceError(
                    f"family {spec.family!r} estimates need a query rectangle")
            query = protocol.boxes_from_rows([row], spec.dimension)
        elif row is not None:
            raise ServiceError(
                f"family {spec.family!r} does not take a query argument")
        tenant = scope.tenant if scope is not None else None
        weight = (scope.record.quota.share
                  if scope is not None and scope.record is not None else 1)
        start = time.perf_counter()
        result = await self.coalescer.submit(name, query, tenant=tenant,
                                             weight=weight)
        elapsed = time.perf_counter() - start
        self.metrics.record_estimate_latency(elapsed)
        if tenant is not None:
            self.metrics.record_tenant_latency(tenant, elapsed)
        return protocol.ok_payload("estimate", request, name=name,
                                   **protocol.estimate_fields(result))

    async def _op_flush(self, request: dict, scope=None) -> dict:
        report = await self._run_blocking(self._service.flush)
        return protocol.ok_payload("flush", request, boxes=report.boxes,
                                   batches=report.batches)

    async def _op_stats(self, request: dict, scope=None) -> dict:
        # describe() takes the service lock, which an executor thread may
        # hold across heavy NumPy work (snapshot save, merge) — so this
        # read runs on the executor too, keeping the event loop responsive.
        description = await self._run_blocking(self._service.describe)
        coalescer = self.coalescer
        coalescer_stats = coalescer.stats
        description["server"] = {
            "connections_active": self.metrics.connections_active,
            "queue_depth": coalescer.queue_depth,
            "coalesce_batches": coalescer_stats.batches,
            "coalesce_factor": coalescer_stats.coalesce_factor,
            "cross_estimator_dispatches": coalescer_stats.cross_dispatches,
            "reloads": self.metrics.reloads,
            "wire": self.metrics.wire_state(),
        }
        if scope is not None and scope.tenant is not None:
            description = auth.scoped_stats(description, scope.tenant)
            description["tenant_metrics"] = self.metrics.tenant_state(
                scope.tenant)
        else:
            description["tenant_metrics"] = self.metrics.tenant_state()
        return protocol.ok_payload("stats", request, **description)

    async def _op_metrics(self, request: dict, scope=None) -> dict:
        # service.stats takes the service lock; read it off the loop (see
        # _op_stats).  The server-side counters are loop-owned and safe.
        def snapshot():
            service = self._service
            return (service.stats,
                    service.program_executor.stats.as_dict(),
                    sign_table_stats())

        service_stats, executor_stats, sign_tables = (
            await self._run_blocking(snapshot))
        coalescer = self.coalescer
        text = self.metrics.render_text(
            service_stats=service_stats,
            coalescer_stats=coalescer.stats,
            queue_depth=coalescer.queue_depth,
            executor_stats=executor_stats,
            sign_tables=sign_tables)
        # Structured fields ride along with the text exposition so a
        # cluster router can aggregate fleet metrics without re-parsing
        # the Prometheus rendering.
        return protocol.ok_payload(
            "metrics", request, text=text,
            uptime=self.metrics.uptime,
            requests=dict(self.metrics.requests),
            errors=dict(self.metrics.errors),
            connections_active=self.metrics.connections_active,
            estimate_qps=self.metrics.estimate_qps(),
            wire=self.metrics.wire_state(),
            tenants=self.metrics.tenant_state(),
            delta={"delta_applies": service_stats.delta_applies,
                   "rebuilds": service_stats.rebuilds,
                   "evictions": service_stats.evictions},
            program=executor_stats,
            sign_tables=sign_tables)

    async def _op_snapshot(self, request: dict, scope=None) -> dict:
        protocol.check_write_format(request)
        service = self._service
        if request.get("fetch"):
            # Ship the binary v2 snapshot inline instead of writing a
            # server-side file — the replica-bootstrap path: a cluster
            # manager fetches a primary's snapshot and reloads it into a
            # fresh worker over the wire.  ``wal_seqno`` names the log
            # position the snapshot covers, so a WAL-synced follower knows
            # where its log-shipped catch-up stream starts.
            # ``data`` is raw bytes: base64 on NDJSON connections (via the
            # encoder's json_default hook), a zero-copy body section on
            # binary ones.
            data, wal_seqno = await self._run_blocking(_snapshot_bytes,
                                                       service)
            return protocol.ok_payload("snapshot", request, data=data,
                                       nbytes=len(data), wal_seqno=wal_seqno)
        path = request.get("path", self._snapshot_path)
        if not path:
            raise ServiceError(
                "snapshot needs a path (or start the server with one)")
        if request.get("checkpoint"):
            # Snapshot + WAL truncation in one atomic administrative step.
            info = await self._run_blocking(service.checkpoint, path)
            return protocol.ok_payload("snapshot", request, checkpoint=True,
                                       **info)
        await self._run_blocking(service.save, path)
        return protocol.ok_payload("snapshot", request, path=str(path))

    async def _op_wal(self, request: dict, scope=None) -> dict:
        from repro.wal.reader import records_from_tail_bytes, wal_records_since
        from repro.wal.recovery import apply_wal_record
        from repro.wal.framing import decode_payload

        service = self._service
        wal = service.wal
        if request.get("fetch"):
            # Log shipping: the framed record tail after ``since``, the
            # incremental alternative to a full snapshot fetch.  A
            # ``truncated`` reply means a checkpoint already dropped part
            # of the requested range — the caller must bootstrap from a
            # snapshot instead.
            if wal is None:
                raise ServiceError("server has no WAL attached "
                                   "(start with --wal-dir)")
            since = int(request.get("since", 0))
            wal.flush()  # segment readers only see what reached the OS
            tail = await self._run_blocking(wal_records_since, wal.directory,
                                            since)
            return protocol.ok_payload(
                "wal", request, since=tail.since, count=tail.count,
                first_seqno=tail.first_seqno, last_seqno=tail.last_seqno,
                truncated=tail.truncated, nbytes=tail.nbytes,
                data=tail.data)
        if "apply" in request:
            # Follower side of log shipping: replay a shipped tail through
            # the normal ingest path (so it lands in this server's own WAL
            # when one is attached).
            raw = protocol.payload_bytes(request["apply"])

            def apply() -> tuple[int, int, int]:
                records = records_from_tail_bytes(raw)
                boxes = 0
                for _seqno, payload in records:
                    boxes += apply_wal_record(service, decode_payload(payload))
                if records:
                    service.flush()
                return (len(records), boxes,
                        records[-1][0] if records else 0)

            count, boxes, last = await self._run_blocking(apply)
            return protocol.ok_payload("wal", request, applied_records=count,
                                       applied_boxes=boxes,
                                       source_last_seqno=last)
        return protocol.ok_payload(
            "wal", request, wal=wal.describe() if wal is not None else None)

    async def _op_reload(self, request: dict, scope=None) -> dict:
        data = request.get("data")
        path = None
        if data is None:
            path = request.get("path", self._snapshot_path)
            if not path:
                raise ServiceError(
                    "reload needs a path or inline data (or start the "
                    "server with a snapshot path)")
        assert self._reload_lock is not None
        async with self._reload_lock:
            old = self._service
            wal = old.wal
            fields: dict = {}
            if data is not None:
                raw = protocol.payload_bytes(data)
                if wal is None:
                    fresh = await self._run_blocking(_service_from_bytes, raw)
                else:
                    fresh, fields = await self._run_blocking(
                        _adopt_inline_reload, self, old, raw)
                fields["source"] = "inline"
            elif wal is None:
                fresh = await self._run_blocking(EstimationService.load, path)
                fields["path"] = str(path)
            else:
                # Snapshot + replay: the reloaded state is the snapshot
                # brought forward through the local WAL tail, so a
                # hot-reload drops none of the writes logged since the
                # snapshot was taken.
                fresh, fields = await self._run_blocking(
                    _replay_path_reload, old, str(path))
            # Atomic swap: requests already queued keep their futures;
            # everything dispatched from here answers from the new state.
            self._service = fresh
        self.metrics.reloads += 1
        return protocol.ok_payload("reload", request,
                                   estimators=fresh.names(), **fields)

    # -- tenant administration ----------------------------------------------------

    def _tenant_info(self, tenant_id: str, *, include_hash: bool) -> dict:
        registry = self._service.tenants
        if registry is None:
            raise ServiceError("server has no tenant registry")
        record = registry.require(tenant_id)
        info = record.to_dict()
        if not include_hash:
            info.pop("token_hash", None)
        fields = {"tenant": record.tenant_id, "record": info,
                  "metrics": self.metrics.tenant_state(record.tenant_id)}
        entry = self._admissions.get(record.tenant_id)
        if entry is not None and entry.quota == record.quota:
            fields["admission"] = entry.describe(
                asyncio.get_running_loop().time())
        return fields

    async def _op_tenant(self, request: dict,
                         principal: str | None = None) -> dict:
        service = self._service
        action = str(request.get("action", "list"))
        if principal is not None and principal != auth.ADMIN:
            # A tenant principal may only describe itself — never another
            # tenant, and never mutate the registry.
            if action != "describe":
                raise AuthenticationError(
                    f"tenant action {action!r} requires admin access")
            target = str(request.get("tenant", principal))
            if target != principal:
                raise AuthenticationError("a tenant may only describe itself")
            return protocol.ok_payload(
                "tenant", request, action="describe",
                **self._tenant_info(principal, include_hash=False))
        if action == "create":
            quota = (TenantQuota.from_dict(request["quota"])
                     if request.get("quota") else None)
            record = service.tenant_create(str(request["tenant"]),
                                           token=str(request["token"]),
                                           quota=quota)
            return protocol.ok_payload("tenant", request, action="create",
                                       tenant=record.tenant_id,
                                       record=record.to_dict())
        if action == "list":
            registry = service.tenants
            tenants = registry.describe() if registry is not None else {}
            return protocol.ok_payload("tenant", request, action="list",
                                       tenants=tenants)
        if action == "describe":
            return protocol.ok_payload(
                "tenant", request, action="describe",
                **self._tenant_info(str(request["tenant"]),
                                    include_hash=True))
        if action in ("update", "disable", "enable"):
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
            record = service.tenant_update(str(request["tenant"]), **kwargs)
            return protocol.ok_payload("tenant", request, action=action,
                                       tenant=record.tenant_id,
                                       record=record.to_dict())
        if action == "remove":
            record = service.tenant_remove(str(request["tenant"]))
            self._admissions.pop(record.tenant_id, None)
            return protocol.ok_payload("tenant", request, action="remove",
                                       tenant=record.tenant_id)
        raise ServiceError(f"unknown tenant action {action!r}")

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
        "wal": _op_wal,
    }


def _snapshot_bytes(service: EstimationService) -> tuple[bytes, int]:
    """The service's binary v2 snapshot as in-memory bytes, plus the WAL
    sequence number it covers (0 when the service has no WAL attached)."""
    from repro.service.snapshot import write_binary_snapshot_state

    state = service.snapshot(arrays=True)
    fd, tmp = tempfile.mkstemp(prefix="repro-snapshot-", suffix=".sketch")
    os.close(fd)
    try:
        write_binary_snapshot_state(state, tmp)
        with open(tmp, "rb") as handle:
            return handle.read(), int(state.get("wal_seqno", 0))
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _replay_path_reload(old: EstimationService, path: str
                        ) -> tuple[EstimationService, dict]:
    """Rebuild from a snapshot file and replay the local WAL tail.

    The old service's writer is detached and closed first; in-flight
    ingests racing the swap simply skip the (now absent) log — their
    writes live only in the outgoing service, which is being replaced.
    """
    from repro.wal.recovery import recover_service

    wal = old.wal
    directory, sync = wal.directory, wal.sync
    checkpoint_path = old.wal_checkpoint_path
    checkpoint_boxes = old.wal_checkpoint_boxes
    old.detach_wal()
    fresh, report = recover_service(
        directory, path, sync=sync, checkpoint_path=checkpoint_path,
        checkpoint_boxes=checkpoint_boxes)
    return fresh, {"path": path,
                   "replayed_records": report.replayed_records,
                   "replayed_boxes": report.replayed_boxes,
                   "wal_seqno": report.last_seqno}


def _adopt_inline_reload(server: "SketchServer", old: EstimationService,
                         raw: bytes) -> tuple[EstimationService, dict]:
    """Swap in a wire-shipped snapshot while keeping local durability.

    The shipped state starts a new local lineage: the WAL is truncated
    (its records describe the discarded state) and the snapshot is saved
    as the local recovery base with the *local* log position embedded —
    so a later crash recovers to exactly this bootstrap plus whatever the
    follower logs afterwards.
    """
    fresh = _service_from_bytes(raw)
    checkpoint_path = old.wal_checkpoint_path
    checkpoint_boxes = old.wal_checkpoint_boxes
    writer = old.detach_wal(close=False)
    writer.truncate_through(writer.last_seqno)
    fresh.attach_wal(writer, checkpoint_path=checkpoint_path,
                     checkpoint_boxes=checkpoint_boxes)
    from repro.wal.recovery import default_checkpoint_path

    base = server._snapshot_path or default_checkpoint_path(writer.directory)
    fresh.save(base)
    return fresh, {"recovery_base": str(base),
                   "wal_seqno": writer.last_seqno}


def _service_from_bytes(raw: bytes) -> EstimationService:
    """Rebuild a service from snapshot bytes shipped over the wire."""
    fd, tmp = tempfile.mkstemp(prefix="repro-reload-", suffix=".sketch")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(raw)
        # On POSIX the mmap-restored counters outlive the unlink below;
        # elsewhere the loader reads into private memory (see
        # read_binary_snapshot_state), so removal is always safe.
        return EstimationService.load(tmp)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


async def serve(service: EstimationService, *,
                config: ServerConfig | None = None,
                snapshot_path: str | None = None,
                ready=None,
                shutdown: asyncio.Event | None = None,
                install_signal_handlers: bool = False) -> None:
    """Start a server and run until cancelled (the CLI's ``--listen`` loop).

    ``ready``, when given, is a callable invoked with the started server
    (used to print the bound address and by tests to capture the port).
    ``shutdown`` is an optional event that ends the loop *gracefully*:
    stop accepting, let admitted requests finish, drain the coalescer —
    then return (so callers can flush a final snapshot).  With
    ``install_signal_handlers=True`` SIGTERM and SIGINT set that event
    instead of killing the process — the CLI's graceful-shutdown path.
    """
    server = SketchServer(service, config=config, snapshot_path=snapshot_path)
    await server.start()
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
        ready(server)
    forever = asyncio.create_task(server.serve_forever())
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
        await server.close()
