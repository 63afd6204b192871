"""The serving front: one protocol endpoint, wherever the counters live.

Sketches are linear — counters add — so one process holding every counter
and a hash-partitioned fleet of them compute the *same* estimate; where
the counters live is a placement choice beneath one query interface.
:class:`ServingFront` is that interface, written once:

* the listener and executor lifecycle (``start`` / ``serve_forever`` /
  ``close``) and the pipelined in-order connections of
  :func:`repro.server.wire.serve_connection`,
* authentication, per-tenant admission (token buckets, in-flight caps)
  and request dispatch — gate, namespace, charge quota, run the handler,
  map failures onto the wire taxonomy, count per-tenant outcomes,
* the placement-independent verbs: ``ping``, ``tenant``, ``estimate``
  (through the front's :class:`~repro.server.coalescer.EstimateCoalescer`)
  and the shape of ``stats`` / ``metrics`` replies,
* :meth:`ServingFront.answer`, the operator's entry without a listener
  (stdin ``serve`` and the CLI's ``--snapshot`` verbs reach it through
  :class:`~repro.client.InProcessClient`), and :func:`serve`, the
  signal-aware run loop of the CLI.

The two placements subclass it and keep only what differs:
:class:`~repro.server.server.SketchServer` answers a coalesced batch from a
local :class:`~repro.service.service.EstimationService`,
:class:`~repro.cluster.router.ClusterRouter` scatters it to a worker fleet
and reduces.  Each supplies its coalescer, its other data-plane ``_op_*``
handlers and a few hooks (:attr:`ServingFront.tenants`, ``_tenant_apply``,
``_describe``, ``_drain``, ``_failure``).
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.errors import AuthenticationError, ReproError, ServiceError
from repro.server import auth, protocol, wire
from repro.server.coalescer import EstimateCoalescer
from repro.server.metrics import ServerMetrics
from repro.tenancy import TenantAdmission, TenantQuota, hash_token

@dataclass(frozen=True)
class FrontConfig:
    """Tunables every serving front has (see the two subclasses)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick (the bound port is on the front)
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    executor_workers: int = 4
    admin_token: str | None = None  # grants the unscoped administrative role


class WriteGate:
    """Writes share it; a step that must see no write in flight holds it
    alone — a replica bootstrap from the source's snapshot until the
    replica has reloaded it, a server ``reload`` from before its WAL
    writer moves until the new service is swapped in."""

    def __init__(self) -> None:
        self.writes = 0
        self.held = False
        self.changed = asyncio.Condition()

    @contextlib.asynccontextmanager
    async def write(self):
        async with self.changed:
            await self.changed.wait_for(lambda: not self.held)
            self.writes += 1
        try:
            yield
        finally:
            async with self.changed:
                self.writes -= 1
                self.changed.notify_all()

    @contextlib.asynccontextmanager
    async def hold(self):
        async with self.changed:
            await self.changed.wait_for(lambda: not self.held)
            self.held = True  # new writes wait from here on
        try:
            async with self.changed:
                await self.changed.wait_for(lambda: not self.writes)
            yield
        finally:
            async with self.changed:
                self.held = False
                self.changed.notify_all()


class ServingFront:
    """Connections, auth, admission, dispatch and tenant administration.

    Subclasses set :attr:`_HANDLERS` (op -> ``async handler(self, request,
    scope)``) on top of the base table and provide :attr:`tenants`.
    """

    #: The tenant registry requests are gated by (``None`` = open serving).
    tenants: Any
    #: Every ``estimate`` query waits here for its batch.
    coalescer: EstimateCoalescer
    #: Extra fields of this placement's ``ping`` reply.
    _PING_FIELDS: dict = {}

    def __init__(self, config: FrontConfig) -> None:
        self.config = config
        self.metrics = ServerMetrics()
        # Blocking work (NumPy, locks, files) runs here, never on the loop;
        # worker threads only start with the first submitted call.
        self._executor = ThreadPoolExecutor(
            max_workers=config.executor_workers,
            thread_name_prefix=type(self).__name__)
        self._tcp_server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._admin_token_hash = (hash_token(config.admin_token)
                                  if config.admin_token else None)
        # Per-tenant admission state (token buckets, in-flight estimate
        # counts); entries rebuild lazily when a tenant's quota changes.
        self._admissions: dict[str, TenantAdmission] = {}

    # -- lifecycle ----------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound TCP port (useful with ``port=0``)."""
        if self._tcp_server is None:
            raise ServiceError(f"{type(self).__name__} is not started")
        return self._tcp_server.sockets[0].getsockname()[1]

    async def start(self, sock: socket.socket):
        """Start accepting on ``sock``, a listening socket the caller bound
        with :func:`repro.cli.listening_socket` — ``serve --listen`` before
        it loads the serving stack, :class:`~repro.server.runner.FrontThread`
        on the configured host and port."""
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, sock=sock,
            limit=self.config.max_line_bytes)
        return self

    async def serve_forever(self) -> None:
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
        await self.coalescer.drain()
        await self._drain()
        self._executor.shutdown(wait=True)

    async def _drain(self) -> None:
        """Finish or release what this placement still holds at close."""

    async def _run_blocking(self, func, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, func, *args)

    # -- connection handling ------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        # The pipelined in-order reader/writer pair and the per-frame
        # format detection live in repro.server.wire.serve_connection.
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

    async def answer(self, request: dict) -> dict:
        """One request answered for the process's operator — the owner of
        stdin ``serve`` and of the CLI's ``--snapshot`` verbs — with the
        administrative role (a tenant registry loaded from a snapshot does
        not lock its owner out)."""
        return await self._process(request, auth.ADMIN)

    # -- authentication and admission ---------------------------------------------

    def authenticate(self, request: dict) -> tuple[dict, str | None]:
        """Resolve an ``auth`` request: ``(reply, bound principal | None)``."""
        return auth.authenticate_request(self.tenants,
                                         self._admin_token_hash, request)

    def _admission(self, record) -> TenantAdmission:
        """The (lazily rebuilt) admission state for one tenant record."""
        entry = self._admissions.get(record.tenant_id)
        if entry is None or entry.quota != record.quota:
            entry = TenantAdmission(record.tenant_id, record.quota,
                                    now=asyncio.get_running_loop().time())
            self._admissions[record.tenant_id] = entry
        return entry

    async def _admitted(self, handler, op: str, fields: dict,
                        scope: auth.Scope) -> dict:
        """Run a handler under the scope tenant's quota accounting.

        Quotas are charged at the authenticating edge, exactly once: what a
        router forwards carries ``scoped: true`` and its workers never
        re-charge it.
        """
        entry = self._admission(scope.record)
        if op == "ingest":
            # One token per row, whatever carried the rows: JSON lists on
            # NDJSON, an int64 tensor on the binary wire (a 0-d tensor is
            # charged as one and then refused by boxes_from_rows).
            boxes = fields["boxes"]
            entry.admit_ingest(len(boxes) if getattr(boxes, "ndim", 1) else 1,
                               asyncio.get_running_loop().time())
        elif op == "estimate":
            entry.acquire_estimate()
            try:
                return await handler(self, fields, scope)
            finally:
                entry.release_estimate()
        return await handler(self, fields, scope)

    # -- request dispatch ---------------------------------------------------------

    async def _process(self, request: dict,
                       principal: str | None = None) -> dict:
        op = str(request.get("op"))
        try:
            scope = auth.resolve_scope(self.tenants, principal, request)
        except ReproError as exc:
            return protocol.error_payload_for(exc, op=op, request=request)
        # The resolved tenant is the label metrics and fair-share queueing
        # use, and what a router forwards over its admin-authenticated
        # worker links — never what a tenant connection wrote in its own
        # ``tenant`` field (only an admin link's resolves to anything else).
        tenant = scope.tenant
        if tenant is not None:
            self.metrics.record_tenant_request(tenant, op)
        try:
            handler = self._HANDLERS.get(op)
            if handler is None:
                payload = protocol.error_payload(
                    f"unknown op {op!r}", code="unknown_op", op=op,
                    request=request)
            else:
                fields = scope.fields(op, request)
                if scope.enforce_quota and op != "tenant":
                    payload = await self._admitted(handler, op, fields, scope)
                else:
                    payload = await handler(self, fields, scope)
        except Exception as exc:
            payload = self._failure(exc, op, request)
        if tenant is not None:
            if not payload.get("ok"):
                self.metrics.record_tenant_error(tenant,
                                                 payload.get("error_code"))
            payload = auth.unscope_reply(payload, tenant)
        return payload

    def _failure(self, exc: Exception, op: str, request: dict) -> dict:
        """The error reply for an exception a handler raised."""
        return protocol.error_payload_for(exc, op=op, request=request)

    # -- placement-independent verbs ----------------------------------------------

    async def _op_ping(self, fields: dict, scope: auth.Scope) -> dict:
        return protocol.ok_payload("ping", fields,
                                   version=protocol.PROTOCOL_VERSION,
                                   **self._PING_FIELDS)

    async def _op_estimate(self, fields: dict, scope: auth.Scope) -> dict:
        name = fields["name"]
        query = protocol.query_box(fields["query"])
        weight = scope.record.quota.share if scope.record is not None else 1
        start = time.perf_counter()
        result = await self.coalescer.submit(name, query, tenant=scope.tenant,
                                             weight=weight)
        self.metrics.record_estimate_latency(time.perf_counter() - start,
                                             scope.tenant)
        return protocol.ok_payload("estimate", fields, name=name,
                                   **protocol.estimate_fields(result))

    async def _describe(self) -> dict:
        """The ``stats`` body of this placement."""
        raise NotImplementedError

    async def _op_stats(self, fields: dict, scope: auth.Scope) -> dict:
        description = await self._describe()
        coalesced = self.coalescer.stats
        description["server"] = {
            "connections_active": self.metrics.connections_active,
            "reloads": self.metrics.reloads,
            "wire": self.metrics.wire_state(),
            "queue_depth": self.coalescer.queue_depth,
            "coalesce_batches": coalesced.batches,
            "coalesce_factor": coalesced.coalesce_factor,
            "cross_estimator_dispatches": coalesced.cross_dispatches}
        if scope.tenant is not None:
            description = auth.scoped_stats(description, scope.tenant)
        description["tenant_metrics"] = self.metrics.tenant_state(scope.tenant)
        return protocol.ok_payload("stats", fields, **description)

    async def _exposition(self) -> tuple[list, str, dict]:
        """``(samples, their text exposition, extra reply fields)``."""
        raise NotImplementedError

    async def _op_metrics(self, fields: dict, scope: auth.Scope) -> dict:
        # The samples are what a router folds its fleet from (see
        # repro.server.metrics); requests / wire are the front's own totals.
        samples, text, extra = await self._exposition()
        metrics = self.metrics
        return protocol.ok_payload("metrics", fields, text=text,
                                   samples=samples, uptime=metrics.uptime,
                                   requests=dict(metrics.requests),
                                   wire=metrics.wire_state(), **extra)

    # -- tenant administration ----------------------------------------------------

    def _tenant_info(self, tenant_id: str, *, include_hash: bool) -> dict:
        if self.tenants is None:
            raise ServiceError("no tenant registry is attached")
        record = self.tenants.require(tenant_id)
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

    async def _tenant_apply(self, verb: str, fields: dict, **changes):
        """Apply one registry mutation (``create`` / ``update`` / ``remove``)
        wherever this placement keeps its registry; returns the record."""
        raise NotImplementedError

    async def _op_tenant(self, fields: dict, scope: auth.Scope) -> dict:
        action, subject = fields["action"], fields["tenant"]
        if scope.enforce_quota:
            # A tenant principal may only describe itself — never another
            # tenant, and never mutate the registry.
            if action != "describe":
                raise AuthenticationError(
                    f"tenant action {action!r} requires admin access")
            if subject not in (None, scope.tenant):
                raise AuthenticationError("a tenant may only describe itself")
            return protocol.ok_payload(
                "tenant", fields, action="describe",
                **self._tenant_info(scope.tenant, include_hash=False))
        if action == "list":
            tenants = self.tenants.describe() if self.tenants is not None else {}
            return protocol.ok_payload("tenant", fields, action="list",
                                       tenants=tenants)
        if subject is None:
            raise ServiceError(f"tenant {action}: missing field 'tenant'")
        if action == "describe":
            return protocol.ok_payload(
                "tenant", fields, action="describe",
                **self._tenant_info(subject, include_hash=True))
        quota = (None if fields["quota"] is None
                 else TenantQuota.from_dict(fields["quota"]))
        changes: dict = {}
        if action == "create":
            if fields["token"] is None:
                raise ServiceError("tenant create: missing field 'token'")
            changes = {"token": fields["token"], "quota": quota}
        elif action == "update":
            changes = {key: value for key, value in (
                ("token", fields["token"]), ("quota", quota),
                ("disabled", fields["disabled"])) if value is not None}
        elif action != "remove":  # disable / enable: updates of one field
            changes["disabled"] = action == "disable"
        verb = action if action in ("create", "remove") else "update"
        record = await self._tenant_apply(verb, fields, **changes)
        if action == "remove":
            self._admissions.pop(record.tenant_id, None)
            return protocol.ok_payload("tenant", fields, action="remove",
                                       tenant=record.tenant_id)
        return protocol.ok_payload("tenant", fields, action=action,
                                   tenant=record.tenant_id,
                                   record=record.to_dict())

    _HANDLERS: dict = {"ping": _op_ping, "estimate": _op_estimate,
                       "stats": _op_stats, "metrics": _op_metrics,
                       "tenant": _op_tenant}


async def serve(front: ServingFront, sock: socket.socket) -> None:
    """Start a front on the listening ``sock`` and run it until cancelled
    or signalled.

    SIGTERM and SIGINT end the loop *gracefully* instead of killing the
    process — stop accepting, let admitted requests finish, drain, then
    return, so callers can flush a final snapshot.
    """
    await front.start(sock)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, ValueError,
                RuntimeError):  # pragma: no cover - non-POSIX loops
            pass
    forever = asyncio.create_task(front.serve_forever())
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
        await front.close()
