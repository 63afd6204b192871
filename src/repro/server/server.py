"""The sketch server: the serving front over one local service.

:class:`SketchServer` is the :class:`~repro.server.front.ServingFront`
whose counters live in this process, in a long-lived
:class:`~repro.service.service.EstimationService`.  Connections, auth,
quota admission, dispatch, ``ping`` / ``tenant`` / ``estimate`` and the
reply shapes of ``stats`` / ``metrics`` are the front's; this module adds
what a local placement does with a request:

* each coalesced ``estimate`` batch is one ``answer_multi`` engine call
  of the service; a ``partial: true`` estimate (what a router gathers)
  returns the name's merged counter state instead of a number,
* ``ingest`` / ``flush`` / ``snapshot`` run on the front's thread-pool
  executor so NumPy-heavy work never blocks the event loop,
* ``reload`` hot-swaps the backing service from a snapshot file (binary v2
  snapshots restore via ``np.memmap``) or from inline bytes **without
  dropping connections** — handlers resolve :attr:`SketchServer.service`
  per request, and a WAL-attached service keeps its durability across the
  swap,
* ``snapshot`` can ``fetch`` the snapshot inline (what a cluster manager
  ships into a new replica) or ``checkpoint`` (snapshot + WAL
  truncation) — worker-level verbs a router refuses.
"""

from __future__ import annotations

import asyncio
import io
from dataclasses import dataclass

from repro.core.hashing import sign_table_stats
from repro.errors import ServiceError
from repro.server import protocol
from repro.server.coalescer import EstimateCoalescer
from repro.server.front import FrontConfig, ServingFront
from repro.server.metrics import render, samples
from repro.service.service import EstimationService


@dataclass(frozen=True)
class ServerConfig(FrontConfig):
    """Tunables of one :class:`SketchServer`: the front's, plus coalescing."""

    max_batch: int = 64
    max_delay: float = 0.002  # seconds a query waits for batch companions
    max_queue: int = 1024  # admission cap (queued + in-flight queries)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServiceError("max_batch must be positive")
        if self.max_queue < 1:
            raise ServiceError("max_queue must be positive")


class SketchServer(ServingFront):
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
        super().__init__(config or ServerConfig())
        cfg = self.config
        self._service = service
        self._snapshot_path = snapshot_path
        self.coalescer = EstimateCoalescer(
            lambda: self._service, max_batch=cfg.max_batch,
            max_delay=cfg.max_delay, max_queue=cfg.max_queue,
            executor=self._executor)
        self._reload_lock = asyncio.Lock()

    @property
    def service(self) -> EstimationService:
        """The *current* backing service (``reload`` swaps it)."""
        return self._service

    @property
    def tenants(self):
        """The current service's tenant registry (``None`` = open serving)."""
        return self._service.tenants

    async def _tenant_apply(self, verb: str, fields: dict, **changes):
        # tenant_create / tenant_update / tenant_remove: the service journals
        # the mutation through its WAL and embeds it in snapshots.
        return getattr(self._service, f"tenant_{verb}")(fields["tenant"],
                                                        **changes)

    # -- data-plane verbs ---------------------------------------------------------

    async def _op_register(self, fields: dict, scope) -> dict:
        self._service.register(fields["name"], fields["spec"])
        return protocol.ok_payload("register", fields, name=fields["name"],
                                   spec=fields["spec"].to_dict())

    async def _op_unregister(self, fields: dict, scope) -> dict:
        self._service.unregister(fields["name"])
        return protocol.ok_payload("unregister", fields, name=fields["name"])

    async def _op_ingest(self, fields: dict, scope) -> dict:
        def apply() -> tuple[int, int]:
            service = self._service
            spec = service.spec(fields["name"])
            boxes = protocol.boxes_from_rows(fields["boxes"], spec.dimension)
            pending = service.ingest(fields["name"], boxes,
                                     side=fields["side"], kind=fields["kind"])
            return len(boxes), pending

        count, pending = await self._run_blocking(apply)
        return protocol.ok_payload("ingest", fields, boxes=count,
                                   pending=pending)

    async def _op_estimate(self, fields: dict, scope) -> dict:
        if not fields["partial"]:
            return await super()._op_estimate(fields, scope)
        # Shard-local partial result: the merged-view estimator state.
        # Sketches are linear projections, so a cluster router can reduce
        # the partials of many workers with one vectorised merge and
        # estimate from the reduction bit-identically to a single-node
        # service over the union of the boxes.  The counters are numpy
        # tensors: raw little-endian bytes on a binary connection, nested
        # number lists on an NDJSON one.
        service = self._service
        name = fields["name"]
        spec = service.spec(name)
        state = await self._run_blocking(
            lambda: service.merged_view(name).state_dict())
        return protocol.ok_payload("estimate", fields, name=name,
                                   partial=True, spec=spec.to_dict(),
                                   state=state)

    async def _op_flush(self, fields: dict, scope) -> dict:
        report = await self._run_blocking(self._service.flush)
        return protocol.ok_payload("flush", fields, boxes=report.boxes,
                                   batches=report.batches)

    async def _describe(self) -> dict:
        # describe() takes the service lock, which an executor thread may
        # hold across heavy NumPy work (snapshot save, merge) — so this
        # read runs on the executor too, keeping the event loop responsive.
        return await self._run_blocking(self._service.describe)

    async def _exposition(self) -> tuple[list, str, dict]:
        # service.stats takes the service lock; read it off the loop (see
        # _describe).  The server-side counters are loop-owned and safe.
        def snapshot():
            service = self._service
            return (service.stats, service.program_executor.stats,
                    service.pipeline.stats, sign_table_stats())

        service, program, ingest, xi = await self._run_blocking(snapshot)
        own = samples(front=self.metrics, server=self,
                      coalescer=self.coalescer.stats, service=service,
                      program=program, ingest=ingest, xi=xi)
        return own, ("# repro sketch server metrics\n"
                     + render("repro_server_", own)), {}

    async def _op_snapshot(self, fields: dict, scope) -> dict:
        service = self._service
        if fields["fetch"]:
            # Ship the binary v2 snapshot inline instead of writing a
            # server-side file — the replica-bootstrap path: a cluster
            # manager fetches a primary's snapshot and reloads it into a
            # fresh worker over the wire.  ``data`` is raw bytes: base64 on
            # NDJSON connections (via the encoder's json_default hook), a
            # zero-copy body section on binary ones.
            data = await self._run_blocking(_snapshot_bytes, service)
            return protocol.ok_payload("snapshot", fields, data=data,
                                       nbytes=len(data))
        path = fields["path"] or self._snapshot_path
        if not path:
            raise ServiceError(
                "snapshot needs a path (or start the server with one)")
        if fields["checkpoint"]:
            # Snapshot + WAL truncation in one atomic administrative step.
            info = await self._run_blocking(service.checkpoint, path)
            return protocol.ok_payload("snapshot", fields, checkpoint=True,
                                       **info)
        await self._run_blocking(service.save, path)
        return protocol.ok_payload("snapshot", fields, path=str(path))

    async def _op_reload(self, fields: dict, scope) -> dict:
        data = fields["data"]
        path = None
        if data is None:
            path = fields["path"] or self._snapshot_path
            if not path:
                raise ServiceError(
                    "reload needs a path or inline data (or start the "
                    "server with a snapshot path)")
        async with self._reload_lock:
            old = self._service
            wal = old.wal
            described: dict = {}
            if data is not None:
                raw = protocol.payload_bytes(data)
                if wal is None:
                    fresh = await self._run_blocking(_service_from_bytes, raw, old.num_shards)
                else:
                    fresh, described = await self._run_blocking(
                        _adopt_inline_reload, self, old, raw)
                described["source"] = "inline"
            elif wal is None:
                fresh = await self._run_blocking(
                    lambda: EstimationService.load(path, num_shards=old.num_shards))
                described["path"] = str(path)
            else:
                # Snapshot + replay: the reloaded state is the snapshot
                # brought forward through the local WAL tail, so a
                # hot-reload drops none of the writes logged since the
                # snapshot was taken.
                fresh, described = await self._run_blocking(
                    _replay_path_reload, old, str(path))
            # Atomic swap: requests already queued keep their futures;
            # everything dispatched from here answers from the new state.
            self._service = fresh
        self.metrics.reloads += 1
        return protocol.ok_payload("reload", fields,
                                   estimators=fresh.names(), **described)

    _HANDLERS = {
        **ServingFront._HANDLERS,
        "register": _op_register,
        "unregister": _op_unregister,
        "ingest": _op_ingest,
        "estimate": _op_estimate,
        "flush": _op_flush,
        "snapshot": _op_snapshot,
        "reload": _op_reload,
    }


def _snapshot_bytes(service: EstimationService) -> bytes:
    """The service's binary v2 snapshot as in-memory bytes."""
    from repro.service.snapshot import write_binary_snapshot_state

    buffer = io.BytesIO()
    write_binary_snapshot_state(service.snapshot(), buffer)
    return buffer.getvalue()


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
        checkpoint_boxes=checkpoint_boxes, num_shards=old.num_shards)
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
    replica logs afterwards.
    """
    fresh = _service_from_bytes(raw, old.num_shards)
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


def _service_from_bytes(raw: bytes, num_shards: int) -> EstimationService:
    """Rebuild a service from snapshot bytes shipped over the wire."""
    from repro.service.snapshot import restore_service, snapshot_state_from_bytes

    return restore_service(snapshot_state_from_bytes(raw), num_shards=num_shards)
