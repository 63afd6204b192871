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
  per request.  With a WAL, the log's recovery base reloads as a restart
  recovers it, and any other snapshot is checkpointed onto the base.
  Writes (register, unregister, ingest, flush, tenant mutations) and
  every ``snapshot`` share a :class:`~repro.server.front.WriteGate` that a
  reload holds alone, so none lands on — or reads — the service the swap
  drops,
* ``snapshot`` can ``fetch`` the snapshot inline (what a cluster manager
  ships into a new replica) or ``checkpoint`` (the recovery base + WAL
  truncation) — worker-level verbs a router refuses.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

from repro.core.hashing import sign_table_stats
from repro.errors import ServiceError
from repro.server import protocol
from repro.server.coalescer import EstimateCoalescer
from repro.server.front import FrontConfig, ServingFront, WriteGate
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
        Default for ``snapshot``/``reload`` requests that omit a path
        (with a WAL: the log's recovery base).
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
        # Every write shares it; a reload holds it alone, so no write lands
        # on the service it is about to drop.
        self._gate = WriteGate()

    @property
    def service(self) -> EstimationService:
        """The *current* backing service (``reload`` swaps it)."""
        return self._service

    def _default_path(self) -> str | None:
        """Where a ``snapshot`` / ``reload`` without a path goes."""
        wal = self._service.wal
        return wal.base if wal is not None else self._snapshot_path

    @property
    def tenants(self):
        """The current service's tenant registry (``None`` = open serving)."""
        return self._service.tenants

    async def _tenant_apply(self, verb: str, fields: dict, **changes):
        # tenant_create / tenant_update / tenant_remove: the service journals
        # the mutation through its WAL and embeds it in snapshots.
        async with self._gate.write():
            return getattr(self._service, f"tenant_{verb}")(fields["tenant"],
                                                            **changes)

    # -- data-plane verbs ---------------------------------------------------------

    async def _op_register(self, fields: dict, scope) -> dict:
        async with self._gate.write():
            self._service.register(fields["name"], fields["spec"])
        return protocol.ok_payload("register", fields, name=fields["name"],
                                   spec=fields["spec"].to_dict())

    async def _op_unregister(self, fields: dict, scope) -> dict:
        async with self._gate.write():
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

        async with self._gate.write():
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
        async with self._gate.write():
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
        # Every variant reads the service, and the default path, that a
        # reload in flight leaves: the gate is shared with writes and held
        # alone by a reload.
        async with self._gate.write():
            service = self._service
            if fields["fetch"]:
                # Ship the binary v2 snapshot inline instead of writing a
                # server-side file — the replica-bootstrap path: a cluster
                # manager fetches a primary's snapshot and reloads it into
                # a fresh worker over the wire.  ``data`` is raw bytes:
                # base64 on NDJSON connections (via the encoder's
                # json_default hook), a zero-copy body section on binary
                # ones.
                data = await self._run_blocking(_snapshot_bytes, service)
                return protocol.ok_payload("snapshot", fields, data=data,
                                           nbytes=len(data))
            path = fields["path"] or self._default_path()
            if fields["checkpoint"]:
                # Elsewhere, the truncated tail would be lost to a restart.
                wal = service.wal
                if wal is not None and not _same_file(path, wal.base):
                    raise ServiceError(
                        f"checkpoint writes the log's recovery base "
                        f"{wal.base!r}, not {path!r}")
                info = await self._run_blocking(service.checkpoint)
                return protocol.ok_payload("snapshot", fields,
                                           checkpoint=True, **info)
            if not path:
                raise ServiceError(
                    "snapshot needs a path (or start the server with one)")
            await self._run_blocking(service.save, path)
        return protocol.ok_payload("snapshot", fields, path=str(path))

    async def _op_reload(self, fields: dict, scope) -> dict:
        data = fields["data"]
        raw = None if data is None else protocol.payload_bytes(data)
        path = None if raw is not None else (fields["path"]
                                              or self._default_path())
        if raw is None and not path:
            raise ServiceError(
                "reload needs a path or inline data (or start the server "
                "with a snapshot path)")
        async with self._gate.hold():
            fresh, described = await self._run_blocking(
                _reloaded, self._service, path, raw)
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


def _same_file(path, other: str) -> bool:
    return os.path.realpath(os.fspath(path)) == os.path.realpath(other)


def _reloaded(old: EstimationService, path: str | None, raw: bytes | None
              ) -> tuple[EstimationService, dict]:
    """The service a ``reload`` swaps in, and what its reply reports.

    With a WAL the old service's writer moves over: the recovery base
    reloads as a restart recovers it (base + replayed tail); any other
    snapshot is checkpointed, which writes the base with the local seqno
    *before* it truncates the log.  A failed step hands the writer back.
    """
    from repro.service.snapshot import (
        read_binary_snapshot_state,
        restore_service,
        snapshot_state_from_bytes,
    )
    from repro.wal.recovery import recover_service

    described: dict = ({"source": "inline"} if raw is not None
                       else {"path": str(path)})
    wal = old.wal
    rebase = wal is not None and raw is None and _same_file(path, wal.base)
    if not rebase:  # restored while the old service still logs
        state = (snapshot_state_from_bytes(raw) if raw is not None
                 else read_binary_snapshot_state(path))
        fresh = restore_service(state, num_shards=old.num_shards)
        if wal is None:
            return fresh, described
    old.detach_wal(close=False)
    try:
        if rebase:
            wal.flush()
            fresh, report = recover_service(wal.directory, wal.base,
                                            attach=False,
                                            num_shards=old.num_shards)
            wal.recovery = report.as_dict()
            described.update(replayed_records=report.replayed_records,
                             replayed_boxes=report.replayed_boxes)
            fresh.attach_wal(wal)
        else:
            fresh.attach_wal(wal)
            fresh.checkpoint()
            described["recovery_base"] = wal.base
    except BaseException:
        old.attach_wal(wal)
        raise
    described["wal_seqno"] = wal.last_seqno
    return fresh, described
