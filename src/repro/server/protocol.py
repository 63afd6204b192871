"""Wire protocol of the network serving layer.

The server speaks **newline-delimited JSON** over TCP: every request is one
JSON object on one line, every response is one JSON object on one line, and
responses of a connection come back **in request order** (which is what
makes client-side pipelining trivial — write *n* requests, read *n*
replies).

Requests carry an ``op`` field and op-specific arguments::

    {"op": "register", "name": ..., "family": ..., "sizes": [..],
     "instances": 256, "seed": 0, "options": {...}}
    {"op": "ingest",   "name": ..., "side": "left", "kind": "insert",
     "boxes": [[lo_1..lo_d, hi_1..hi_d], ...]}
    {"op": "estimate", "name": ..., "query": [lo_1..lo_d, hi_1..hi_d]}
    {"op": "flush"} | {"op": "stats"} | {"op": "metrics"} | {"op": "ping"}
    {"op": "snapshot", "path": ...}
    {"op": "reload",   "path": ...}
    {"op": "quit"}

An optional ``"id"`` field is echoed back verbatim.  Successful responses
have ``"ok": true``; failures have ``"ok": false`` plus a human-readable
``"error"`` and a machine-readable ``"error_code"`` (one of
:data:`ERROR_CODES` — notably ``"overloaded"``, which clients should treat
as retryable backpressure rather than a hard failure, and ``"degraded"``,
a cluster router's structured report that some shard owners are down).

The cluster layer (:mod:`repro.cluster`) extends the same protocol —
routers speak it verbatim on both sides, so one client works against a
single server and a whole fleet:

* ``{"op": "estimate", ..., "partial": true}`` asks a worker for its
  shard-local **partial result** — the merged-view estimator state — which
  the router reduces (one vectorised counter add per worker) before the
  boosting reduction,
* ``{"op": "snapshot", "fetch": true}`` returns the binary v2 snapshot
  bytes inline (base64) instead of writing a server-side file,
* ``{"op": "reload", "data": <base64>}`` hot-loads a snapshot shipped over
  the wire — the replica-bootstrap path,
* ``{"op": "cluster_status"}`` (router only) reports fleet topology.

NDJSON is the *default and debug* wire format.  A connection may upgrade
to the length-prefixed **binary frame format** (:mod:`repro.server.wire`)
with a ``{"op": "hello", "wire": "binary"}`` handshake: the reply is still
NDJSON, everything after it is binary in both directions.  Binary frames
carry the same JSON payloads in their headers but lift numeric tensors
(box rows, partial counters) and raw byte blobs (snapshots, WAL tails)
into a zero-copy binary body, skipping both JSON number formatting and
base64.
"""

from __future__ import annotations

import base64
import json
from dataclasses import replace
from typing import Any, Mapping

import numpy as np

from repro.errors import (
    AuthenticationError,
    DegradedError,
    FrameTooLargeError,
    OverloadedError,
    ProtocolError,
    QuotaExceededError,
    ReproError,
    ServerError,
    ServiceError,
    SnapshotError,
)
from repro.geometry.boxset import BoxSet
from repro.service.specs import EstimatorSpec

PROTOCOL_VERSION = 1

#: Upper bound on one request/response line (framing guard; an ingest of
#: ~100k two-dimensional boxes still fits comfortably).
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Machine-readable failure categories.
ERROR_CODES = ("bad_request", "unknown_op", "overloaded", "degraded",
               "protocol", "frame_too_large", "auth_required", "auth_failed",
               "quota_exceeded", "internal", "error")

#: Operations the server understands (``save`` is an alias of ``snapshot``;
#: ``wal`` fetches or applies log-shipping tails, or describes the log;
#: ``hello`` negotiates the wire format for the rest of the connection;
#: ``auth`` binds the connection to a tenant; ``tenant`` administers the
#: tenant registry).
OPS = ("hello", "auth", "register", "unregister", "ingest", "estimate",
       "flush", "stats", "metrics", "snapshot", "save", "reload", "wal",
       "tenant", "ping", "quit")

#: Additional operations a cluster router understands on top of :data:`OPS`.
CLUSTER_OPS = ("cluster_status",)


def json_default(value: Any) -> Any:
    """JSON fallback giving binary-capable payloads an exact NDJSON form.

    Handlers produce wire-format-agnostic payloads (numpy tensors, raw
    bytes); on an NDJSON connection tensors render as the nested lists
    they always were and byte blobs as base64, so the NDJSON wire shapes
    are unchanged by the binary format's existence.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return pack_bytes(bytes(value))
    raise TypeError(
        f"payload value of type {type(value).__name__} is not serialisable")


def encode(payload: Mapping[str, Any]) -> bytes:
    """One protocol frame: compact JSON plus the line terminator."""
    return json.dumps(payload, separators=(",", ":"),
                      default=json_default).encode("utf-8") + b"\n"


def decode(line: bytes | str) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on malformed input."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


def ok_payload(op: str, request: Mapping | None = None, **fields: Any) -> dict:
    """A success response, echoing the request ``id`` when present."""
    payload: dict[str, Any] = {"ok": True, "op": op}
    if request is not None and request.get("id") is not None:
        payload["id"] = request["id"]
    payload.update(fields)
    return payload


def error_payload(message: str, *, code: str = "error", op: str | None = None,
                  request: Mapping | None = None,
                  detail: Mapping | None = None) -> dict:
    """A failure response with both human and machine readable fields.

    ``detail`` carries structured failure context (used by ``degraded``
    cluster errors to report missing workers and applied/dropped counts).
    """
    payload: dict[str, Any] = {"ok": False, "error": message,
                               "error_code": code}
    if op is not None:
        payload["op"] = op
    if detail is not None:
        payload["detail"] = dict(detail)
    if request is not None and request.get("id") is not None:
        payload["id"] = request["id"]
    return payload


def error_payload_for(exc: BaseException, *, op: str | None = None,
                      request: Mapping | None = None) -> dict:
    """Map an exception onto the wire error taxonomy."""
    if isinstance(exc, ServerError):
        code = exc.code
    elif isinstance(exc, (ReproError, KeyError, TypeError, ValueError)):
        code = "bad_request"
    else:
        code = "internal"
    message = f"{type(exc).__name__}: {exc}"
    detail = None
    if isinstance(exc, QuotaExceededError):
        detail = {"retry_after": exc.retry_after}
    return error_payload(message, code=code, op=op, request=request,
                         detail=detail)


def check_write_format(request: Mapping[str, Any]) -> None:
    """Refuse a ``save`` / ``snapshot`` request that names a retired format.

    Snapshots are written binary (v2) and the path's suffix selects
    nothing.  The ``format`` field stays on the wire for the clients that
    send it: ``"auto"``, ``"binary"`` or absent all mean that one format;
    anything else — ``"json"``, the v1 writer that was removed — is a
    ``bad_request``.
    """
    format = request.get("format", "auto")
    if format not in ("auto", "binary"):
        raise SnapshotError(
            f"snapshots are written in the binary format: \"format\" must "
            f"be \"auto\" or \"binary\" (or absent), got {format!r}")


def boxes_from_rows(rows, dimension: int | None = None) -> BoxSet:
    """Rows of ``[lo_1..lo_d, hi_1..hi_d]`` as a validated :class:`BoxSet`.

    This is the single wire decoder for box payloads — the server's ingest
    and estimate ops and the CLI's offline paths all parse through it.
    """
    array = np.asarray(rows, dtype=np.int64)
    if array.ndim != 2 or array.shape[1] % 2 or array.shape[1] == 0:
        raise ReproError("box rows must be [lo_1..lo_d, hi_1..hi_d] lists")
    d = array.shape[1] // 2
    if dimension is not None and d != dimension:
        raise ReproError(f"box rows are {d}-dimensional, expected {dimension}")
    return BoxSet(array[:, :d], array[:, d:])


def boxes_to_rows(boxes: BoxSet) -> list[list[int]]:
    """The inverse of :func:`boxes_from_rows`, for client-side encoding."""
    return np.hstack([boxes.lows, boxes.highs]).tolist()


def register_request(name: str, *, family: str, sizes, instances: int = 256,
                     seed: int = 0, options: Mapping | None = None,
                     max_levels=None) -> dict:
    """The ``register`` request for one estimator — what a client sends a
    front and a router sends its workers.  ``max_levels`` (the spec's
    per-dimension level caps) is on the wire only when set."""
    request = {"op": "register", "name": name, "family": family,
               "sizes": list(sizes), "instances": instances, "seed": seed,
               "options": dict(options or {})}
    if max_levels is not None:
        request["max_levels"] = list(max_levels)
    return request


def spec_from_register(request: Mapping[str, Any]) -> EstimatorSpec:
    """The inverse of :func:`register_request`: the spec a request asks for."""
    spec = EstimatorSpec.create(
        request["family"], request["sizes"],
        int(request.get("instances", 256)),
        seed=int(request.get("seed", 0)),
        **request.get("options", {}))
    max_levels = request.get("max_levels")
    if max_levels is not None:
        spec = replace(spec, max_levels=tuple(
            None if level is None else int(level) for level in max_levels))
    return spec


def query_from_request(spec: EstimatorSpec,
                       request: Mapping[str, Any]) -> BoxSet | None:
    """An ``estimate`` request's ``query`` checked against the family: one
    validated rectangle for queryable families, ``None`` for the rest."""
    row = request.get("query")
    if spec.info.queryable:
        if row is None:
            raise ServiceError(
                f"family {spec.family!r} estimates need a query rectangle")
        return boxes_from_rows([row], spec.dimension)
    if row is not None:
        raise ServiceError(
            f"family {spec.family!r} does not take a query argument")
    return None


def estimate_fields(result) -> dict:
    """The JSON projection of an :class:`~repro.core.result.EstimateResult`.

    ``json`` serialises floats via ``repr``, which round-trips IEEE
    doubles exactly — remote estimates are bit-identical to local ones.
    """
    return {
        "estimate": result.estimate,
        "selectivity": result.selectivity,
        "left_count": result.left_count,
        "right_count": result.right_count,
    }


def pack_bytes(data: bytes) -> str:
    """Binary payloads (snapshot bytes) as a JSON-safe base64 string."""
    return base64.b64encode(data).decode("ascii")


def unpack_bytes(text: str) -> bytes:
    """Inverse of :func:`pack_bytes`; raises :class:`ProtocolError`."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError(f"malformed base64 payload: {exc}") from exc


def payload_bytes(value: Any) -> bytes:
    """A binary payload field as raw bytes, whatever wire format carried it.

    Binary frames deliver byte blobs as ``bytes`` already; NDJSON delivers
    the base64 string :func:`pack_bytes` produced.  Every handler that
    accepts inline snapshot/WAL data decodes through this single helper.
    """
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    return unpack_bytes(str(value))


def raise_for_response(response: Mapping[str, Any]) -> dict:
    """Client-side check: return the response or raise its typed error."""
    if response.get("ok"):
        return dict(response)
    message = str(response.get("error", "unknown server error"))
    code = str(response.get("error_code", "error"))
    if code == "overloaded":
        raise OverloadedError(message)
    if code == "degraded":
        raise DegradedError(message, detail=response.get("detail"))
    if code == "protocol":
        raise ProtocolError(message)
    if code == "frame_too_large":
        raise FrameTooLargeError(message)
    if code in ("auth_required", "auth_failed"):
        raise AuthenticationError(message, code=code)
    if code == "quota_exceeded":
        detail = response.get("detail") or {}
        raise QuotaExceededError(
            message, retry_after=float(detail.get("retry_after", 0.0)))
    raise ServerError(message, code=code)
