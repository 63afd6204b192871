"""Wire protocol of the network serving layer.

The server speaks **newline-delimited JSON** over TCP: every request is one
JSON object on one line, every response is one JSON object on one line, and
responses of a connection come back **in request order** (which is what
makes client-side pipelining trivial — write *n* requests, read *n*
replies).  The same payloads also travel as length-prefixed binary frames
(:mod:`repro.server.wire`).

Requests carry an ``op`` field and op-specific arguments, declared once
in :data:`OPS` — every op with its fields (kind, default, required, one
help line) and the fronts that serve it.  :func:`read` returns a request's
validated fields with defaults applied, :func:`build` makes a request
from keyword fields; both serving fronts, the client and the CLI's
``--connect`` flags all go through that table::

    {"op": "register", "name": ..., "family": ..., "sizes": [..],
     "instances": 256, "seed": 0, "options": {...}}
    {"op": "ingest",   "name": ..., "side": "left", "kind": "insert",
     "boxes": [[lo_1..lo_d, hi_1..hi_d], ...]}
    {"op": "estimate", "name": ..., "query": [lo_1..lo_d, hi_1..hi_d]}

An optional ``"id"`` field is echoed back verbatim.  Successful responses
have ``"ok": true``; failures have ``"ok": false`` plus a human-readable
``"error"`` and a machine-readable ``"error_code"`` (one of
:data:`ERROR_CODES` — notably ``"overloaded"``, which clients should treat
as retryable backpressure rather than a hard failure, and ``"degraded"``,
a cluster router's structured report that some shard owners are down).

The cluster layer (:mod:`repro.cluster`) extends the same protocol —
routers speak it verbatim on both sides, so one client works against a
single server and a whole fleet.  What a router asks of its workers is in
the table too: ``estimate`` with ``partial`` (the shard-local merged state
it reduces), ``snapshot`` with ``fetch`` and ``reload`` with ``data`` (the
replica bootstrap); ``cluster_status`` is the one router-only op.

NDJSON is the format people and other languages type.  Every frame names
its own format by its first byte — ``R`` starts a **binary frame**, anything
else an NDJSON line — and each reply is written in the format of its
request, so there is no handshake.  Binary frames carry the same JSON
payloads in their headers but lift numeric tensors (box rows, partial
counters) and raw byte blobs (snapshots) into a zero-copy binary body,
skipping both JSON number formatting and base64.
"""

from __future__ import annotations

import base64
import json
import logging
from dataclasses import dataclass
from typing import Any, Callable, Mapping

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
from repro.service.specs import ENDPOINT_POLICIES, UPDATE_KINDS, EstimatorSpec

PROTOCOL_VERSION = 1

#: Upper bound on one request/response line (framing guard; an ingest of
#: ~100k two-dimensional boxes still fits comfortably).
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Machine-readable failure categories.
ERROR_CODES = ("bad_request", "unknown_op", "overloaded", "degraded",
               "protocol", "frame_too_large", "auth_required", "auth_failed",
               "quota_exceeded", "internal", "error")

#: Field kinds: what a decoded value must be an instance of.  Array kinds
#: also arrive as numpy tensors (the binary wire, in-process callers), byte
#: blobs as base64 text on NDJSON.  A flag may be sent as ``0`` / ``1``
#: (handlers only test it); ``true`` / ``false`` are never integers.
_ARRAY = (list, tuple, np.ndarray)
KINDS = {"string": (str,), "integer": (int,), "boolean": (bool, int),
         "object": (dict,), "integers": _ARRAY, "rows": _ARRAY,
         "bytes": (str, bytes, bytearray, memoryview)}


@dataclass(frozen=True)
class Field:
    """One request field: wire name, kind (a key of :data:`KINDS`), one
    help line, default, whether it is required and its allowed values.

    ``flag`` is the command-line flag (plus an optional metavar) under
    which the CLI verb for the op exposes the field; ``members`` are the
    documented keys of an ``object`` field, which may carry flags too.
    """

    name: str
    kind: str
    help: str
    default: Any = None
    required: bool = False
    choices: tuple = ()
    flag: str | None = None
    members: tuple["Field", ...] = ()


@dataclass(frozen=True)
class Op:
    """One operation: a help line, its fields, the fronts that serve it
    (``server``, ``router``), who may send it once a tenant registry gates
    the front (``open`` < ``tenant`` < ``admin``) and, for the few ops that
    need one, a ``derive`` step :func:`read` runs over the validated fields.
    """

    help: str
    fields: tuple[Field, ...] = ()
    fronts: tuple[str, ...] = ("server", "router")
    access: str = "admin"
    derive: Callable[[dict], None] | None = None


def check_write_format(fields: Mapping[str, Any]) -> None:
    """Refuse a ``snapshot`` request that names a retired format.

    Snapshots are written binary (v2) and the path's suffix selects
    nothing.  The ``format`` field stays on the wire for the clients that
    send it: ``"auto"``, ``"binary"`` or absent all mean that one format;
    anything else — ``"json"``, the v1 writer that was removed — is a
    ``bad_request``.
    """
    if fields["format"] not in ("auto", "binary"):
        raise SnapshotError(
            f"snapshots are written in the binary format: \"format\" must "
            f"be \"auto\" or \"binary\" (or absent), got {fields['format']!r}")


def _derive_spec(fields: dict) -> None:
    """``register``: ``fields["spec"]`` is the validated spec the fields
    ask for.  Without ``max_levels`` the per-dimension level caps are the
    ones :meth:`EstimatorSpec.create` gives plain sizes — written into the
    spec, so the WAL, snapshots and a router's workers never derive.  The
    counter layout is the one every new registration gets."""
    spec = EstimatorSpec.from_dict({
        **fields, "num_instances": fields["instances"],
        "options": fields["options"] or {}}).with_layout()
    given = spec.max_levels is not None
    if not given:
        spec = spec.with_pruned_levels()
    logging.getLogger("repro.xi").info(
        "register %s: level caps %s %s", fields["name"],
        list(spec.max_levels), "given" if given else "derived")
    fields["spec"] = spec


_NAME = Field("name", "string", "estimator name", required=True, flag="--name")
_PATH = Field("path", "string", "server-side snapshot file (default: the "
              "WAL's recovery base, else the server's --snapshot)")
_SNAPSHOT = Op("write the service to a snapshot file (a router: one file "
               "per owner group, path.<owner>)", (
    _PATH,
    Field("format", "string", "auto or binary: the one format snapshots are "
          "written in", default="auto"),
    Field("fetch", "boolean", "worker only: return the snapshot bytes "
          "inline (data, nbytes) instead of writing a file",
          default=False),
    Field("checkpoint", "boolean", "worker only: write the WAL's recovery "
          "base, then truncate the log it covers (any other path is "
          "refused)", default=False)), derive=check_write_format)

#: The request format, declared once: op -> :class:`Op`, in documentation
#: order (iterating yields the op names).  :func:`read` and :func:`build`
#: work from this table, both fronts register exactly these handlers, the
#: client builds its payloads through it, the CLI derives the flags of its
#: ``--connect`` verbs from it and the README lists it.
OPS: dict[str, Op] = {
    "auth": Op("bind the connection to a tenant, or to the admin role", (
        Field("token", "string", "API token for --connect against a "
              "multi-tenant server: a tenant token scopes every request to "
              "that tenant's namespace, the admin token grants the unscoped "
              "administrative role", flag="--token TOKEN"),), access="open"),
    "register": Op("create an empty estimator under a name", (
        _NAME,
        Field("family", "string", "estimator family (required when "
              "registering a new name)", required=True, flag="--family"),
        Field("sizes", "integers", "domain sizes, e.g. 4096 or 1024x1024 "
              "(required when registering a new name)", required=True,
              flag="--sizes"),
        Field("instances", "integer", "atomic-sketch instances (default: 256)",
              default=256, flag="--instances"),
        Field("seed", "integer", "sketch seed (default: 0)", default=0,
              flag="--seed"),
        Field("options", "object", "family options", members=(
            Field("epsilon", "integer", "epsilon for the epsilon family",
                  flag="--epsilon"),
            Field("strict", "boolean", "strict overlap semantics for the "
                  "range family", default=False, flag="--strict"),
            Field("endpoint_policy", "string", "how the join families treat "
                  "common endpoints", default="transform",
                  choices=ENDPOINT_POLICIES,
                  flag="--endpoint-policy"))),
        Field("max_levels", "integers", "per-dimension dyadic level caps "
              "(a null entry or the height = uncapped; omitted: the family's "
              "default caps, written into the spec)")),
        access="tenant", derive=_derive_spec),
    "unregister": Op("drop an estimator and its counters", (_NAME,),
                     access="tenant"),
    "ingest": Op("stream a batch of boxes into one side of an estimator", (
        _NAME,
        Field("boxes", "rows", "rows [lo_1..lo_d, hi_1..hi_d] (a raw int64 "
              "tensor on the binary wire)", required=True),
        Field("side", "string", "input side (default: left)", default="left",
              flag="--side"),
        Field("kind", "string", "insert adds the boxes, delete retracts them",
              default="insert", choices=UPDATE_KINDS, flag="--kind")),
        access="tenant"),
    "estimate": Op("estimate from the merged view of an estimator", (
        _NAME,
        Field("query", "integers", "query rectangle lo_1,..,lo_d,hi_1,..,hi_d "
              "(range family only)", flag="--query"),
        Field("partial", "boolean", "worker only: return the shard-local "
              "merged estimator state for a router to reduce",
              default=False)), access="tenant"),
    "flush": Op("apply every buffered batch", access="tenant"),
    "stats": Op("describe the service, the estimators and this front",
                access="tenant"),
    "metrics": Op("the plain-text metrics exposition, plus structured "
                  "counters", access="open"),
    "snapshot": _SNAPSHOT,
    "reload": Op("hot-swap the service from a snapshot; with a WAL, any "
                 "but the recovery base is checkpointed as the base "
                 "(worker-level: a router refuses it)", (
        _PATH,
        Field("data", "bytes", "the snapshot shipped inline — the "
              "replica-bootstrap path"))),
    "tenant": Op("administer the tenant registry", (
        Field("action", "string", "registry action (all but a self-describe "
              "require the admin token)", default="list",
              choices=("create", "list", "describe", "update", "disable",
                       "enable", "remove"), flag="action"),
        Field("tenant", "string", "tenant id the action applies to "
              "(optional for list, and for describe on a tenant-token "
              "connection)", flag="--tenant ID"),
        Field("token", "string", "API token to install (create, or rotation "
              "via update); only its SHA-256 hash is stored",
              flag="--tenant-token TOKEN"),
        Field("quota", "object", 'quota object, e.g. \'{"ingest_boxes_per_sec": '
              '50000, "max_estimates_in_flight": 64, "share": 4}\' '
              "(create/update)", flag="--quota JSON"),
        Field("disabled", "boolean", "update: refuse (true) or admit again "
              "(false) the tenant's requests")), access="tenant"),
    "ping": Op("liveness and protocol version", access="open"),
    "quit": Op("end the connection after this reply", access="open"),
    "cluster_status": Op("fleet topology: workers and their health",
                         fronts=("router",)),
}

# The table compiled for the per-request paths: plain tuples, no reflection.
_READERS = {name: (tuple((f.name, f.kind, KINDS[f.kind], f.default,
                          f.required, f.choices) for f in op.fields),
                   op.derive) for name, op in OPS.items()}
_FIELD_NAMES = {name: frozenset(f.name for f in op.fields) | {"id"}
                for name, op in OPS.items()}


def read(op: str, request: Mapping[str, Any]) -> dict:
    """The validated fields of an ``op`` request, defaults applied.

    Every declared field is present in the result (``null`` counts as
    absent), plus the ``id`` to echo when the request has one.  A missing
    required field, a value of the wrong kind or outside the declared
    choices is a ``bad_request`` naming the op and the field.
    """
    specs, derive = _READERS[op]
    fields: dict[str, Any] = {}
    for name, kind, types, default, required, choices in specs:
        value = request.get(name)
        if value is None:
            if required:
                raise ServiceError(f"{op}: missing field {name!r}")
            value = default
        elif not isinstance(value, types) or (
                kind == "integer" and isinstance(value, bool)):
            raise ServiceError(f"{op}: field {name!r} must be {kind}, got "
                               f"{type(value).__name__}")
        elif choices and value not in choices:
            raise ServiceError(f"{op}: field {name!r} must be one of "
                               f"{list(choices)}, got {value!r}")
        fields[name] = value
    echo = request.get("id")
    if echo is not None:
        fields["id"] = echo
    if derive is not None:
        derive(fields)
    return fields


def build(op: str, *, acting_for: str | None = None, **fields: Any) -> dict:
    """The request for ``op`` from keyword fields; unset ones are dropped.

    ``acting_for`` is the tenant identity a router adds to what it forwards
    over its admin-authenticated worker links: it travels with ``scoped:
    true``, which tells the worker the name is already namespaced and quota
    was charged at the edge — it labels, but never re-scopes or re-charges.
    """
    if not _FIELD_NAMES[op].issuperset(fields):
        raise ProtocolError(f"{op} has no field(s) "
                            f"{sorted(fields.keys() - _FIELD_NAMES[op])}")
    request = {"op": op, **{name: value for name, value in fields.items()
                            if value is not None}}
    if acting_for is not None:
        request.update(tenant=acting_for, scoped=True)
    return request


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
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal past
        # the interpreter's digit limit; RecursionError a nesting too deep.
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
    elif isinstance(exc, DegradedError):  # a router's words and report
        message, detail = str(exc), exc.detail or None
    return error_payload(message, code=code, op=op, request=request,
                         detail=detail)


def boxes_from_rows(rows, dimension: int | None = None, *,
                    validate: bool = True) -> BoxSet:
    """Rows of ``[lo_1..lo_d, hi_1..hi_d]`` as a :class:`BoxSet`, validated
    (no lower endpoint above its upper one) unless ``validate`` is false.

    This is the single wire decoder for box payloads — the server's ingest
    and estimate ops and the CLI's offline paths all parse through it.
    """
    array = np.asarray(rows, dtype=np.int64)
    if array.ndim != 2 or array.shape[1] % 2 or array.shape[1] == 0:
        raise ReproError("box rows must be [lo_1..lo_d, hi_1..hi_d] lists")
    d = array.shape[1] // 2
    if dimension is not None and d != dimension:
        raise ReproError(f"box rows are {d}-dimensional, expected {dimension}")
    return BoxSet(array[:, :d], array[:, d:], validate=validate)


def boxes_to_rows(boxes: BoxSet) -> list[list[int]]:
    """The inverse of :func:`boxes_from_rows`, for client-side encoding."""
    return np.hstack([boxes.lows, boxes.highs]).tolist()


def query_box(row) -> BoxSet | None:
    """An ``estimate`` request's ``query``: one decoded box, or ``None``.

    Only decoded here, never judged — not even an inverted rectangle:
    whether the name's family takes it is checked once, where the estimate
    compiles (:meth:`repro.core.estimator.SketchEstimator.check_queries`).
    """
    return None if row is None else boxes_from_rows([row], validate=False)


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
    the base64 string :func:`pack_bytes` produced.  A handler that accepts
    an inline snapshot decodes through this single helper.
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
