"""Synchronous client for the network sketch server.

:class:`ServiceClient` keeps **one TCP connection open** across calls
(connection reuse — no reconnect or snapshot restore per request) and
mirrors the :class:`~repro.service.service.EstimationService` verbs:

::

    with ServiceClient("127.0.0.1", 7007) as client:
        client.register("join", family="rectangle", sizes=(1024, 1024))
        client.ingest("join", [[0, 0, 10, 10]], side="left")
        result = client.estimate("join")
        many = client.estimate_many("ranges", query_rows)   # pipelined

Because the server answers in request order, :meth:`estimate_many`
*pipelines*: it writes every request before reading any reply, so the
server's coalescer sees the whole burst at once and answers it through a
handful of batched engine calls.

Failures come back as typed exceptions: :class:`~repro.errors.OverloadedError`
when the server sheds load (retryable), :class:`~repro.errors.ServerError`
for other request failures, :class:`~repro.errors.ProtocolError` when the
connection breaks mid-frame.

A **dropped connection** (server restart, idle timeout, router failover) is
healed transparently for idempotent verbs: :meth:`ServiceClient.request`
reconnects once and resends.  Non-idempotent verbs (``ingest``,
``register``) are never retried — a resend could double-apply updates
whose first copy did land — and surface
:class:`~repro.errors.ConnectionLostError` instead.  A server that cannot
be reached at all (refused, unreachable) raises the same error, naming
``host:port``, on the first connect and on a retry's reconnect alike.

A client speaks its ``wire`` format from the first frame — there is no
handshake, because every frame names its own format and the server answers
in kind.  ``wire="binary"`` (the default) is the length-prefixed frame
format of :mod:`repro.server.wire`: box batches travel as raw little-endian
int64 tensors and snapshot payloads as raw bytes instead of base64.
``wire="ndjson"`` is the JSON-lines format ``nc`` debugging and the stdin
``serve`` loop speak.  A binary reply over the frame bound is drained and
raised as :class:`~repro.errors.FrameTooLargeError`; the connection stays
usable.
"""

from __future__ import annotations

import asyncio
import socket
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import ClientTimeoutError, ConnectionLostError, ProtocolError
from repro.geometry.boxset import BoxSet
from repro.server import protocol, wire as wire_format

DEFAULT_PORT = 7007

#: Verbs safe to resend after a reconnect: re-running them cannot change
#: service state beyond what the (possibly applied) first copy did.
IDEMPOTENT_OPS = frozenset({"ping", "estimate", "stats", "metrics",
                            "snapshot", "reload", "flush", "cluster_status"})

#: Failures that mean "the connection is gone" rather than "the request
#: is bad" — the only ones a reconnect can heal.
_RETRYABLE_ERRORS = (ConnectionLostError, ConnectionResetError,
                     BrokenPipeError)


@dataclass(frozen=True)
class RemoteEstimate:
    """Client-side projection of an :class:`EstimateResult`.

    ``estimate`` round-trips the server's IEEE double exactly (JSON floats
    are serialised via ``repr``), so it is bit-identical to the value a
    local :meth:`EstimationService.estimate` call would produce.
    """

    estimate: float
    selectivity: float
    left_count: int
    right_count: int

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RemoteEstimate":
        return cls(estimate=float(payload["estimate"]),
                   selectivity=float(payload["selectivity"]),
                   left_count=int(payload["left_count"]),
                   right_count=int(payload["right_count"]))

    def __float__(self) -> float:
        return float(self.estimate)


def _query_row(query) -> list[int] | None:
    """One wire query row from ``None``, a row sequence, or a 1-box BoxSet."""
    if query is None:
        return None
    if isinstance(query, BoxSet):
        rows = protocol.boxes_to_rows(query)
        if len(rows) != 1:
            raise ProtocolError("a query must be exactly one rectangle")
        return rows[0]
    return [int(c) for c in query]


class RequestVerbs:
    """The protocol's verbs over :meth:`request` / :meth:`request_many`.

    Every payload is built from the op table (:func:`protocol.build`); a
    subclass supplies the transport — a TCP connection
    (:class:`ServiceClient`) or a front in this process
    (:class:`InProcessClient`).
    """

    #: Whether box batches travel as raw int64 tensors (the binary wire, a
    #: front in this process) rather than JSON row lists.
    tensors = False

    def ping(self) -> dict:
        return self.request(protocol.build("ping"))

    def tenant(self, action: str, **fields: Any) -> dict:
        """Tenant-registry administration (``create``/``list``/``describe``/
        ``update``/``disable``/``enable``/``remove``; ``tenant=`` names the
        tenant).

        Requires an admin-authenticated connection, except ``describe``
        of the connection's own tenant.
        """
        return self.request(protocol.build("tenant", action=action, **fields))

    def register(self, name: str, *, family: str, sizes: Sequence[int],
                 instances: int = 256, seed: int = 0, **options: Any) -> dict:
        return self.request(protocol.build(
            "register", name=name, family=family, sizes=list(sizes),
            instances=instances, seed=seed, options=options))

    def unregister(self, name: str) -> dict:
        return self.request(protocol.build("unregister", name=name))

    def ingest(self, name: str, boxes, *, side: str = "left",
               kind: str = "insert") -> dict:
        """Stream a batch of boxes (a :class:`BoxSet` or row lists)."""
        rows: Any
        if isinstance(boxes, BoxSet):
            rows = np.hstack([boxes.lows, boxes.highs])
            if not self.tensors:
                rows = rows.tolist()
        else:
            rows = list(boxes)
            if self.tensors:
                # Ship well-formed batches as a raw int64 tensor; anything
                # ragged or non-numeric stays JSON so the server's decoder
                # reports it as bad_request exactly as over NDJSON.
                try:
                    rows = np.asarray(rows, dtype=np.int64)
                except (TypeError, ValueError):
                    pass
        return self.request(protocol.build("ingest", name=name, boxes=rows,
                                           side=side, kind=kind))

    def estimate(self, name: str, query=None) -> RemoteEstimate:
        return RemoteEstimate.from_payload(self.request(protocol.build(
            "estimate", name=name, query=_query_row(query))))

    def estimate_many(self, name: str, queries) -> list[RemoteEstimate]:
        """Batch helper: pipeline one request per query in a single write.

        The server coalesces the burst into batched engine calls; replies
        come back in query order.
        """
        responses = self.request_many(
            [protocol.build("estimate", name=name, query=_query_row(q))
             for q in _iter_queries(queries)])
        return [RemoteEstimate.from_payload(protocol.raise_for_response(r))
                for r in responses]

    def flush(self) -> dict:
        return self.request(protocol.build("flush"))

    def stats(self) -> dict:
        return self.request(protocol.build("stats"))

    def metrics(self) -> str:
        """The server's plain-text metrics exposition."""
        return str(self.request(protocol.build("metrics"))["text"])

    def snapshot(self, path: str | None = None) -> dict:
        return self.request(protocol.build(
            "snapshot", path=None if path is None else str(path)))

    def reload(self, path: str | None = None) -> dict:
        """Hot-swap the server's service from a snapshot file."""
        return self.request(protocol.build(
            "reload", path=None if path is None else str(path)))

    def checkpoint(self) -> dict:
        """Snapshot to the log's recovery base, then truncate the WAL, on a
        durably-serving server."""
        return self.request(protocol.build("snapshot", checkpoint=True))

    def cluster_status(self) -> dict:
        """Fleet topology of a cluster router (see :mod:`repro.cluster`)."""
        return self.request(protocol.build("cluster_status"))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServiceClient(RequestVerbs):
    """A persistent, pipelining connection to one sketch server."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                 timeout: float | None = 60.0,
                 wire: str = wire_format.WIRE_BINARY,
                 token: str | None = None) -> None:
        if wire not in wire_format.WIRE_FORMATS:
            raise ProtocolError(
                f"wire must be 'binary' or 'ndjson', got {wire!r}")
        self.host = host
        self.port = port
        # ``timeout`` bounds the connect and each reply's read alike.  A
        # blown deadline surfaces as the typed ClientTimeoutError and is
        # never healed by the reconnect-and-resend path — the server may
        # still be processing the first copy.
        self.timeout = timeout
        self.wire = wire
        self.tensors = wire == wire_format.WIRE_BINARY
        self.token = token
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
        except socket.timeout as exc:
            raise ClientTimeoutError(
                f"connect to {self.host}:{self.port} timed out after "
                f"{self.timeout:g}s") from exc
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot connect to {self.host}:{self.port}: {exc}") from exc
        self._sock.settimeout(self.timeout)
        self._reader = self._sock.makefile("rb")
        if self.token is not None:
            # Re-binding on every (re)connect keeps the tenant scope
            # intact across the transparent reconnect path.
            try:
                self.request(protocol.build("auth", token=self.token))
            except BaseException:
                self.close()
                raise

    def _reconnect(self) -> None:
        self.close()
        self._connect()
        self.reconnects += 1

    # -- framing ------------------------------------------------------------------

    def _read_response(self) -> dict:
        try:
            if self.wire == wire_format.WIRE_BINARY:
                return wire_format.read_binary_frame_sync(self._reader)
            line = self._reader.readline(protocol.MAX_LINE_BYTES + 1)
            if not line:
                raise ConnectionLostError("server closed the connection")
            if len(line) > protocol.MAX_LINE_BYTES:
                raise wire_format.FramingLostError(
                    "response line exceeds the frame limit")
            return protocol.decode(line)
        except wire_format.FramingLostError:
            # The stream cannot be split into replies any more: drop it, so
            # the next request reconnects instead of reading garbage.
            self.close()
            raise

    def _send(self, data: bytes) -> None:
        if self._sock.fileno() < 0:
            raise ConnectionLostError("the connection was closed")
        self._sock.sendall(data)

    def _round_trip(self, payload: Mapping[str, Any]) -> dict:
        self._send(wire_format.encode_frame(payload, self.wire))
        return self._read_response()

    def request(self, payload: Mapping[str, Any]) -> dict:
        """One request/response round trip; raises typed errors on failure.

        If the connection drops mid-request and the verb is idempotent
        (:data:`IDEMPOTENT_OPS`), the client reconnects **once** and
        resends; non-idempotent verbs surface the failure so callers can
        decide whether a resend risks double-applying.
        """
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        try:
            response = self._round_trip(payload)
        except socket.timeout as exc:
            # A timed-out request is NOT retried even for idempotent verbs:
            # the deadline is the caller's latency budget, and a resend
            # would silently double it.
            raise ClientTimeoutError(
                f"request {payload.get('op')!r} exceeded the "
                f"{self.timeout:g}s read deadline") from exc
        except _RETRYABLE_ERRORS:
            if payload.get("op") not in IDEMPOTENT_OPS:
                raise
            if deadline is not None and time.monotonic() >= deadline:
                raise ClientTimeoutError(
                    f"request {payload.get('op')!r} exceeded the "
                    f"{self.timeout:g}s deadline before its retry")
            self._reconnect()
            try:
                response = self._round_trip(payload)
            except socket.timeout as exc:
                raise ClientTimeoutError(
                    f"request {payload.get('op')!r} exceeded the "
                    f"{self.timeout:g}s read deadline") from exc
        return protocol.raise_for_response(response)

    def request_many(self, payloads: Sequence[Mapping[str, Any]]
                     ) -> list[dict]:
        """Pipelined round trip: write all requests, then read all replies.

        Raw responses are returned (not raised on), so one ``overloaded``
        reply in a burst does not lose the replies behind it; use
        :func:`repro.server.protocol.raise_for_response` per entry.
        """
        if not payloads:
            return []
        try:
            self._send(b"".join(
                wire_format.encode_frame(p, self.wire) for p in payloads))
            return [self._read_response() for _ in payloads]
        except socket.timeout as exc:
            raise ClientTimeoutError(
                f"pipelined batch of {len(payloads)} requests exceeded the "
                f"{self.timeout:g}s read deadline") from exc

    # -- connection verbs ---------------------------------------------------------

    def auth(self, token: str) -> dict:
        """Bind this connection to the tenant (or admin role) of ``token``.

        The token is remembered so transparent reconnects re-authenticate.
        """
        reply = self.request(protocol.build("auth", token=token))
        self.token = token
        return reply

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServiceClient({self.host!r}, {self.port})"


class InProcessClient(RequestVerbs):
    """The same verbs against a serving front in this process — no
    listener, no socket; what the CLI's ``--snapshot`` verbs talk to.

    Requests are answered with the operator's role
    (:meth:`~repro.server.front.ServingFront.answer`) on a private event
    loop, one at a time; a :meth:`request_many` burst runs concurrently, so
    the coalescer batches it as it would a pipelined connection's — and,
    like one, with at most
    :data:`~repro.server.wire.MAX_INFLIGHT_PER_CONNECTION` requests in
    flight, so a burst of any length stays under the admission cap.
    Closing the client drains and closes the front.
    """

    tensors = True

    def __init__(self, front) -> None:
        self.front = front
        self._loop = asyncio.new_event_loop()

    def request(self, payload: Mapping[str, Any]) -> dict:
        return protocol.raise_for_response(self.request_many([payload])[0])

    def request_many(self, payloads: Sequence[Mapping[str, Any]]
                     ) -> list[dict]:
        window = wire_format.MAX_INFLIGHT_PER_CONNECTION

        async def burst() -> list[dict]:
            replies: list[dict] = []
            for start in range(0, len(payloads), window):
                replies += await asyncio.gather(*(
                    self.front.answer(dict(payload))
                    for payload in payloads[start:start + window]))
            return replies

        return self._loop.run_until_complete(burst())

    def close(self) -> None:
        try:
            self._loop.run_until_complete(self.front.close())
        finally:
            self._loop.close()


def _iter_queries(queries) -> list:
    """Normalise an estimate_many batch into a list of per-query values."""
    if queries is None:
        raise ProtocolError("estimate_many needs a query list or a count")
    if isinstance(queries, int):
        return [None] * queries
    if isinstance(queries, BoxSet):
        return [row for row in protocol.boxes_to_rows(queries)]
    return list(queries)
