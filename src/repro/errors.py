"""Exception types raised by the :mod:`repro` library.

Keeping a small, explicit exception hierarchy lets callers distinguish
user errors (bad parameters, malformed data) from internal invariant
violations without having to parse message strings.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class DomainError(ReproError):
    """A coordinate or domain specification is invalid.

    Raised for negative domain sizes, coordinates outside the declared
    domain, or intervals whose lower endpoint exceeds the upper endpoint.
    """


class DimensionalityError(ReproError):
    """Data of the wrong dimensionality was passed to an operator."""


class SketchConfigError(ReproError):
    """A sketch was configured inconsistently.

    Examples: zero instances, a boosting split that does not divide the
    instance count, or mixing sketches built over different xi families.
    """


class MergeCompatibilityError(SketchConfigError):
    """Two sketches cannot be combined (merged or snapshot-restored).

    Raised when the domains, word sets, instance counts or xi families
    (seeds) of two sketches disagree.  Sketches are linear projections, so
    merging is only meaningful between sketches of the *same* projection;
    anything else would silently produce garbage counters.
    """


class QueryError(SketchConfigError):
    """An estimate request does not fit its estimator.

    A query given to a family that takes none, none (or a count) given to
    one that needs query rectangles, a batch entry of more than one
    rectangle, the wrong dimensionality, a lower endpoint above its upper
    one, or coordinates outside the domain.
    :meth:`repro.core.estimator.SketchEstimator.check_queries` is the one
    place that judges a query, one verdict per row; the service layer
    re-raises it as a :class:`ServiceError` naming the family.
    """


class EstimationError(ReproError):
    """An estimate could not be produced (e.g. empty sketch, no instances)."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""


class EngineError(ReproError):
    """The mini query engine was asked to do something inconsistent."""


class ServiceError(ReproError):
    """The estimation service was misused.

    Examples: registering the same estimator name twice, ingesting into an
    unknown estimator or side, or asking a non-queryable family for a
    range-query estimate.
    """


class SnapshotError(ReproError):
    """A service snapshot is malformed or incompatible with this build."""


class ServerError(ReproError):
    """The network serving layer failed to process a request.

    Raised client-side when a server replies ``ok: false``; the protocol
    error code is preserved in :attr:`code` so callers can branch without
    parsing messages.  A cluster router's worker links also keep the reply
    itself in :attr:`reply`, to pass a worker's verdict on unchanged.
    """

    reply: dict | None = None

    def __init__(self, message: str, *, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


class ProtocolError(ServerError):
    """A network frame could not be parsed (bad JSON, oversized line, EOF)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="protocol")


class ConnectionLostError(ProtocolError):
    """The connection dropped mid-request (EOF or reset between frames).

    Distinguished from other :class:`ProtocolError` cases (malformed JSON,
    oversized frames) because it is the one protocol failure a client may
    transparently retry: reconnect and resend, provided the request was
    idempotent.  :class:`~repro.client.ServiceClient` does exactly that.
    """


class FrameTooLargeError(ServerError):
    """A wire frame exceeded the server's configured size bound.

    Raised client-side when a server answers ``error_code:
    "frame_too_large"``, or when a binary reply is over the client's own
    bound.  Under the binary wire format the frame prefix declares its
    length up front, so the reader drains and rejects the oversized frame
    while keeping the connection usable; under NDJSON the line framing is
    lost and the server closes the connection after replying.
    :attr:`recoverable` records which case applies.
    """

    def __init__(self, message: str, *, recoverable: bool = False) -> None:
        super().__init__(message, code="frame_too_large")
        self.recoverable = recoverable


class DegradedError(ServerError):
    """A cluster request could not be fully served: shard owners are down.

    Raised client-side when a :class:`~repro.cluster.router.ClusterRouter`
    answers with ``error_code: "degraded"`` — some shard owner group has
    no healthy worker, so estimates cannot be reduced (and the ingest rows
    routed to it are dropped).  :attr:`detail` holds the structured report:
    the missing workers and, for ingest, how many boxes were applied to
    surviving shards versus dropped.
    """

    def __init__(self, message: str = "cluster degraded: shard owners down",
                 *, detail: dict | None = None) -> None:
        super().__init__(message, code="degraded")
        self.detail = detail or {}


class OverloadedError(ServerError):
    """The server's admission queue is full; retry later.

    This is the graceful-degradation path: instead of queueing without
    bound (and eventually stalling every connection), the server answers
    immediately with a structured ``overloaded`` error.
    """

    def __init__(self, message: str = "server overloaded: admission queue full"
                 ) -> None:
        super().__init__(message, code="overloaded")


class AuthenticationError(ServerError):
    """A request could not be tied to an authorized principal.

    Two protocol codes share this type: ``auth_required`` (the server is
    tenant-aware and the connection has not completed the ``auth`` step)
    and ``auth_failed`` (the presented token is unknown/disabled, or an
    authenticated tenant asked for an admin-only verb).
    """

    def __init__(self, message: str, *, code: str = "auth_failed") -> None:
        super().__init__(message, code=code)


class QuotaExceededError(ServerError):
    """A tenant exhausted an admission quota; retry after a hint interval.

    Unlike :class:`OverloadedError` (the *server* is saturated), this is a
    per-tenant verdict: the tenant's ingest token bucket ran dry or its
    estimates-in-flight cap is reached.  :attr:`retry_after` carries the
    bucket's refill estimate in seconds (0.0 when unknown) so well-behaved
    clients can back off precisely instead of hammering.
    """

    def __init__(self, message: str = "tenant quota exceeded",
                 *, retry_after: float = 0.0) -> None:
        super().__init__(message, code="quota_exceeded")
        self.retry_after = float(retry_after)


class ClientTimeoutError(ServerError):
    """A client-side connect or read deadline expired.

    Raised only by :class:`~repro.client.ServiceClient` — never sent on the
    wire.  Timeouts are deliberately *not* retried by the idempotent-op
    retry path: the request may still be executing server-side, and the
    caller asked for a bounded wait, not a doubled one.
    """

    def __init__(self, message: str = "client deadline expired") -> None:
        super().__init__(message, code="timeout")
