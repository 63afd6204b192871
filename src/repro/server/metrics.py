"""Serving-side metrics: one registry of exposition families.

Every series a serving front exports is declared once, in :data:`FAMILIES`:
its name, kind, label keys, the stats object that owns its value
(:class:`ServerMetrics`, the coalescer's
:class:`~repro.server.coalescer.CoalescerStats`, the service's
:class:`~repro.service.service.ServiceStats`,
:class:`~repro.core.program.ExecutorStats` and
:class:`~repro.service.ingest.IngestStats`,
:func:`~repro.core.hashing.sign_table_stats`, a router's fleet) and the
name a cluster router writes the fleet's sum under.  Three functions use
the table: :func:`samples` reads ``[name, labels, value]`` triples from the
stats objects a process has, :func:`render` writes triples as the
Prometheus-style plain text of the ``metrics`` verb, and :func:`fold` sums
many processes' triples by name and labels.  A worker's ``metrics`` reply
carries its triples, so a router reduces its fleet's counters the way it
reduces their sketches: they add.

:class:`ServerMetrics` is mutated only from the event-loop thread (request
accounting happens in the connection handlers), so it needs no locking.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Any, Callable, Iterable

from repro.core.program import ExecutorStats
from repro.server.wire import WIRE_FORMATS

#: How many recent estimate latencies back the quantiles and the qps gauge.
SAMPLE_WINDOW = 4096
#: Seconds of recent estimates the qps gauge counts.
QPS_WINDOW_S = 30.0

COUNTER, GAUGE = "counter", "gauge"


def latency_ms(latencies: Iterable[tuple[float, float]]) -> dict[float, float]:
    """Nearest-rank p50 / p99 of a latency window, in milliseconds (0 for an
    empty window)."""
    ordered = sorted(seconds for _, seconds in latencies) or [0.0]
    return {q: ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1000.0
            for q in (0.5, 0.99)}


class TenantCounters:
    """Per-tenant traffic accounting on one server (event-loop thread only)."""

    __slots__ = ("requests", "errors", "quota_rejections", "latencies")

    def __init__(self, *, window: int = SAMPLE_WINDOW) -> None:
        self.requests: Counter[str] = Counter()
        self.errors = 0
        self.quota_rejections = 0
        # (monotonic completion time, latency seconds) of recent estimates.
        self.latencies: deque[tuple[float, float]] = deque(maxlen=window)


class ServerMetrics:
    """Counters and latency samples of one running server."""

    def __init__(self) -> None:
        self.started_at = time.monotonic()
        self.requests: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.connections_opened = 0
        self.connections_active = 0
        self.reloads = 0
        # Per-format frame/byte totals: format -> {frames_in, bytes_in, ...}.
        self.wire: dict[str, dict[str, int]] = {
            format: dict.fromkeys(("frames_in", "bytes_in", "frames_out",
                                   "bytes_out"), 0)
            for format in WIRE_FORMATS}
        # (monotonic completion time, latency seconds) of recent estimates.
        self.latencies: deque[tuple[float, float]] = deque(maxlen=SAMPLE_WINDOW)
        # Per-tenant request/error/latency accounting ({tenant=...} labels).
        self.tenants: dict[str, TenantCounters] = {}

    # -- recording ----------------------------------------------------------------

    def record_request(self, op: str) -> None:
        self.requests[op or "unknown"] += 1

    def record_error(self, code: str) -> None:
        self.errors[code or "error"] += 1

    def record_wire(self, format: str, direction: str, nbytes: int) -> None:
        """One frame of ``nbytes`` read (``"in"``) or written (``"out"``)."""
        counters = self.wire[format]
        counters[f"frames_{direction}"] += 1
        counters[f"bytes_{direction}"] += int(nbytes)

    def wire_state(self) -> dict[str, dict[str, int]]:
        """The per-format totals as plain JSON (stats/metrics payloads)."""
        return {format: dict(counters)
                for format, counters in sorted(self.wire.items())}

    def record_estimate_latency(self, seconds: float,
                                tenant: str | None = None) -> None:
        sample = (time.monotonic(), seconds)
        self.latencies.append(sample)
        if tenant is not None:
            self._tenant(tenant).latencies.append(sample)

    # -- per-tenant recording -----------------------------------------------------

    def _tenant(self, tenant: str) -> TenantCounters:
        counters = self.tenants.get(tenant)
        if counters is None:
            counters = self.tenants[tenant] = TenantCounters()
        return counters

    def record_tenant_request(self, tenant: str, op: str) -> None:
        self._tenant(tenant).requests[op or "unknown"] += 1

    def record_tenant_error(self, tenant: str, code: str) -> None:
        counters = self._tenant(tenant)
        counters.errors += 1
        if code == "quota_exceeded":
            counters.quota_rejections += 1

    def tenant_state(self, tenant: str | None = None) -> dict:
        """Per-tenant qps/p50/p99/quota-reject block for ``stats``/``metrics``.

        With ``tenant`` given, only that tenant's block is returned (the
        scoped ``stats`` a tenant connection sees).
        """
        names = ([tenant] if tenant is not None else sorted(self.tenants))
        state: dict[str, dict] = {}
        for name in names:
            counters = self.tenants.get(name) or TenantCounters(window=1)
            latency = latency_ms(counters.latencies)
            state[name] = {
                "requests": sum(counters.requests.values()),
                "by_op": dict(sorted(counters.requests.items())),
                "errors": counters.errors,
                "quota_rejections": counters.quota_rejections,
                "estimate_qps": self.estimate_qps(counters.latencies),
                "estimate_p50_ms": latency[0.5],
                "estimate_p99_ms": latency[0.99],
            }
        return state

    # -- derived gauges -----------------------------------------------------------

    @property
    def uptime(self) -> float:
        return time.monotonic() - self.started_at

    def estimate_qps(self, latencies: "deque | None" = None) -> float:
        """Estimates per second over the last :data:`QPS_WINDOW_S` seconds,
        of this front or of one tenant's ``latencies``.

        The horizon is clamped to the uptime and — when the sample deque
        has wrapped — to the age of the oldest *retained* sample, so a
        busy server (more than ``maxlen`` estimates inside the window)
        reports its true rate instead of ``maxlen / QPS_WINDOW_S``.
        """
        latencies = self.latencies if latencies is None else latencies
        if not latencies:
            return 0.0
        now = time.monotonic()
        horizon = min(QPS_WINDOW_S, max(self.uptime, 1e-9))
        if len(latencies) == latencies.maxlen:
            oldest_age = now - latencies[0][0]
            horizon = min(horizon, max(oldest_age, 1e-9))
        recent = sum(1 for when, _ in latencies if now - when <= horizon)
        return recent / horizon


# -- the registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One exposition family, declared once.

    ``name`` is written under the placement's prefix (``repro_server_``,
    ``repro_cluster_``) unless it is already rooted at ``repro_``.
    ``read`` takes the ``source`` object — an attribute name, or a callable
    that returns the value, for a labelled family ``(label values, value)``
    pairs.  ``router`` is the name a router writes the fleet's sum under
    (``None``: a value of the process that holds it, never summed).
    """

    name: str
    kind: str
    source: str
    read: str | Callable[[Any], Any]
    labels: tuple[str, ...] = ()
    router: str | None = None


def _wire(unit: str):
    return lambda metrics: [((format, way), counters[f"{unit}_{way}"])
                            for format, counters in sorted(metrics.wire.items())
                            for way in ("in", "out")]


def _per_tenant(key: str):
    return lambda metrics: [(tenant, state[key]) for tenant, state
                            in metrics.tenant_state().items()]


def _coalesced(group: str, field: str):
    return lambda stats: [(key, getattr(per, field)) for key, per
                          in sorted(getattr(stats, group).items())]


FAMILIES: dict[str, Family] = {family.name: family for family in (
    # What every serving front counts (ServerMetrics).
    Family("uptime_seconds", GAUGE, "front", "uptime"),
    Family("connections_opened_total", COUNTER, "front", "connections_opened"),
    Family("connections_active", GAUGE, "front", "connections_active"),
    Family("requests_total", COUNTER, "front",
           lambda m: sorted(m.requests.items()), ("op",),
           router="worker_requests_total"),
    Family("errors_total", COUNTER, "front",
           lambda m: sorted(m.errors.items()), ("code",)),
    Family("wire_frames_total", COUNTER, "front", _wire("frames"),
           ("format", "direction")),
    Family("wire_bytes_total", COUNTER, "front", _wire("bytes"),
           ("format", "direction"), router="worker_wire_bytes_total"),
    Family("estimate_qps", GAUGE, "front", lambda m: m.estimate_qps()),
    Family("estimate_latency_ms", GAUGE, "front",
           lambda m: latency_ms(m.latencies).items(), ("quantile",)),
    # Per-tenant series have names of their own, so a sum() over an
    # aggregate never counts them twice.
    Family("tenant_requests_total", COUNTER, "front",
           lambda m: [((tenant, op), count)
                      for tenant, state in m.tenant_state().items()
                      for op, count in state["by_op"].items()],
           ("tenant", "op")),
    Family("tenant_errors_total", COUNTER, "front", _per_tenant("errors"),
           ("tenant",)),
    Family("tenant_quota_rejected_total", COUNTER, "front",
           _per_tenant("quota_rejections"), ("tenant",)),
    Family("tenant_estimate_qps", GAUGE, "front", _per_tenant("estimate_qps"),
           ("tenant",)),
    Family("tenant_estimate_latency_ms", GAUGE, "front",
           lambda m: [((tenant, q), ms)
                      for tenant, counters in sorted(m.tenants.items())
                      for q, ms in latency_ms(counters.latencies).items()],
           ("tenant", "quantile")),
    # A server's reloads and request coalescer (CoalescerStats).
    Family("reloads_total", COUNTER, "server", lambda s: s.metrics.reloads),
    Family("queue_depth", GAUGE, "server", lambda s: s.coalescer.queue_depth),
    Family("coalesce_submitted_total", COUNTER, "coalescer", "submitted",
           router="coalesce_submitted_total"),
    Family("coalesce_batches_total", COUNTER, "coalescer", "batches"),
    Family("coalesced_queries_total", COUNTER, "coalescer", "batched_queries"),
    Family("coalesce_rejected_total", COUNTER, "coalescer", "rejected"),
    Family("coalesce_factor", GAUGE, "coalescer", "coalesce_factor"),
    Family("coalesce_cross_estimator_dispatches_total", COUNTER, "coalescer",
           "cross_dispatches"),
    # What set each batch off: max_batch reached, or max_delay ran out.
    Family("coalesce_size_dispatches_total", COUNTER, "coalescer",
           "size_dispatches", router="coalesce_size_dispatches_total"),
    Family("coalesce_timer_dispatches_total", COUNTER, "coalescer",
           "timer_dispatches", router="coalesce_timer_dispatches_total"),
    # A maximum, which does not add across a fleet.
    Family("coalesce_largest_batch", GAUGE, "coalescer", "largest_batch"),
    Family("estimator_coalesced_queries_total", COUNTER, "coalescer",
           _coalesced("per_estimator", "queries"), ("name",)),
    Family("estimator_coalesce_dispatches_total", COUNTER, "coalescer",
           _coalesced("per_estimator", "dispatches"), ("name",)),
    Family("estimator_coalesce_factor", GAUGE, "coalescer",
           _coalesced("per_estimator", "coalesce_factor"), ("name",)),
    Family("tenant_coalesced_queries_total", COUNTER, "coalescer",
           _coalesced("per_tenant", "queries"), ("tenant",)),
    # The service behind a server (ServiceStats, IngestStats).
    Family("repro_service_cache_hit_rate", GAUGE, "service",
           lambda s: s.cache_hits / max(s.cache_hits + s.cache_misses, 1)),
    Family("repro_service_view_evictions_total", COUNTER, "service",
           "evictions", router="view_evictions_total"),
    Family("repro_service_estimates_total", COUNTER, "service", "estimates"),
    Family("repro_service_batch_estimates_total", COUNTER, "service",
           "batch_estimates"),
    Family("repro_service_coalesced_queries_total", COUNTER, "service",
           "coalesced_queries"),
    Family("repro_service_ingested_boxes_total", COUNTER, "service",
           "ingested_boxes"),
    Family("repro_service_flushed_batches_total", COUNTER, "ingest",
           "flushed_batches", router="flushed_batches_total"),
    # Every cache miss is resolved by an O(delta) apply onto the previous
    # view or by a full shard re-merge: the two totals sum to the misses.
    Family("delta_applies_total", COUNTER, "service", "delta_applies",
           router="delta_applies_total"),
    Family("view_rebuilds_total", COUNTER, "service", "rebuilds",
           router="view_rebuilds_total"),
    # The program executor (ExecutorStats), one family per counter.
    *(Family(f"program_{field.name}", COUNTER, "program", field.name,
             router=f"program_{field.name}") for field in fields(ExecutorStats)),
    # The process's interned xi sign tables (sign_table_stats()): live
    # tables and their bytes, then running totals.
    *(Family(key + suffix, kind, "xi", itemgetter(key), router=key + suffix)
      for key, kind, suffix in (("sign_tables", GAUGE, ""),
                                ("sign_table_bytes", GAUGE, ""),
                                ("sign_table_builds", COUNTER, "_total"),
                                ("sign_table_build_seconds", COUNTER, "_total"),
                                ("direct_hash_ids", COUNTER, "_total"))),
    # A router's fleet: its workers and the metrics replies they gave.
    Family("workers_total", GAUGE, "fleet", lambda f: len(f.workers)),
    Family("workers_healthy", GAUGE, "fleet",
           lambda f: sum(info.healthy for info in f.workers)),
    Family("worker_uptime_seconds", GAUGE, "fleet",
           lambda f: [(name, reply["uptime"])
                      for name, reply in sorted(f.replies.items())],
           ("worker",)),
)}


def samples(**sources: Any) -> list[list]:
    """``[name, labels, value]`` of every family whose source is given,
    in declaration order (``labels`` maps the label keys to strings)."""
    found: list[list] = []
    for family in FAMILIES.values():
        if family.source not in sources:
            continue
        source = sources[family.source]
        value = (getattr(source, family.read) if isinstance(family.read, str)
                 else family.read(source))
        for key, each in value if family.labels else [((), value)]:
            key = key if isinstance(key, tuple) else (key,)
            found.append([family.name,
                          dict(zip(family.labels, map(str, key))), each])
    return found


def render(prefix: str, samples: Iterable[list]) -> str:
    """The text exposition of ``samples``, one ``name{labels} value`` line
    each and every family contiguous (the text format requires it).  Floats
    print with three decimals, counts as they are."""
    families: dict[str, list[str]] = {}
    for name, labels, value in samples:
        name = name if name.startswith("repro_") else prefix + name
        series = name
        if labels:
            series += "{" + ",".join(
                f'{key}="{_escape(label)}"' for key, label in labels.items()
            ) + "}"
        families.setdefault(name, []).append(
            f"{series} {value:.3f}" if isinstance(value, float)
            else f"{series} {value}")
    return "".join(f"{line}\n" for lines in families.values() for line in lines)


def fold(fleet: Iterable[Iterable[list]]) -> list[list]:
    """Many processes' samples summed by name and labels, each under its
    family's router name; families without one are left out."""
    total: dict[tuple, Any] = {}
    for process in fleet:
        for name, labels, value in process:
            family = FAMILIES.get(name)
            if family is not None and family.router is not None:
                key = (family.router, tuple(labels.items()))
                total[key] = total.get(key, 0) + value
    return [[name, dict(labels), value]
            for (name, labels), value in sorted(total.items())]


def _escape(label: str) -> str:
    """A string made safe inside a quoted label value."""
    return label.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
