"""Serving-side metrics: request counters, latency quantiles, coalesce factors.

:class:`ServerMetrics` is mutated only from the event-loop thread (request
accounting happens in the connection handlers), so it needs no locking.
The ``metrics`` protocol verb renders it — together with an atomic
:class:`~repro.service.service.ServiceStats` copy and the coalescer
counters — as a Prometheus-style plain-text exposition.  Coalescing is
reported both in aggregate and per estimator (labelled
``repro_server_estimator_coalesce_factor{name=...}`` gauges), alongside
the cross-estimator dispatch count of the shared request bucket.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from typing import Mapping

from repro.server.coalescer import CoalescerStats
from repro.service.service import ServiceStats

#: How many recent estimate latencies back the quantiles and the qps gauge.
SAMPLE_WINDOW = 4096


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]


def label_value(value: str) -> str:
    """Escape a string for use inside a Prometheus label value."""
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def sign_table_lines(prefix: str, stats: Mapping) -> list[str]:
    """Exposition lines for a :func:`repro.core.hashing.sign_table_stats`.

    Live tables and their bytes are gauges; builds and directly hashed ids
    only ever grow and carry the ``_total`` suffix.
    """
    lines = []
    for key, value in stats.items():
        suffix = "" if key in ("sign_tables", "sign_table_bytes") else "_total"
        lines.append(f"{prefix}{key}{suffix} {value}")
    return lines


class WireCounters:
    """Frame and byte totals of one wire format on one server."""

    __slots__ = ("frames_in", "bytes_in", "frames_out", "bytes_out")

    def __init__(self) -> None:
        self.frames_in = 0
        self.bytes_in = 0
        self.frames_out = 0
        self.bytes_out = 0

    def as_dict(self) -> dict[str, int]:
        return {"frames_in": self.frames_in, "bytes_in": self.bytes_in,
                "frames_out": self.frames_out, "bytes_out": self.bytes_out}


class TenantCounters:
    """Per-tenant traffic accounting on one server (event-loop thread only)."""

    __slots__ = ("requests", "errors", "quota_rejections", "samples")

    def __init__(self, *, window: int = SAMPLE_WINDOW) -> None:
        self.requests: Counter[str] = Counter()
        self.errors = 0
        self.quota_rejections = 0
        # (monotonic completion time, latency seconds) of recent estimates.
        self.samples: deque[tuple[float, float]] = deque(maxlen=window)


class ServerMetrics:
    """Counters and latency samples of one running server."""

    def __init__(self, *, window: int = SAMPLE_WINDOW) -> None:
        self.started_at = time.monotonic()
        self.requests: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.connections_opened = 0
        self.connections_active = 0
        self.reloads = 0
        # Per-format frame/byte totals ("ndjson" / "binary").
        self.wire: dict[str, WireCounters] = {}
        # (monotonic completion time, latency seconds) of recent estimates.
        self._samples: deque[tuple[float, float]] = deque(maxlen=window)
        self._window = int(window)
        # Per-tenant request/error/latency accounting ({tenant=...} labels).
        self.tenants: dict[str, TenantCounters] = {}

    # -- recording ----------------------------------------------------------------

    def record_request(self, op: str) -> None:
        self.requests[op or "unknown"] += 1

    def record_error(self, code: str) -> None:
        self.errors[code or "error"] += 1

    def record_wire_in(self, format: str, nbytes: int) -> None:
        counters = self.wire.setdefault(format, WireCounters())
        counters.frames_in += 1
        counters.bytes_in += int(nbytes)

    def record_wire_out(self, format: str, nbytes: int) -> None:
        counters = self.wire.setdefault(format, WireCounters())
        counters.frames_out += 1
        counters.bytes_out += int(nbytes)

    def wire_state(self) -> dict[str, dict[str, int]]:
        """The per-format totals as plain JSON (stats/metrics payloads)."""
        return {format: counters.as_dict()
                for format, counters in sorted(self.wire.items())}

    def record_estimate_latency(self, seconds: float) -> None:
        self._samples.append((time.monotonic(), seconds))

    # -- per-tenant recording -----------------------------------------------------

    def _tenant(self, tenant: str) -> TenantCounters:
        counters = self.tenants.get(tenant)
        if counters is None:
            counters = self.tenants[tenant] = TenantCounters(window=self._window)
        return counters

    def record_tenant_request(self, tenant: str, op: str) -> None:
        self._tenant(tenant).requests[op or "unknown"] += 1

    def record_tenant_error(self, tenant: str) -> None:
        self._tenant(tenant).errors += 1

    def record_quota_rejection(self, tenant: str) -> None:
        counters = self._tenant(tenant)
        counters.errors += 1
        counters.quota_rejections += 1

    def record_tenant_latency(self, tenant: str, seconds: float) -> None:
        self._tenant(tenant).samples.append((time.monotonic(), seconds))

    def tenant_state(self, tenant: str | None = None) -> dict:
        """Per-tenant qps/p50/p99/quota-reject block for ``stats``/``metrics``.

        With ``tenant`` given, only that tenant's block is returned (the
        scoped ``stats`` a tenant connection sees).
        """
        names = ([tenant] if tenant is not None else sorted(self.tenants))
        state: dict[str, dict] = {}
        for name in names:
            counters = self.tenants.get(name)
            if counters is None:
                counters = TenantCounters(window=1)
            ordered = sorted(latency for _, latency in counters.samples)
            state[name] = {
                "requests": sum(counters.requests.values()),
                "by_op": dict(sorted(counters.requests.items())),
                "errors": counters.errors,
                "quota_rejections": counters.quota_rejections,
                "estimate_qps": self._sample_qps(counters.samples),
                "estimate_p50_ms": quantile(ordered, 0.5) * 1000.0,
                "estimate_p99_ms": quantile(ordered, 0.99) * 1000.0,
            }
        return state

    # -- derived gauges -----------------------------------------------------------

    @property
    def uptime(self) -> float:
        return time.monotonic() - self.started_at

    def latency_quantiles(self, qs: tuple[float, ...] = (0.5, 0.99)
                          ) -> dict[float, float]:
        ordered = sorted(latency for _, latency in self._samples)
        return {q: quantile(ordered, q) for q in qs}

    def estimate_qps(self, window: float = 30.0) -> float:
        """Estimates per second over the recent window.

        The horizon is clamped to the uptime and — when the sample deque
        has wrapped — to the age of the oldest *retained* sample, so a
        busy server (more than ``maxlen`` estimates inside the window)
        reports its true rate instead of ``maxlen / window``.
        """
        return self._sample_qps(self._samples, window)

    def _sample_qps(self, samples: "deque[tuple[float, float]]",
                    window: float = 30.0) -> float:
        if not samples:
            return 0.0
        now = time.monotonic()
        horizon = min(window, max(self.uptime, 1e-9))
        if len(samples) == samples.maxlen:
            oldest_age = now - samples[0][0]
            horizon = min(horizon, max(oldest_age, 1e-9))
        recent = sum(1 for when, _ in samples if now - when <= horizon)
        return recent / horizon

    # -- rendering ----------------------------------------------------------------

    def render_text(self, *, service_stats: ServiceStats,
                    coalescer_stats: CoalescerStats,
                    queue_depth: int,
                    executor_stats: dict | None = None,
                    sign_tables: dict | None = None) -> str:
        """The plain-text exposition served by the ``metrics`` verb.

        ``executor_stats`` is a
        :meth:`~repro.core.program.ExecutorStats.as_dict` snapshot; when
        given, it is rendered as the ``repro_server_program_*`` family.
        ``sign_tables`` is :func:`repro.core.hashing.sign_table_stats`:
        the process's interned xi sign tables, the bytes they (and the
        cover-sum tables derived from them) hold, and the running totals
        of table builds and directly hashed ids.
        """
        lines = ["# repro sketch server metrics",
                 f"repro_server_uptime_seconds {self.uptime:.3f}",
                 f"repro_server_connections_opened_total {self.connections_opened}",
                 f"repro_server_connections_active {self.connections_active}",
                 f"repro_server_reloads_total {self.reloads}"]
        for op in sorted(self.requests):
            lines.append(f'repro_server_requests_total{{op="{label_value(op)}"}} '
                         f"{self.requests[op]}")
        for code in sorted(self.errors):
            lines.append(f'repro_server_errors_total{{code="{label_value(code)}"}} '
                         f"{self.errors[code]}")
        # Wire-format traffic: one frames family, one bytes family, both
        # labelled by format and direction (families stay contiguous).
        for format in sorted(self.wire):
            counters = self.wire[format]
            for direction, count in (("in", counters.frames_in),
                                     ("out", counters.frames_out)):
                lines.append(
                    "repro_server_wire_frames_total"
                    f'{{format="{label_value(format)}",'
                    f'direction="{direction}"}} {count}')
        for format in sorted(self.wire):
            counters = self.wire[format]
            for direction, count in (("in", counters.bytes_in),
                                     ("out", counters.bytes_out)):
                lines.append(
                    "repro_server_wire_bytes_total"
                    f'{{format="{label_value(format)}",'
                    f'direction="{direction}"}} {count}')
        quantiles = self.latency_quantiles()
        lines.append(f"repro_server_estimate_qps {self.estimate_qps():.3f}")
        for q, seconds in sorted(quantiles.items()):
            lines.append(f'repro_server_estimate_latency_ms{{quantile="{q}"}} '
                         f"{seconds * 1000.0:.3f}")
        lines.append(f"repro_server_queue_depth {queue_depth}")
        lines.append(
            f"repro_server_coalesce_batches_total {coalescer_stats.batches}")
        lines.append("repro_server_coalesced_queries_total "
                     f"{coalescer_stats.batched_queries}")
        lines.append("repro_server_coalesce_rejected_total "
                     f"{coalescer_stats.rejected}")
        lines.append(
            f"repro_server_coalesce_factor {coalescer_stats.coalesce_factor:.3f}")
        lines.append("repro_server_coalesce_cross_estimator_dispatches_total "
                     f"{coalescer_stats.cross_dispatches}")
        # Per-estimator series use their own metric names (never the
        # aggregate ones above): Prometheus metric families must be
        # contiguous, and sharing a name would double-count on sum().
        ordered = sorted(coalescer_stats.per_estimator)
        for name in ordered:
            per = coalescer_stats.per_estimator[name]
            lines.append(
                "repro_server_estimator_coalesced_queries_total"
                f'{{name="{label_value(name)}"}} {per.queries}')
        for name in ordered:
            per = coalescer_stats.per_estimator[name]
            lines.append(
                "repro_server_estimator_coalesce_dispatches_total"
                f'{{name="{label_value(name)}"}} {per.dispatches}')
        for name in ordered:
            per = coalescer_stats.per_estimator[name]
            lines.append(
                "repro_server_estimator_coalesce_factor"
                f'{{name="{label_value(name)}"}} {per.coalesce_factor:.3f}')
        # Per-tenant families ({tenant=...} labels): again their own metric
        # names so each family is contiguous and never double-counts the
        # aggregates above.
        tenant_names = sorted(self.tenants)
        for tenant in tenant_names:
            counters = self.tenants[tenant]
            for op in sorted(counters.requests):
                lines.append(
                    "repro_server_tenant_requests_total"
                    f'{{tenant="{label_value(tenant)}",op="{label_value(op)}"}} '
                    f"{counters.requests[op]}")
        for tenant in tenant_names:
            lines.append(
                "repro_server_tenant_errors_total"
                f'{{tenant="{label_value(tenant)}"}} '
                f"{self.tenants[tenant].errors}")
        for tenant in tenant_names:
            lines.append(
                "repro_server_tenant_quota_rejected_total"
                f'{{tenant="{label_value(tenant)}"}} '
                f"{self.tenants[tenant].quota_rejections}")
        for tenant in tenant_names:
            lines.append(
                "repro_server_tenant_estimate_qps"
                f'{{tenant="{label_value(tenant)}"}} '
                f"{self._sample_qps(self.tenants[tenant].samples):.3f}")
        for tenant in tenant_names:
            ordered = sorted(latency
                             for _, latency in self.tenants[tenant].samples)
            for q in (0.5, 0.99):
                lines.append(
                    "repro_server_tenant_estimate_latency_ms"
                    f'{{tenant="{label_value(tenant)}",quantile="{q}"}} '
                    f"{quantile(ordered, q) * 1000.0:.3f}")
        for tenant in sorted(coalescer_stats.per_tenant):
            per = coalescer_stats.per_tenant[tenant]
            lines.append(
                "repro_server_tenant_coalesced_queries_total"
                f'{{tenant="{label_value(tenant)}"}} {per.queries}')
        cache_reads = service_stats.cache_hits + service_stats.cache_misses
        hit_rate = service_stats.cache_hits / cache_reads if cache_reads else 0.0
        lines.append(f"repro_service_cache_hit_rate {hit_rate:.3f}")
        lines.append(
            f"repro_service_view_evictions_total {service_stats.evictions}")
        lines.append(f"repro_service_estimates_total {service_stats.estimates}")
        lines.append(
            f"repro_service_batch_estimates_total {service_stats.batch_estimates}")
        lines.append("repro_service_coalesced_queries_total "
                     f"{service_stats.coalesced_queries}")
        lines.append(
            f"repro_service_ingested_boxes_total {service_stats.ingested_boxes}")
        # Delta propagation: every cache miss is resolved either by an
        # O(delta) apply onto the previous cached view or by a full shard
        # re-merge — the two totals below sum to the miss count.
        lines.append(
            f"repro_server_delta_applies_total {service_stats.delta_applies}")
        lines.append(
            f"repro_server_view_rebuilds_total {service_stats.rebuilds}")
        if executor_stats is not None:
            for key in sorted(executor_stats):
                lines.append(f"repro_server_program_{key} {executor_stats[key]}")
        if sign_tables is not None:
            lines.extend(sign_table_lines("repro_server_", sign_tables))
        return "\n".join(lines) + "\n"
