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


def metric_line(metric: str, value, /, **labels) -> str:
    """One exposition line, ``metric{label="value",...} value``.

    Floats print with three decimals, counters as they are; labels keep the
    order they are given in.
    """
    if labels:
        metric += "{" + ",".join(f'{key}="{label_value(str(label))}"'
                                 for key, label in labels.items()) + "}"
    if isinstance(value, float):
        return f"{metric} {value:.3f}"
    return f"{metric} {value}"


def sign_table_lines(prefix: str, stats: Mapping) -> list[str]:
    """Exposition lines for a :func:`repro.core.hashing.sign_table_stats`.

    Live tables and their bytes are gauges; builds and directly hashed ids
    only ever grow and carry the ``_total`` suffix.
    """
    return [metric_line(
        prefix + key + ("" if key in ("sign_tables", "sign_table_bytes")
                        else "_total"), value)
        for key, value in stats.items()]


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

    def record_estimate_latency(self, seconds: float,
                                tenant: str | None = None) -> None:
        sample = (time.monotonic(), seconds)
        self._samples.append(sample)
        if tenant is not None:
            self._tenant(tenant).samples.append(sample)

    # -- per-tenant recording -----------------------------------------------------

    def _tenant(self, tenant: str) -> TenantCounters:
        counters = self.tenants.get(tenant)
        if counters is None:
            counters = self.tenants[tenant] = TenantCounters(window=self._window)
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

    def front_lines(self, prefix: str, *, tenant_ops: bool) -> list[str]:
        """Exposition lines for what every serving front counts.

        A server renders them as ``repro_server_*``, a cluster router as
        ``repro_cluster_*``.  Families stay contiguous (Prometheus requires
        it) and per-tenant series have metric names of their own, so a
        ``sum()`` over an aggregate never double-counts them.  ``tenant_ops``
        says whether ``tenant_requests_total`` is labelled per op (a server)
        or is one total per tenant (a router).
        """
        lines = [metric_line(f"{prefix}uptime_seconds", self.uptime),
                 metric_line(f"{prefix}connections_opened_total",
                             self.connections_opened),
                 metric_line(f"{prefix}connections_active",
                             self.connections_active)]
        lines += [metric_line(f"{prefix}requests_total", count, op=op)
                  for op, count in sorted(self.requests.items())]
        lines += [metric_line(f"{prefix}errors_total", count, code=code)
                  for code, count in sorted(self.errors.items())]
        for family in ("frames", "bytes"):
            for format, counters in sorted(self.wire.items()):
                for direction in ("in", "out"):
                    lines.append(metric_line(
                        f"{prefix}wire_{family}_total",
                        getattr(counters, f"{family}_{direction}"),
                        format=format, direction=direction))
        lines.append(metric_line(f"{prefix}estimate_qps", self.estimate_qps()))
        for q, seconds in sorted(self.latency_quantiles().items()):
            lines.append(metric_line(f"{prefix}estimate_latency_ms",
                                     seconds * 1000.0, quantile=q))
        tenants = self.tenant_state()
        for tenant, state in tenants.items():
            if tenant_ops:
                lines += [metric_line(f"{prefix}tenant_requests_total", count,
                                      tenant=tenant, op=op)
                          for op, count in state["by_op"].items()]
            else:
                lines.append(metric_line(f"{prefix}tenant_requests_total",
                                         state["requests"], tenant=tenant))
        for key, family in (("errors", "tenant_errors_total"),
                            ("quota_rejections", "tenant_quota_rejected_total"),
                            ("estimate_qps", "tenant_estimate_qps")):
            lines += [metric_line(prefix + family, state[key], tenant=tenant)
                      for tenant, state in tenants.items()]
        for tenant, state in tenants.items():
            for q, key in ((0.5, "estimate_p50_ms"), (0.99, "estimate_p99_ms")):
                lines.append(metric_line(
                    f"{prefix}tenant_estimate_latency_ms", state[key],
                    tenant=tenant, quantile=q))
        return lines

    def render_text(self, *, service_stats: ServiceStats,
                    coalescer_stats: CoalescerStats, queue_depth: int,
                    executor_stats: Mapping, sign_tables: Mapping) -> str:
        """The plain-text exposition a server's ``metrics`` verb serves.

        ``executor_stats`` is a
        :meth:`~repro.core.program.ExecutorStats.as_dict` snapshot, rendered
        as the ``repro_server_program_*`` family.  ``sign_tables`` is
        :func:`repro.core.hashing.sign_table_stats`: the process's interned
        xi sign tables, the bytes they (and the cover-sum tables derived
        from them) hold, and the running totals of table builds and
        directly hashed ids.
        """
        coalesce = coalescer_stats
        lines = ["# repro sketch server metrics",
                 *self.front_lines("repro_server_", tenant_ops=True)]
        lines += [metric_line(f"repro_server_{metric}", value) for metric, value in (
            ("reloads_total", self.reloads),
            ("queue_depth", queue_depth),
            ("coalesce_batches_total", coalesce.batches),
            ("coalesced_queries_total", coalesce.batched_queries),
            ("coalesce_rejected_total", coalesce.rejected),
            ("coalesce_factor", coalesce.coalesce_factor),
            ("coalesce_cross_estimator_dispatches_total",
             coalesce.cross_dispatches))]
        # Per-estimator (and per-tenant) coalescing again under metric names
        # of their own, one contiguous family each.
        per_estimator = sorted(coalesce.per_estimator.items())
        for family, field in (("coalesced_queries_total", "queries"),
                              ("coalesce_dispatches_total", "dispatches"),
                              ("coalesce_factor", "coalesce_factor")):
            lines += [metric_line(f"repro_server_estimator_{family}",
                                  getattr(per, field), name=name)
                      for name, per in per_estimator]
        lines += [metric_line("repro_server_tenant_coalesced_queries_total",
                              per.queries, tenant=tenant)
                  for tenant, per in sorted(coalesce.per_tenant.items())]
        stats = service_stats
        cache_reads = stats.cache_hits + stats.cache_misses
        lines += [metric_line(metric, value) for metric, value in (
            ("repro_service_cache_hit_rate",
             stats.cache_hits / cache_reads if cache_reads else 0.0),
            ("repro_service_view_evictions_total", stats.evictions),
            ("repro_service_estimates_total", stats.estimates),
            ("repro_service_batch_estimates_total", stats.batch_estimates),
            ("repro_service_coalesced_queries_total", stats.coalesced_queries),
            ("repro_service_ingested_boxes_total", stats.ingested_boxes),
            # Delta propagation: every cache miss is resolved either by an
            # O(delta) apply onto the previous cached view or by a full
            # shard re-merge — the two totals below sum to the miss count.
            ("repro_server_delta_applies_total", stats.delta_applies),
            ("repro_server_view_rebuilds_total", stats.rebuilds))]
        lines += [metric_line(f"repro_server_program_{key}", value)
                  for key, value in sorted(executor_stats.items())]
        lines += sign_table_lines("repro_server_", sign_tables)
        return "\n".join(lines) + "\n"
