"""Noisy-neighbor benchmark: fair-share serving keeps a tenant's p99 flat.

The perf-regression gate of the multi-tenant serving layer: a
well-behaved tenant (``steady``) drives a fixed pipelined estimate
workload twice against a token-authenticated server —

* **solo** — the steady tenant has the server to itself, and
* **contended** — a second tenant (``noisy``) simultaneously floods the
  server with 4x the request volume,

and the steady tenant's own p99 (scraped from its ``{tenant="steady"}``
latency series, the numbers an operator would alert on) must stay within
**1.5x** of its solo baseline.  Two tenancy mechanisms carry the gate:
the noisy tenant runs with an estimates-in-flight cap, so the flood is
clipped to structured ``quota_exceeded`` rejections instead of queue
growth, and the coalescer drains per-tenant queues weighted-round-robin
(steady's quota carries a larger ``share``), so whatever noisy load is
admitted cannot monopolise batch composition.

Both scenarios run on identical resources (one engine-executor thread);
the benchmark reports ``p99_guard = 1.5 * solo_p99 / contended_p99`` so
the declarative gate in ``gates.json`` is a simple ``min: 1.0`` floor.
The run writes ``BENCH_tenancy.json`` and its record ``BENCH_tenancy.txt``
at the repository root for CI.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import time

from repro.core.domain import Domain
from repro.server import ServerConfig, ThreadedServer, protocol
from repro.service import EstimationService, synthetic_boxes, synthetic_queries
from repro.tenancy import TenantQuota, namespaced

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_tenancy.json"

DOMAIN = Domain.square(1024, dimension=2)
NUM_INSTANCES = 256
DATA_BOXES = 4000

STEADY_TOKEN = "steady-token"
NOISY_TOKEN = "noisy-token"
STEADY_CONNECTIONS = 4
STEADY_QUERIES = 128           # 512 steady requests per scenario
NOISY_CONNECTIONS = 8
NOISY_QUERIES = 64             # 512 noisy requests in the contended run
P99_GUARD = 1.5

CONFIG = ServerConfig(max_batch=64, max_delay=0.005, max_queue=8192,
                      executor_workers=1, admin_token="bench-admin")

STEADY_QUOTA = TenantQuota(share=4)
NOISY_QUOTA = TenantQuota(share=1, max_estimates_in_flight=8)


def _make_service() -> EstimationService:
    service = EstimationService(num_shards=4, flush_threshold=None)
    service.tenant_create("steady", token=STEADY_TOKEN, quota=STEADY_QUOTA)
    service.tenant_create("noisy", token=NOISY_TOKEN, quota=NOISY_QUOTA)
    for tenant, seed in (("steady", 1), ("noisy", 2)):
        name = namespaced(tenant, "ranges")
        service.register(name, family="range", domain=DOMAIN,
                         num_instances=NUM_INSTANCES, seed=11)
        service.ingest(name, synthetic_boxes(DOMAIN, DATA_BOXES, seed=seed),
                       side="data")
    service.flush()
    # Warm both merged views so neither scenario pays the first build.
    query = synthetic_queries(DOMAIN, 1, seed=99)
    service.estimate("steady/ranges", query)
    service.estimate("noisy/ranges", query)
    return service


def _metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {name} missing from exposition")


def _request_lines(token: str, num_queries: int, seed: int) -> bytes:
    queries = synthetic_queries(DOMAIN, num_queries, seed=seed)
    lines = [protocol.encode({"op": "auth", "token": token})]
    lines += [protocol.encode({"op": "estimate", "name": "ranges",
                               "query": row})
              for row in protocol.boxes_to_rows(queries)]
    return b"".join(lines)


async def _one_connection(port: int, payload: bytes, replies: int,
                          counts: dict) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    auth_reply = json.loads(await reader.readline())
    assert auth_reply["ok"], auth_reply
    for _ in range(replies):
        reply = json.loads(await reader.readline())
        if reply["ok"]:
            counts["ok"] += 1
        else:
            assert reply["error_code"] == "quota_exceeded", reply
            counts["rejected"] += 1
    writer.close()
    await writer.wait_closed()


async def _scrape_metrics(port: int) -> str:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(protocol.encode({"op": "metrics"}))
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    return reply["text"]


async def _drive(port: int, *, with_noise: bool) -> tuple[dict, dict, str]:
    steady = {"ok": 0, "rejected": 0}
    noisy = {"ok": 0, "rejected": 0}
    # Every connection sends its own queries, so no side of the ratio
    # gains from duplicate intervals sharing one letter sum in a batch.
    tasks = [_one_connection(port,
                             _request_lines(STEADY_TOKEN, STEADY_QUERIES,
                                            seed=700 + index),
                             STEADY_QUERIES, steady)
             for index in range(STEADY_CONNECTIONS)]
    if with_noise:
        tasks += [_one_connection(port,
                                  _request_lines(NOISY_TOKEN, NOISY_QUERIES,
                                                 seed=1300 + index),
                                  NOISY_QUERIES, noisy)
                  for index in range(NOISY_CONNECTIONS)]
    await asyncio.gather(*tasks)
    return steady, noisy, await _scrape_metrics(port)


def _scenario(*, with_noise: bool) -> dict:
    """One scenario on a fresh service/server pair (clean latency windows)."""
    service = _make_service()
    with ThreadedServer(service, config=CONFIG) as handle:
        start = time.perf_counter()
        steady, noisy, text = asyncio.run(_drive(handle.port,
                                                 with_noise=with_noise))
        elapsed = time.perf_counter() - start
    assert steady["ok"] == STEADY_CONNECTIONS * STEADY_QUERIES
    assert steady["rejected"] == 0
    prefix = 'repro_server_tenant_estimate_latency_ms{tenant="steady"'
    return {
        "steady_requests": steady["ok"],
        "noisy_ok": noisy["ok"],
        "noisy_rejected": noisy["rejected"],
        "seconds": elapsed,
        "steady_p50_ms": _metric(text, prefix + ',quantile="0.5"}'),
        "steady_p99_ms": _metric(text, prefix + ',quantile="0.99"}'),
    }


def test_noisy_neighbor_keeps_steady_p99(benchmark, record_gate):
    """The acceptance gate: contended steady p99 <= 1.5x its solo baseline."""
    solo = _scenario(with_noise=False)
    contended = benchmark.pedantic(lambda: _scenario(with_noise=True),
                                   rounds=1, iterations=1)

    ratio = (contended["steady_p99_ms"] / solo["steady_p99_ms"]
             if solo["steady_p99_ms"] else 0.0)
    guard = P99_GUARD / ratio if ratio else P99_GUARD
    report = {
        "noisy_neighbor": {
            "steady_requests": solo["steady_requests"],
            "noisy_requests": NOISY_CONNECTIONS * NOISY_QUERIES,
            "steady_share": STEADY_QUOTA.share,
            "noisy_in_flight_cap": NOISY_QUOTA.max_estimates_in_flight,
            "solo": solo,
            "contended": contended,
            "p99_ratio": ratio,
            "p99_guard": guard,
        },
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")

    def row(name: str, scenario: dict) -> str:
        return (f"{name:10s} steady p50 {scenario['steady_p50_ms']:7.2f} ms   "
                f"p99 {scenario['steady_p99_ms']:7.2f} ms   "
                f"noisy ok/rejected {scenario['noisy_ok']:4d}/"
                f"{scenario['noisy_rejected']:4d}")

    record_gate("bench_tenancy", [
        f"noisy neighbor: {solo['steady_requests']} steady estimates vs "
        f"{NOISY_CONNECTIONS * NOISY_QUERIES} noisy requests",
        row("solo", solo),
        row("contended", contended),
        f"steady p99 ratio: {ratio:.2f}x (gate: <= {P99_GUARD}x)",
        f"report: {REPORT_PATH.name}",
    ])

    assert contended["noisy_ok"] > 0  # the flood was served, not refused
    assert ratio <= P99_GUARD, (
        f"noisy neighbor degraded the steady tenant's p99 by {ratio:.2f}x "
        f"(gate: <= {P99_GUARD}x)")
