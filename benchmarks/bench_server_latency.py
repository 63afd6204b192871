"""Server latency benchmark: coalesced vs naive per-request serving.

This is the perf-regression gate of the network serving layer: the same
pipelined estimate workload (16 client connections x 64 range queries,
every query distinct) is driven against

* a **naive** server (``max_batch=1`` — every request becomes its own
  engine call, the way a thin per-request RPC layer would serve it), and
* a **coalesced** server (``max_batch=256`` with a 10 ms window —
  concurrent requests are gathered into batched engine calls),

and the coalesced configuration must deliver **at least 3x** the naive
throughput.  Both servers run with a single engine-executor thread, so the
comparison isolates the serving *policy* (1024 scalar engine calls vs ~4
batched ones) on identical resources — no query repeats, so
within-batch deduplication favours neither side.  Per-request p50/p99 latencies
come from the server's own metrics verb (the numbers operators would
scrape).

The clients drive the server from one asyncio loop (pipelined writes, one
reader per connection) to keep measurement overhead flat across scenarios.

The run writes ``BENCH_server.json`` and its human-readable record
``BENCH_server.txt`` at the repository root; CI consumes the JSON report
and fails the perf-smoke job when the speedup drops below 3x.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import time

from repro.core.domain import Domain
from repro.server import ServerConfig, ThreadedServer, protocol
from repro.service import EstimationService, synthetic_boxes, synthetic_queries

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_server.json"

DOMAIN = Domain.square(1024, dimension=2)
NUM_INSTANCES = 512
DATA_BOXES = 8000
CONNECTIONS = 16
QUERIES_PER_CONNECTION = 64
MIN_SPEEDUP = 3.0

NAIVE_CONFIG = ServerConfig(max_batch=1, max_delay=0.0, max_queue=8192,
                            executor_workers=1)
COALESCED_CONFIG = ServerConfig(max_batch=256, max_delay=0.010,
                                max_queue=8192, executor_workers=1)


def _make_service() -> EstimationService:
    service = EstimationService(num_shards=4, flush_threshold=None)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=11)
    service.ingest("ranges", synthetic_boxes(DOMAIN, DATA_BOXES, seed=1),
                   side="data")
    service.flush()
    # Warm the merged-view cache so both scenarios measure serving, not the
    # first view build.
    service.estimate("ranges", synthetic_queries(DOMAIN, 1, seed=99))
    return service


def _metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {name} missing from exposition")


async def _drive_clients(port: int, per_connection: list[bytes]) -> str:
    """Pipeline the workload over CONNECTIONS connections; returns metrics."""

    async def one_connection(request_lines: bytes) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(request_lines)
        await writer.drain()
        for _ in range(QUERIES_PER_CONNECTION):
            reply = json.loads(await reader.readline())
            assert reply["ok"], reply
        writer.close()
        await writer.wait_closed()

    await asyncio.gather(*(one_connection(lines) for lines in per_connection))

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(protocol.encode({"op": "metrics"}))
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    return reply["text"]


def _drive(config: ServerConfig) -> dict:
    """One scenario: a fresh service/server pair under the fixed workload."""
    service = _make_service()
    rows = protocol.boxes_to_rows(synthetic_queries(
        DOMAIN, CONNECTIONS * QUERIES_PER_CONNECTION, seed=7))
    request_lines = [
        b"".join(protocol.encode({"op": "estimate", "name": "ranges",
                                  "query": row})
                 for row in rows[at:at + QUERIES_PER_CONNECTION])
        for at in range(0, len(rows), QUERIES_PER_CONNECTION)]

    with ThreadedServer(service, config=config) as handle:
        start = time.perf_counter()
        text = asyncio.run(_drive_clients(handle.port, request_lines))
        elapsed = time.perf_counter() - start

    requests = CONNECTIONS * QUERIES_PER_CONNECTION
    stats = service.stats
    return {
        "requests": requests,
        "seconds": elapsed,
        "throughput_rps": requests / elapsed,
        "p50_ms": _metric(text, 'repro_server_estimate_latency_ms'
                                '{quantile="0.5"}'),
        "p99_ms": _metric(text, 'repro_server_estimate_latency_ms'
                                '{quantile="0.99"}'),
        "engine_calls": stats.batch_estimates,
        "coalesce_factor": (stats.coalesced_queries / stats.batch_estimates
                            if stats.batch_estimates else 0.0),
    }


def test_coalesced_serving_at_least_3x_naive(benchmark, record_gate):
    """The acceptance gate: coalesced throughput >= 3x per-request serving."""
    naive = _drive(NAIVE_CONFIG)
    coalesced = benchmark.pedantic(lambda: _drive(COALESCED_CONFIG),
                                   rounds=1, iterations=1)

    speedup = coalesced["throughput_rps"] / naive["throughput_rps"]
    report = {
        "coalesced_vs_naive": {
            "requests": naive["requests"],
            "connections": CONNECTIONS,
            "num_instances": NUM_INSTANCES,
            "naive": naive,
            "coalesced": coalesced,
            "throughput_speedup": speedup,
        },
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")

    def row(name: str, scenario: dict) -> str:
        return (f"{name:10s} {scenario['throughput_rps']:10.0f} rps   "
                f"p50 {scenario['p50_ms']:7.2f} ms   "
                f"p99 {scenario['p99_ms']:7.2f} ms   "
                f"{scenario['engine_calls']:4d} engine calls   "
                f"coalesce x{scenario['coalesce_factor']:.1f}")

    record_gate("bench_server_latency", [
        f"server latency: {naive['requests']} pipelined estimates over "
        f"{CONNECTIONS} connections",
        row("naive", naive),
        row("coalesced", coalesced),
        f"throughput speedup: {speedup:.1f}x (gate: >= {MIN_SPEEDUP}x)",
        f"report: {REPORT_PATH.name}",
    ])

    assert coalesced["engine_calls"] < naive["engine_calls"]
    assert coalesced["coalesce_factor"] > 2.0
    assert speedup >= MIN_SPEEDUP, (
        f"coalesced serving regressed: {speedup:.1f}x < {MIN_SPEEDUP}x")
