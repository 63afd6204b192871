"""Wire-format benchmark: binary frames vs NDJSON on the ingest hot path.

This is the perf-regression gate of the binary wire protocol: the same
1000-box ingest payload shipped request after request to a server whose
service buffers without flushing (``flush_threshold=None``), so the
measured latency is dominated by the wire — encode, frame, socket,
decode — rather than by sketch updates.  Each payload travels

* over **NDJSON**: every box rendered to a JSON list client-side and
  parsed back into Python objects server-side before ``boxes_from_rows``
  re-packs them into an array (the pure-Python tax), and
* over the **binary frame format**: the box tensor shipped as raw
  little-endian int64 bytes that decode zero-copy server-side,

and the binary p99 latency must be **at least 2x** better.  The exact
same traffic is then flushed on both servers and a shared query set must
estimate bit-identically, so the speedup cannot come from answering a
different question.

A counted check rides along: frames name their own format, so the binary
client's whole session — connect, every ingest, flush, estimates and the
``stats`` call that reads the counters — must leave zero bytes on its
server's NDJSON wire counters (no handshake or fallback line).

The run writes ``BENCH_wire.json`` and its human-readable record
``BENCH_wire.txt`` at the repository root; CI consumes the JSON report
and fails the perf-smoke job when the speedup drops below 2x.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.client import ServiceClient
from repro.core.domain import Domain
from repro.server import ServerConfig, ThreadedServer
from repro.service import EstimationService, synthetic_boxes, synthetic_queries

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_wire.json"

DOMAIN = Domain.square(65536, dimension=2)
NUM_INSTANCES = 64
BOXES_PER_PAYLOAD = 1000
REQUESTS = 120
WARMUP = 8
QUERIES = 64
MIN_SPEEDUP = 2.0


def _make_server() -> ThreadedServer:
    # No flushing during the timed loop: every ingest request only buffers
    # its rows, so the latency distribution measures the wire, not the
    # sketch kernels (those have their own gate in bench_program_cache).
    service = EstimationService(flush_threshold=None)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=21)
    return ThreadedServer(service, config=ServerConfig(port=0)).start()


def _timed_ingests(client: ServiceClient, payloads) -> np.ndarray:
    for payload in payloads[:WARMUP]:
        client.ingest("ranges", payload, side="data")
    timed = payloads[WARMUP:]
    seconds = np.empty(len(timed), dtype=np.float64)
    for index, payload in enumerate(timed):
        start = time.perf_counter()
        client.ingest("ranges", payload, side="data")
        seconds[index] = time.perf_counter() - start
    return seconds


def _percentiles(seconds: np.ndarray) -> tuple[float, float]:
    return (float(np.percentile(seconds, 50) * 1e3),
            float(np.percentile(seconds, 99) * 1e3))


def test_binary_wire_at_least_2x_ndjson_on_ingest(benchmark, record_gate):
    """The acceptance gate: binary ingest p99 >= 2x better than NDJSON."""
    rng = np.random.default_rng(9)
    payloads = []
    for _ in range(WARMUP + REQUESTS):
        boxes = synthetic_boxes(DOMAIN, BOXES_PER_PAYLOAD,
                                seed=int(rng.integers(1 << 31)))
        payloads.append([row for row in np.hstack([boxes.lows,
                                                   boxes.highs]).tolist()])

    ndjson_server = _make_server()
    binary_server = _make_server()
    try:
        ndjson_client = ServiceClient("127.0.0.1", ndjson_server.port,
                                      wire="ndjson")
        binary_client = ServiceClient("127.0.0.1", binary_server.port,
                                      wire="binary")

        ndjson_seconds = _timed_ingests(ndjson_client, payloads)
        binary_seconds = benchmark.pedantic(
            lambda: _timed_ingests(binary_client, payloads),
            rounds=1, iterations=1)

        # Bit-identity on the very traffic that was timed: flush both
        # servers and compare estimates for a shared query set.
        ndjson_client.flush()
        binary_client.flush()
        queries = synthetic_queries(DOMAIN, QUERIES, seed=31)
        via_ndjson = ndjson_client.estimate_many("ranges", queries)
        via_binary = binary_client.estimate_many("ranges", queries)
        assert ([r.estimate for r in via_ndjson]
                == [r.estimate for r in via_binary])
        ndjson_counters = binary_client.stats()["server"]["wire"]["ndjson"]
        session_ndjson_bytes = (ndjson_counters["bytes_in"]
                                + ndjson_counters["bytes_out"])

        ndjson_client.close()
        binary_client.close()
    finally:
        ndjson_server.stop()
        binary_server.stop()

    ndjson_p50, ndjson_p99 = _percentiles(ndjson_seconds)
    binary_p50, binary_p99 = _percentiles(binary_seconds)
    p50_speedup = ndjson_p50 / binary_p50
    p99_speedup = ndjson_p99 / binary_p99

    report = {
        "domain": list(DOMAIN.requested_sizes),
        "num_instances": NUM_INSTANCES,
        "ingest_1k": {
            "boxes_per_payload": BOXES_PER_PAYLOAD,
            "requests": REQUESTS,
            "ndjson_p50_ms": ndjson_p50,
            "ndjson_p99_ms": ndjson_p99,
            "binary_p50_ms": binary_p50,
            "binary_p99_ms": binary_p99,
            "p50_speedup": p50_speedup,
            "p99_speedup": p99_speedup,
            "min_speedup": MIN_SPEEDUP,
        },
        "estimates_bit_identical": True,
        "binary_session": {"ndjson_bytes": session_ndjson_bytes},
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")

    lines = [
        f"wire formats: {REQUESTS} ingest requests x {BOXES_PER_PAYLOAD} "
        f"boxes over one connection each",
        f"ndjson : p50 {ndjson_p50:8.3f} ms   p99 {ndjson_p99:8.3f} ms",
        f"binary : p50 {binary_p50:8.3f} ms   p99 {binary_p99:8.3f} ms",
        f"speedup: p50 {p50_speedup:6.1f}x    p99 {p99_speedup:6.1f}x "
        f"(gate: >= {MIN_SPEEDUP}x on p99)",
        f"NDJSON bytes left by the binary session: {session_ndjson_bytes} "
        f"(gate: 0)",
    ]
    record_gate("bench_wire", lines)
    assert p99_speedup >= MIN_SPEEDUP
