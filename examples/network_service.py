"""Serving sketches over the network: server, concurrent clients, hot reload.

The example stands up the asyncio TCP sketch server (:mod:`repro.server`)
in front of an :class:`~repro.service.EstimationService`, then shows the
three things the serving layer adds on top of the in-process service:

1. **Request coalescing** — four client threads fire 32 pipelined range
   estimates each; the server's micro-batching coalescer gathers the
   concurrent requests and answers them through a handful of batched
   engine calls (watch ``repro_server_coalesce_factor`` in the metrics),
   bit-identical to per-query scalar estimates.
2. **Live metrics** — the ``metrics`` verb exposes qps, latency
   quantiles, coalesce factor, queue depth and cache hit rate as
   Prometheus-style plain text.
3. **Snapshot hot-reload** — a second, larger service is checkpointed to
   a binary (v2) snapshot and swapped in through the ``reload`` verb while
   the clients' connections stay open: the same connection sees the new
   state on its next request.

Run with::

    python examples/network_service.py
"""

from __future__ import annotations

import os
import tempfile
import threading

from repro.client import ServiceClient
from repro.core.domain import Domain
from repro.server import ServerConfig, ThreadedServer
from repro.service import EstimationService, synthetic_boxes, synthetic_queries


def build_service(data_boxes: int, *, domain: Domain) -> EstimationService:
    service = EstimationService(num_shards=4, flush_threshold=None)
    service.register("ranges", family="range", domain=domain,
                     num_instances=256, seed=42)
    service.register("join", family="rectangle", domain=domain,
                     num_instances=256, seed=43)
    service.ingest("ranges", synthetic_boxes(domain, data_boxes, seed=1),
                   side="data")
    service.ingest("join", synthetic_boxes(domain, data_boxes, seed=2),
                   side="left")
    service.ingest("join", synthetic_boxes(domain, data_boxes, seed=3),
                   side="right")
    service.flush()
    return service


def main() -> None:
    domain = Domain.square(1024, dimension=2)
    service = build_service(6_000, domain=domain)

    # 1. The server: estimates coalesce into batches of up to 32 queries,
    #    waiting at most 2 ms for companions; beyond 512 queued queries the
    #    admission controller sheds load with structured errors.
    config = ServerConfig(max_batch=32, max_delay=0.002, max_queue=512)
    with ThreadedServer(service, config=config) as handle:
        print(f"server listening on 127.0.0.1:{handle.port}")

        # 2. Concurrent clients: each thread keeps ONE connection open and
        #    pipelines 32 estimates over it.  The server sees 4 x 32
        #    concurrent queries for the same estimator and answers them
        #    through ~ (128 / max_batch) batched engine calls.
        queries = synthetic_queries(domain, 32, seed=9)
        results: dict[int, list[float]] = {}

        def client_thread(worker: int) -> None:
            with ServiceClient("127.0.0.1", handle.port) as client:
                answers = client.estimate_many("ranges", queries)
                results[worker] = [a.estimate for a in answers]

        threads = [threading.Thread(target=client_thread, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = [service.estimate("ranges", queries[i]).estimate
                    for i in range(32)]
        assert all(results[w] == expected for w in range(4)), \
            "coalesced estimates must be bit-identical to scalar ones"
        print("4 clients x 32 pipelined estimates: all bit-identical "
              "to direct EstimationService.estimate")

        with ServiceClient("127.0.0.1", handle.port) as client:
            # 3. Plain-text metrics straight from the server.
            print("\n--- metrics after the burst " + "-" * 32)
            text = client.metrics()
            for line in text.splitlines():
                if any(key in line for key in ("coalesce", "latency", "qps",
                                               "queue_depth", "cache")):
                    print(line)

            # 4. Hot reload: checkpoint a *grown* service to a binary v2
            #    snapshot and swap it in on the live server.  The client's
            #    TCP connection never closes.
            grown = build_service(12_000, domain=domain)
            with tempfile.TemporaryDirectory() as tmp:
                snapshot = os.path.join(tmp, "grown.sketch")
                grown.save(snapshot)
                before = client.estimate("ranges", queries[0]).estimate
                client.reload(snapshot)
                after = client.estimate("ranges", queries[0]).estimate
            print("\n--- hot reload " + "-" * 45)
            print(f"estimate before reload : {before:,.1f} (6k boxes)")
            print(f"estimate after reload  : {after:,.1f} (12k boxes, "
                  f"same connection)")
            assert after == grown.estimate("ranges", queries[0]).estimate

    print("\nserver stopped; done")


if __name__ == "__main__":
    main()
