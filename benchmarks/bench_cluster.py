"""Partitioned-fleet benchmark: what a routed estimate costs, in CPU time.

This gate used to ask for >= 2.5x estimate throughput from one worker to an
owner plus three read replicas.  That ratio needs four idle cores (it read
0.4-1.3x on the 2-CPU reference box, so the committed record looked like a
failure), and a replica fleet is one owner group: the router then forwarded
whole estimates, so the run never reached scatter-gather.

What is measured instead holds on any core count:

* two **shard** workers and a ``cluster route`` router, each its own
  subprocess; the data is ingested *through the router*, so both workers
  own part of it and every estimate scatters to both and reduces at the
  router against its resident template,
* a pipelined estimate workload over ``CONNECTIONS`` connections, and
* the CPU seconds the three server processes spent on it
  (the scheduler's nanosecond run time of each thread,
  ``/proc/<pid>/task/*/schedstat``, where ``/proc/<pid>/stat`` counts
  10 ms clock ticks): **routed estimates per server-side CPU second**
  (a floor) and the **router's own CPU per estimate** (a ceiling) — CPU
  time does not care how many cores the processes were spread over, and
* the ``estimate`` requests the workers received per routed estimate (a
  count from each worker's ``metrics``, before and after): the router
  gathers one state per worker per name of a coalesced batch, so this
  pipelined one-name workload reads far below one, where a scatter per
  query reads one per worker.

Replies are checked bit-identical against an in-process service fed the
same boxes, registered from the same plain sizes as the wire ``register``
(so with the same derived level caps; ``DOMAIN`` itself is uncapped).  The
run writes ``BENCH_cluster.json`` and ``BENCH_cluster.txt`` at the repository root;
the floor and the ceiling sit at half / twice the values recorded on the
reference box (``benchmarks/gates.json``).
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import subprocess
import sys
import time

from repro.client import ServiceClient
from repro.cluster.fleet import LocalFleet, _worker_env
from repro.core.domain import Domain
from repro.server import protocol
from repro.service import EstimationService, synthetic_boxes, synthetic_queries

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_cluster.json"

DOMAIN = Domain.square(1024, dimension=2)
NUM_INSTANCES = 512
DATA_BOXES = 4000
INGEST_FRAME = 1000
CONNECTIONS = 8
QUERIES_PER_CONNECTION = 96
WORKERS = 2
SEED = 11

def _cpu_seconds(pid: int) -> float:
    """On-CPU time of a live process's threads so far, in nanoseconds'
    resolution (the first field of each thread's ``schedstat``).

    Only live threads count, so the two samples around the timed section
    are taken while the servers' executor threads are alive: a thread that
    exited between them would take its time with it.
    """
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat",
                      encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:  # the thread exited after the listing
            pass
    return total / 1e9


def _spawn_router(addresses) -> tuple[subprocess.Popen, int]:
    command = [sys.executable, "-m", "repro.cli", "cluster", "route",
               "--listen", "127.0.0.1:0"]
    for host, port in addresses:
        command += ["--worker", f"{host}:{port}"]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, env=_worker_env(),
                               text=True)
    assert process.stdout is not None
    banner = json.loads(process.stdout.readline())
    return process, int(str(banner["listening"]).rsplit(":", 1)[1])


async def _drive_clients(port: int, request_lines: bytes) -> list[float]:
    """Pipeline the workload over CONNECTIONS connections to the router."""
    estimates: list[list[float]] = [[] for _ in range(CONNECTIONS)]

    async def one_connection(index: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(request_lines)
        await writer.drain()
        for _ in range(QUERIES_PER_CONNECTION):
            reply = json.loads(await reader.readline())
            assert reply["ok"], reply
            estimates[index].append(reply["estimate"])
        writer.close()
        await writer.wait_closed()

    await asyncio.gather(*(one_connection(i) for i in range(CONNECTIONS)))
    return [value for per_connection in estimates for value in per_connection]


def _drive(boxes, queries) -> dict:
    """Load a two-shard fleet through its router, then time the estimates."""
    request_lines = b"".join(
        protocol.encode({"op": "estimate", "name": "ranges", "query": row})
        for row in protocol.boxes_to_rows(queries))
    with LocalFleet(WORKERS) as fleet:
        router, port = _spawn_router(fleet.addresses())
        try:
            with ServiceClient("127.0.0.1", port) as client:
                client.register("ranges", family="range",
                                sizes=list(DOMAIN.requested_sizes),
                                instances=NUM_INSTANCES, seed=SEED)
                for at in range(0, len(boxes), INGEST_FRAME):
                    client.ingest("ranges", boxes[at:at + INGEST_FRAME],
                                  side="data")
                client.flush()
                # Tables, views and the router's template, outside the clock.
                for index in range(4):
                    client.estimate("ranges", queries[index])
            owned = []
            for host, worker_port in fleet.addresses():
                with ServiceClient(host, worker_port) as direct:
                    owned.append(direct.stats()["stats"]["ingested_boxes"])

            def worker_estimates() -> int:
                total = 0
                for host, worker_port in fleet.addresses():
                    with ServiceClient(host, worker_port) as direct:
                        requests = direct.request({"op": "metrics"})["requests"]
                        total += requests.get("estimate", 0)
                return total

            asked = worker_estimates()
            pids = {"router": router.pid,
                    **{f"w{index}": worker.process.pid
                       for index, worker in enumerate(fleet.workers)}}
            before = {name: _cpu_seconds(pid) for name, pid in pids.items()}
            start = time.perf_counter()
            estimates = asyncio.run(_drive_clients(port, request_lines))
            elapsed = time.perf_counter() - start
            cpu = {name: _cpu_seconds(pid) - before[name]
                   for name, pid in pids.items()}
            asked = worker_estimates() - asked
        finally:
            router.terminate()
            router.wait(timeout=30)
    return {"estimates": estimates, "seconds": elapsed, "cpu_seconds": cpu,
            "boxes_per_worker": owned, "worker_estimates": asked}


def test_routed_estimates_per_cpu_second(benchmark, record_gate):
    """Acceptance: a partitioned fleet answers bit-identically, above its
    floor of estimates per server-side CPU second."""
    boxes = synthetic_boxes(DOMAIN, DATA_BOXES, seed=1)
    queries = synthetic_queries(DOMAIN, QUERIES_PER_CONNECTION, seed=7)
    reference = EstimationService(num_shards=1, flush_threshold=None)
    reference.register("ranges", family="range",
                       domain=DOMAIN.requested_sizes,
                       num_instances=NUM_INSTANCES, seed=SEED)
    reference.ingest("ranges", boxes, side="data")
    expected = [result.estimate
                for result in reference.estimate_batch("ranges", queries)]

    run = benchmark.pedantic(lambda: _drive(boxes, queries),
                             rounds=1, iterations=1)

    # Partitioning must be invisible to correctness: every reply of every
    # connection bit-identical to the single-node answer.
    identical = run["estimates"] == expected * CONNECTIONS
    assert all(run["boxes_per_worker"]), "a worker owns no data: not a scatter"
    requests = CONNECTIONS * QUERIES_PER_CONNECTION
    cpu = run["cpu_seconds"]
    total_cpu = sum(cpu.values())
    report = {
        "routed": {
            "cpu_count": os.cpu_count() or 1,
            "workers": WORKERS,
            "boxes_per_worker": run["boxes_per_worker"],
            "requests": requests,
            "connections": CONNECTIONS,
            "num_instances": NUM_INSTANCES,
            "identical": int(identical),
            "seconds": run["seconds"],
            "throughput_rps": requests / run["seconds"],
            "cpu_seconds": cpu,
            "estimates_per_cpu_s": requests / total_cpu,
            "router_cpu_ms_per_estimate": cpu["router"] * 1e3 / requests,
            "worker_requests_per_estimate": run["worker_estimates"] / requests,
        },
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    routed = report["routed"]
    record_gate("bench_cluster", [
        f"partitioned fleet: {requests} pipelined estimates over "
        f"{CONNECTIONS} connections, {WORKERS} shard workers + router "
        f"({routed['cpu_count']} CPUs)",
        f"boxes per worker     {run['boxes_per_worker']}",
        f"wall                 {run['seconds']:8.2f} s "
        f"({routed['throughput_rps']:7.0f} rps)",
        "server-side CPU      " + "  ".join(
            f"{name} {seconds:.3f} s" for name, seconds in cpu.items()),
        f"estimates per CPU s  {routed['estimates_per_cpu_s']:8.0f}",
        f"router CPU/estimate  {routed['router_cpu_ms_per_estimate']:8.2f} ms",
        f"worker requests/est  {routed['worker_requests_per_estimate']:8.3f}",
        f"bit-identical to one node: {'yes' if identical else 'NO'}",
        f"report: {REPORT_PATH.name}",
    ])
    assert identical
