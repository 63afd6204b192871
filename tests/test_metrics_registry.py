"""One metrics registry: every series declared once, one renderer, one fold.

:data:`repro.server.metrics.FAMILIES` declares each exposition family; a
server renders its own samples, a router renders its own plus the generic
fold of its workers' samples.  These tests pin what that exposition is:

* the series inventory — (name, label keys) per placement — is the one the
  hand-assembled lists exported before the registry, plus the counters the
  registry added, and the router's per-tenant requests now carry ``op``;
* every line is text-format grammar, every family contiguous, no series
  twice;
* on a quiesced fleet each router-summed family is the sum of the
  workers' own ``repro_server_*`` / ``repro_service_*`` values;
* a stalled worker costs a router one request timeout, not its verbs
  nor its threads;
* README's "Metrics reference" block is the table.
"""

import re
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.client import ServiceClient
from repro.cluster import RouterConfig
from repro.cluster.manager import HEARTBEAT_MAX_FAILURES
from repro.core.domain import Domain
from repro.core.program import ExecutorStats
from repro.errors import ConnectionLostError
from repro.server import ServerConfig, ThreadedServer, protocol, wire
from repro.server.metrics import FAMILIES, ServerMetrics, fold, render, samples
from repro.service import EstimationService, synthetic_boxes
from tests.routing import RouterThread
from tests.test_front_conformance import Placement, _replay

README = Path(__file__).resolve().parent.parent / "README.md"
DOMAIN = Domain.square(256, dimension=2)

#: What the server and the router exported before the registry, collected
#: over the scenario of :func:`exposition` (label keys in line order).
BEFORE = {
    "server": {
        ("repro_server_coalesce_batches_total", ()),
        ("repro_server_coalesce_cross_estimator_dispatches_total", ()),
        ("repro_server_coalesce_factor", ()),
        ("repro_server_coalesce_rejected_total", ()),
        ("repro_server_coalesced_queries_total", ()),
        ("repro_server_connections_active", ()),
        ("repro_server_connections_opened_total", ()),
        ("repro_server_delta_applies_total", ()),
        ("repro_server_direct_hash_ids_total", ()),
        ("repro_server_errors_total", ("code",)),
        ("repro_server_estimate_latency_ms", ("quantile",)),
        ("repro_server_estimate_qps", ()),
        ("repro_server_estimator_coalesce_dispatches_total", ("name",)),
        ("repro_server_estimator_coalesce_factor", ("name",)),
        ("repro_server_estimator_coalesced_queries_total", ("name",)),
        ("repro_server_program_kernel_calls", ()),
        ("repro_server_program_letter_sums_computed", ()),
        ("repro_server_program_letter_sums_requested", ()),
        ("repro_server_program_programs", ()),
        ("repro_server_program_results", ()),
        ("repro_server_program_runs", ()),
        ("repro_server_queue_depth", ()),
        ("repro_server_reloads_total", ()),
        ("repro_server_requests_total", ("op",)),
        ("repro_server_sign_table_build_seconds_total", ()),
        ("repro_server_sign_table_builds_total", ()),
        ("repro_server_sign_table_bytes", ()),
        ("repro_server_sign_tables", ()),
        ("repro_server_tenant_errors_total", ("tenant",)),
        ("repro_server_tenant_estimate_latency_ms", ("tenant", "quantile")),
        ("repro_server_tenant_estimate_qps", ("tenant",)),
        ("repro_server_tenant_quota_rejected_total", ("tenant",)),
        ("repro_server_tenant_requests_total", ("tenant", "op")),
        ("repro_server_uptime_seconds", ()),
        ("repro_server_view_rebuilds_total", ()),
        ("repro_server_wire_bytes_total", ("format", "direction")),
        ("repro_server_wire_frames_total", ("format", "direction")),
        ("repro_service_batch_estimates_total", ()),
        ("repro_service_cache_hit_rate", ()),
        ("repro_service_coalesced_queries_total", ()),
        ("repro_service_estimates_total", ()),
        ("repro_service_ingested_boxes_total", ()),
        ("repro_service_view_evictions_total", ()),
    },
    "router": {
        ("repro_cluster_connections_active", ()),
        ("repro_cluster_connections_opened_total", ()),
        ("repro_cluster_delta_applies_total", ()),
        ("repro_cluster_direct_hash_ids_total", ()),
        ("repro_cluster_errors_total", ("code",)),
        ("repro_cluster_estimate_latency_ms", ("quantile",)),
        ("repro_cluster_estimate_qps", ()),
        ("repro_cluster_program_kernel_calls", ()),
        ("repro_cluster_program_letter_sums_computed", ()),
        ("repro_cluster_program_letter_sums_requested", ()),
        ("repro_cluster_program_programs", ()),
        ("repro_cluster_program_results", ()),
        ("repro_cluster_program_runs", ()),
        ("repro_cluster_requests_total", ("op",)),
        ("repro_cluster_router_direct_hash_ids_total", ()),
        ("repro_cluster_router_sign_table_build_seconds_total", ()),
        ("repro_cluster_router_sign_table_builds_total", ()),
        ("repro_cluster_router_sign_table_bytes", ()),
        ("repro_cluster_router_sign_tables", ()),
        ("repro_cluster_sign_table_build_seconds_total", ()),
        ("repro_cluster_sign_table_builds_total", ()),
        ("repro_cluster_sign_table_bytes", ()),
        ("repro_cluster_sign_tables", ()),
        ("repro_cluster_tenant_errors_total", ("tenant",)),
        ("repro_cluster_tenant_estimate_latency_ms", ("tenant", "quantile")),
        ("repro_cluster_tenant_estimate_qps", ("tenant",)),
        ("repro_cluster_tenant_quota_rejected_total", ("tenant",)),
        ("repro_cluster_tenant_requests_total", ("tenant",)),
        ("repro_cluster_uptime_seconds", ()),
        ("repro_cluster_view_evictions_total", ()),
        ("repro_cluster_view_rebuilds_total", ()),
        ("repro_cluster_wire_bytes_total", ("format", "direction")),
        ("repro_cluster_wire_frames_total", ("format", "direction")),
        ("repro_cluster_worker_requests_total", ("op",)),
        ("repro_cluster_worker_uptime_seconds", ("worker",)),
        ("repro_cluster_worker_wire_bytes_total", ("format", "direction")),
        ("repro_cluster_workers_healthy", ()),
        ("repro_cluster_workers_total", ()),
    },
}

#: Counters the stats objects kept but never exported, now one declaration
#: each; the router sums all but the largest batch (a maximum).
ADDED = {
    "server": {("repro_server_coalesce_submitted_total", ()),
               ("repro_server_coalesce_size_dispatches_total", ()),
               ("repro_server_coalesce_timer_dispatches_total", ()),
               ("repro_server_coalesce_largest_batch", ()),
               ("repro_service_flushed_batches_total", ())},
    "router": {("repro_cluster_coalesce_submitted_total", ()),
               ("repro_cluster_coalesce_size_dispatches_total", ()),
               ("repro_cluster_coalesce_timer_dispatches_total", ()),
               ("repro_cluster_flushed_batches_total", ())},
}

_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
_LINE = re.compile(rf"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
                   rf"(?:\{{(?P<labels>{_LABEL}(?:,{_LABEL})*)\}})?"
                   r" (?P<value>-?[0-9]+(?:\.[0-9]+)?)$")


def parse(text: str) -> dict[tuple[str, str], float]:
    """``(name, label text) -> value`` of an exposition, checking that every
    line is grammar, every family contiguous and no series repeated."""
    series: dict[tuple[str, str], float] = {}
    finished: set[str] = set()
    current = None
    for line in text.splitlines():
        if line.startswith("# "):
            continue
        match = _LINE.match(line)
        assert match, f"not text-format grammar: {line!r}"
        name = match["name"]
        if name != current:
            assert name not in finished, f"family {name} is split"
            finished.add(name)
            current = name
        key = (name, match["labels"] or "")
        assert key not in series, f"series twice: {line!r}"
        series[key] = float(match["value"])
    return series


def inventory(text: str) -> set[tuple[str, tuple[str, ...]]]:
    return {(name, tuple(re.findall(r'(\w+)="', labels)))
            for name, labels in parse(text)}


@pytest.fixture(scope="module")
def exposition():
    """The conformance transcript on both placements, then a tenanted
    two-worker fleet: ``({placement: texts}, the fleet router's metrics
    reply)``."""
    texts: dict[str, list[str]] = {"server": [], "router": []}
    for kind in texts:
        front = Placement(kind)
        try:
            _replay(front, "ndjson")
            with front.client("ndjson") as client:
                texts[kind].append(client.metrics())
        finally:
            front.stop()
    workers = [ThreadedServer(EstimationService(num_shards=2),
                              config=ServerConfig(admin_token="fleet")).start()
               for _ in range(2)]
    handle = RouterThread(
        [("127.0.0.1", worker.port) for worker in workers],
        RouterConfig(admin_token="root", worker_token="fleet")).start()
    try:
        with ServiceClient("127.0.0.1", handle.port, token="root") as admin:
            admin.tenant("create", tenant="acme", token="acme-secret")
            with ServiceClient("127.0.0.1", handle.port,
                               token="acme-secret") as acme:
                acme.register("rq", family="range", sizes=(256, 256),
                              instances=8)
                acme.ingest("rq", synthetic_boxes(DOMAIN, 40, seed=1),
                            side="data")
                acme.flush()
                acme.estimate("rq", [0, 0, 100, 100])
            reply = admin.request({"op": "metrics"})
            texts["router"].append(reply["text"])
        for worker in workers:
            with ServiceClient("127.0.0.1", worker.port,
                               token="fleet") as direct:
                texts["server"].append(direct.metrics())
    finally:
        handle.stop()
        for worker in workers:
            worker.stop()
    return texts, reply


@pytest.mark.e2e
@pytest.mark.parametrize("placement", ["server", "router"])
def test_the_inventory_is_the_old_one_plus_the_added_counters(exposition,
                                                              placement):
    texts, _ = exposition
    found = set().union(*map(inventory, texts[placement]))
    expected = BEFORE[placement] | ADDED[placement]
    if placement == "router":
        # The one permitted change: per-op like the server's series.
        expected = (expected - {("repro_cluster_tenant_requests_total",
                                 ("tenant",))}
                    | {("repro_cluster_tenant_requests_total",
                        ("tenant", "op"))})
    assert found == expected


@pytest.mark.e2e
def test_router_sums_are_the_sums_of_the_workers_own_values(exposition):
    _, reply = exposition
    routed = parse(reply["text"])
    workers = [parse(worker["text"]) for worker in reply["workers"].values()]
    assert len(workers) == 2
    summed = {family.router: family for family in FAMILIES.values()
              if family.router is not None}
    checked = 0
    for (name, labels), value in routed.items():
        family = summed.get(name.removeprefix("repro_cluster_"))
        if family is None:
            continue
        own = (family.name if family.name.startswith("repro_")
               else "repro_server_" + family.name)
        total = sum(worker.get((own, labels), 0.0) for worker in workers)
        assert value == pytest.approx(total, abs=2e-3), (name, labels)
        checked += 1
    # ...and every worker series of a summed family reached the router.
    for worker in workers:
        for name, labels in worker:
            for family in summed.values():
                if name in (family.name, "repro_server_" + family.name):
                    assert ("repro_cluster_" + family.router,
                            labels) in routed, (name, labels)
    assert checked >= len(summed)


def test_fold_sums_by_name_and_labels_under_router_names():
    front = ServerMetrics()
    front.requests.update({"estimate": 3, "ping": 1})
    front.record_tenant_request('we"ird\\', "ping")
    worker = samples(front=front, program=ExecutorStats(runs=5))
    folded = fold([worker, worker])
    by_key = {(name, tuple(labels.items())): value
              for name, labels, value in folded}
    assert by_key[("worker_requests_total", (("op", "estimate"),))] == 6
    assert by_key[("program_runs", ())] == 10
    assert not any(name == "uptime_seconds" for name, _, _ in folded)
    text = render("repro_cluster_", folded)
    assert 'repro_cluster_worker_requests_total{op="estimate"} 6\n' in text
    own = render("repro_server_", worker)
    assert 'tenant="we\\"ird\\\\",op="ping"} 1\n' in own
    assert parse(text) and parse(own)


# -- a stalled worker -----------------------------------------------------------------


class _StalledWorker:
    """Speaks binary frames like a worker until :attr:`stall` is set, then
    never answers again (the connection stays open)."""

    def __init__(self):
        self.stall = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._answer, args=(connection,),
                             daemon=True).start()

    def _answer(self, connection):
        with connection, connection.makefile("rb") as frames:
            while True:
                try:
                    request = wire.read_binary_frame_sync(frames)
                except ConnectionLostError:
                    return
                op = request.get("op")
                if not self.stall.is_set():
                    # Acknowledge everything (a register with the spec a
                    # worker would build).
                    reply = {"ok": True, "op": op}
                    if op == "register":
                        reply["spec"] = protocol.read(op, request)["spec"].to_dict()
                    connection.sendall(wire.encode_binary(reply))

    def close(self):
        self._listener.close()


@pytest.mark.e2e
def test_a_stalled_worker_costs_one_timeout_not_the_router_verbs():
    timeout = 0.5
    live = ThreadedServer(EstimationService(num_shards=2)).start()
    stalled = _StalledWorker()
    router = RouterThread(
        [("127.0.0.1", live.port), ("127.0.0.1", stalled.port)],
        RouterConfig(request_timeout=timeout)).start()
    try:
        with ServiceClient("127.0.0.1", router.port) as client:
            client.register("rq", family="range", sizes=(256, 256),
                            instances=8)
            stalled.stall.set()
            for op in ("metrics", "stats"):
                start = time.perf_counter()
                (reply,) = client.request_many([{"op": op}])
                elapsed = time.perf_counter() - start
                assert reply["ok"], reply
                assert elapsed < 2 * timeout, (op, elapsed)
            assert "rq" in reply["estimators"]
            metrics = client.request({"op": "metrics"})
            assert list(metrics["workers"]) == ["w0"]   # the live one
            assert "repro_cluster_workers_total 2\n" in metrics["text"]
            assert ('repro_cluster_worker_requests_total{op="register"} 1\n'
                    in metrics["text"])
            (estimate,) = client.request_many([{
                "op": "estimate", "name": "rq", "query": [0, 0, 9, 9]}])
            assert estimate["error_code"] == "degraded", estimate
            assert "did not answer 'estimate'" in estimate["error"]
    finally:
        router.stop()
        stalled.close()
        live.stop()


@pytest.mark.e2e
def test_estimates_stuck_on_a_stalled_worker_hold_no_router_thread():
    """Estimates waiting on a stalled worker wait on the router's loop, not
    on its executor threads: once the heartbeat marks the worker down, a
    later burst answers ``degraded`` at once, well within the request
    timeout the stuck estimates still wait out."""
    timeout = 5.0
    live = ThreadedServer(EstimationService(num_shards=2)).start()
    stalled = _StalledWorker()
    router = RouterThread(
        [("127.0.0.1", live.port), ("127.0.0.1", stalled.port)],
        RouterConfig(request_timeout=timeout)).start()
    estimate = {"op": "estimate", "name": "rq", "query": [0, 0, 9, 9]}
    stuck: list[dict] = []

    def ask() -> None:
        with ServiceClient("127.0.0.1", router.port, timeout=30) as client:
            stuck.extend(client.request_many([estimate]))

    askers = [threading.Thread(target=ask) for _ in range(6)]
    try:
        with ServiceClient("127.0.0.1", router.port) as client:
            client.register("rq", family="range", sizes=(256, 256),
                            instances=8)
            stalled.stall.set()
            for asker in askers:  # more batches than the router has threads
                asker.start()
                time.sleep(0.05)
            # The stalled worker's pings fail at once, as a dead peer's
            # do, so the heartbeat marks it down long before the stuck
            # estimates time out.
            link = router.manager.worker("w1").link
            answer = link.request_ok

            async def drop_pings(payload, timeout=None):
                if payload["op"] == "ping":
                    raise ConnectionLostError("ping dropped")
                return await answer(payload, timeout)

            link.request_ok = drop_pings
            for _ in range(HEARTBEAT_MAX_FAILURES):
                router.run(router.manager.heartbeat_once())
            assert not router.manager.worker("w1").healthy
            start = time.perf_counter()
            replies = client.request_many([estimate] * 32)
            elapsed = time.perf_counter() - start
        assert elapsed < timeout / 4, elapsed
        for reply in replies:
            assert reply["error_code"] == "degraded", reply
            assert reply["detail"]["down_owners"] == ["w1"]
        for asker in askers:
            asker.join(30)
        assert [reply["error_code"] for reply in stuck] == ["degraded"] * 6
    finally:
        router.stop()
        stalled.close()
        live.stop()


# -- README ---------------------------------------------------------------------------


def render_metrics_table() -> str:
    """The README's "Metrics reference" block, from the declarations."""
    lines = ["| family | kind | labels | read from | a router sums it as |",
             "| --- | --- | --- | --- | --- |"]
    for family in FAMILIES.values():
        labels = ", ".join(f"`{label}`" for label in family.labels)
        router = f"`{family.router}`" if family.router else ""
        lines.append(f"| `{family.name}` | {family.kind} | {labels} | "
                     f"{family.source} | {router} |")
    return "\n".join(lines)


def test_readme_metrics_reference_is_the_table():
    text = README.read_text(encoding="utf-8")
    found = re.search(r"<!-- metrics-table:begin[^>]*-->\n(.*?)\n"
                      r"<!-- metrics-table:end -->", text, re.DOTALL)
    assert found, "README.md has no metrics-table block"
    assert found.group(1) == render_metrics_table(), (
        "README.md's metrics-table block is stale; regenerate it with\n"
        "  python -c \"from tests.test_metrics_registry import *; "
        "print(render_metrics_table())\"")
