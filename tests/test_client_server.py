"""End-to-end tests: ServiceClient and the CLI against a live TCP server."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.client import RemoteEstimate, ServiceClient
from repro.core.domain import Domain
from repro.errors import (
    ConnectionLostError,
    OverloadedError,
    ProtocolError,
    ServerError,
)
from repro.server import ServerConfig, ThreadedServer
from repro.service import EstimationService, synthetic_boxes, synthetic_queries

from repro.cli import main

DOMAIN = Domain.square(256, dimension=2)

pytestmark = pytest.mark.e2e


def make_service(*, data: int = 400) -> EstimationService:
    service = EstimationService(num_shards=2)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=32, seed=5)
    service.register("join", family="rectangle", domain=DOMAIN,
                     num_instances=16, seed=7)
    service.ingest("ranges", synthetic_boxes(DOMAIN, data, seed=1), side="data")
    service.ingest("join", synthetic_boxes(DOMAIN, data, seed=2), side="left")
    service.ingest("join", synthetic_boxes(DOMAIN, data, seed=3), side="right")
    service.flush()
    return service


@pytest.fixture()
def running_server():
    service = make_service()
    with ThreadedServer(service,
                        config=ServerConfig(max_batch=16,
                                            max_delay=0.002)) as handle:
        yield handle


class TestServiceClient:
    def test_sixty_four_concurrent_estimates_bit_identical(self, running_server):
        """Acceptance: 64 concurrent estimates, coalesced, bit-identical."""
        service = running_server.service
        queries = synthetic_queries(DOMAIN, 64, seed=17)
        expected = [service.estimate("ranges", queries[i]).estimate
                    for i in range(64)]
        base_batches = service.stats.batch_estimates

        results: dict[int, float] = {}
        errors: list[Exception] = []

        def worker(worker_id: int, span: range) -> None:
            try:
                with ServiceClient("127.0.0.1", running_server.port) as client:
                    got = client.estimate_many("ranges", queries[span.start:
                                                                 span.stop])
                    for offset, result in enumerate(got):
                        results[span.start + offset] = result.estimate
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker,
                                    args=(w, range(w * 16, (w + 1) * 16)))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert [results[i] for i in range(64)] == expected
        engine_calls = service.stats.batch_estimates - base_batches
        assert engine_calls < 64  # coalescing happened across connections
        assert service.stats.coalesced_queries >= 64

    def test_client_verbs_round_trip(self, running_server, tmp_path):
        with ServiceClient("127.0.0.1", running_server.port) as client:
            assert client.ping()["version"] == 1
            reply = client.register("extra", family="range", sizes=[64, 64],
                                    instances=8, seed=2)
            assert reply["spec"]["family"] == "range"
            assert client.ingest("extra", [[0, 0, 5, 5], [2, 2, 9, 9]],
                                 side="data")["boxes"] == 2
            client.flush()
            result = client.estimate("extra", [0, 0, 63, 63])
            assert isinstance(result, RemoteEstimate)
            assert result.left_count == 2
            assert float(result) == result.estimate
            queryless = client.estimate("join")
            assert queryless.right_count > 0
            stats = client.stats()
            assert "extra" in stats["estimators"]
            assert stats["server"]["queue_depth"] == 0
            text = client.metrics()
            assert text.startswith("# repro sketch server metrics")
            snapshot = tmp_path / "remote.sketch"
            assert client.snapshot(snapshot)["ok"]
            assert EstimationService.load(snapshot).merged_view("extra").count == 2

    def test_client_typed_errors(self, running_server):
        with ServiceClient("127.0.0.1", running_server.port) as client:
            with pytest.raises(ServerError) as info:
                client.estimate("missing")
            assert info.value.code == "bad_request"
            with pytest.raises(ServerError):
                client.reload("/no/such/snapshot/path")
            # The connection survives typed failures.
            assert client.ping()["ok"]

    def test_hot_reload_on_live_client(self, running_server, tmp_path):
        grown = make_service(data=900)
        snapshot = tmp_path / "grown.sketch"
        grown.save(snapshot)
        query = synthetic_queries(DOMAIN, 1, seed=23)
        expected = grown.estimate("ranges", query).estimate

        with ServiceClient("127.0.0.1", running_server.port) as client:
            before = client.estimate("ranges", query).estimate
            assert client.reload(snapshot)["ok"]
            after = client.estimate("ranges", query).estimate
        assert before != after
        assert after == expected

    def test_overloaded_error_is_typed(self, running_server):
        # Saturate a tiny standalone server whose engine is blocked.
        service = make_service(data=100)
        release = threading.Event()
        inner = service.answer_multi

        def blocking(requests):
            release.wait(timeout=30)
            return inner(requests)

        service.answer_multi = blocking
        queries = synthetic_queries(DOMAIN, 30, seed=3)
        config = ServerConfig(max_batch=2, max_delay=0.001, max_queue=4)
        with ThreadedServer(service, config=config) as handle:
            try:
                with ServiceClient("127.0.0.1", handle.port) as client:
                    requests = [{"op": "estimate", "name": "ranges",
                                 "query": row}
                                for row in _rows(queries)]
                    # Unblock the engine once the burst has been admitted or
                    # shed; the admitted replies need it to complete.
                    threading.Timer(0.5, release.set).start()
                    responses = client.request_many(requests)
            finally:
                release.set()
        shed = [r for r in responses if not r.get("ok")]
        assert shed and all(r["error_code"] == "overloaded" for r in shed)
        with pytest.raises(OverloadedError):
            from repro.server.protocol import raise_for_response
            raise_for_response(shed[0])

    def test_connection_refused_raises_connection_lost_naming_the_address(
            self):
        with pytest.raises(ConnectionLostError, match="127.0.0.1:1"):
            ServiceClient("127.0.0.1", 1, timeout=2)

    def test_a_refused_reconnect_of_a_retry_raises_connection_lost(self):
        service = make_service(data=50)
        handle = ThreadedServer(service).start()
        port = handle.port
        client = ServiceClient("127.0.0.1", port, timeout=10)
        client.ping()
        handle.stop()
        # stats is idempotent: the dropped connection is retried once, and
        # the refused reconnect surfaces typed, naming the address.
        with pytest.raises(ConnectionLostError, match=f"127.0.0.1:{port}"):
            client.stats()
        client.close()

    def test_server_gone_raises_protocol_error(self, tmp_path):
        service = make_service(data=50)
        handle = ThreadedServer(service).start()
        client = ServiceClient("127.0.0.1", handle.port, timeout=10)
        client.ping()  # the connection is fully established server-side
        handle.stop()
        with pytest.raises((ProtocolError, OSError)):
            client.estimate("join")
        client.close()


def _rows(boxes):
    from repro.server.protocol import boxes_to_rows

    return boxes_to_rows(boxes)


class TestCliConnect:
    """Satellite: one-shot CLI ops reuse a running server via --connect."""

    def test_estimate_connect_matches_direct(self, running_server, capsys):
        service = running_server.service
        query = synthetic_queries(DOMAIN, 1, seed=31)
        expected = service.estimate("ranges", query).estimate
        row = _rows(query)[0]
        code = main(["estimate", "--connect",
                     f"127.0.0.1:{running_server.port}", "--name", "ranges",
                     "--query", ",".join(map(str, row))])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["estimate"] == expected

    def test_estimate_connect_batch_file(self, running_server, capsys, tmp_path):
        queries = synthetic_queries(DOMAIN, 5, seed=37)
        batch_file = tmp_path / "queries.jsonl"
        batch_file.write_text(
            "\n".join(json.dumps(row) for row in _rows(queries)) + "\n",
            encoding="utf-8")
        code = main(["estimate", "--connect",
                     f"127.0.0.1:{running_server.port}", "--name", "ranges",
                     "--batch-file", str(batch_file)])
        assert code == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.strip().splitlines()]
        service = running_server.service
        expected = [service.estimate("ranges", queries[i]).estimate
                    for i in range(5)]
        assert [entry["estimate"] for entry in lines] == expected
        assert [entry["index"] for entry in lines] == list(range(5))

    def test_ingest_connect_registers_and_streams(self, running_server, capsys):
        target = f"127.0.0.1:{running_server.port}"
        code = main(["ingest", "--connect", target, "--name", "fresh",
                     "--family", "range", "--sizes", "64x64",
                     "--instances", "8", "--count", "25"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["created"] is True and payload["boxes"] == 25
        # Second ingest reuses the registration; conflicting flags fail.
        code = main(["ingest", "--connect", target, "--name", "fresh",
                     "--count", "10"])
        assert code == 0
        capsys.readouterr()
        code = main(["ingest", "--connect", target, "--name", "fresh",
                     "--family", "rectangle", "--sizes", "64x64",
                     "--count", "10"])
        assert code == 1
        assert "already registered" in capsys.readouterr().err

    def test_one_shot_ops_require_a_target(self, capsys):
        assert main(["estimate", "--name", "x"]) == 1
        assert "--connect" in capsys.readouterr().err
        assert main(["ingest", "--name", "x"]) == 1
        assert "--connect" in capsys.readouterr().err

    def test_connect_refused_is_reported(self, capsys):
        assert main(["estimate", "--connect", "127.0.0.1:1",
                     "--name", "x"]) == 1
        assert "cannot connect" in capsys.readouterr().err


class TestClientRetry:
    """Satellite: one reconnect-and-retry on dropped connections."""

    def test_idempotent_op_retries_across_server_restart(self):
        service = make_service(data=50)
        handle = ThreadedServer(service).start()
        port = handle.port
        client = ServiceClient("127.0.0.1", port, timeout=10)
        assert client.ping()["ok"]
        handle.stop()
        # Rebind a fresh server on the same port; the client's socket is
        # dead but the next idempotent request heals transparently.
        handle = ThreadedServer(service,
                                config=ServerConfig(port=port)).start()
        try:
            assert client.ping()["ok"]
            assert client.reconnects == 1
            query = synthetic_queries(DOMAIN, 1, seed=11)
            result = client.estimate("ranges", _rows(query)[0])
            assert result.estimate == service.estimate("ranges",
                                                       query).estimate
        finally:
            client.close()
            handle.stop()

    def test_non_idempotent_op_is_never_retried(self):
        from repro.client import IDEMPOTENT_OPS

        assert "ingest" not in IDEMPOTENT_OPS
        assert "register" not in IDEMPOTENT_OPS
        service = make_service(data=50)
        handle = ThreadedServer(service).start()
        client = ServiceClient("127.0.0.1", handle.port, timeout=10)
        client.ping()
        handle.stop()
        # A write on a dead connection surfaces the failure instead of
        # risking a duplicate apply on reconnect.
        with pytest.raises((ProtocolError, OSError)):
            client.ingest("ranges", [[0, 0, 5, 5]], side="data")
        assert client.reconnects == 0
        client.close()


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals")
def test_cli_serve_sigterm_drains_and_snapshots(tmp_path):
    """Satellite: SIGTERM triggers a graceful drain + final snapshot."""
    import signal

    snapshot = tmp_path / "graceful.sketch"
    src_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--listen",
         "127.0.0.1:0", "--snapshot", str(snapshot), "--save-on-exit"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        banner = json.loads(process.stdout.readline())
        port = int(banner["listening"].rsplit(":", 1)[1])
        with ServiceClient("127.0.0.1", port) as client:
            client.register("r", family="range", sizes=[64, 64],
                            instances=8, seed=1)
            client.ingest("r", [[1, 1, 5, 5], [2, 2, 9, 9]], side="data")
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.wait(timeout=30)
    # The final snapshot reflects every acknowledged write.
    restored = EstimationService.load(snapshot)
    assert restored.merged_view("r").count == 2


@pytest.mark.skipif(os.name != "posix", reason="POSIX process management")
def test_cli_serve_listen_subprocess_end_to_end(tmp_path):
    """Acceptance: `repro-spatial serve --listen` + ServiceClient round trip."""
    service = make_service(data=120)
    snapshot = tmp_path / "svc.sketch"
    service.save(snapshot)
    query = synthetic_queries(DOMAIN, 1, seed=41)
    expected = service.estimate("ranges", query).estimate

    src_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--snapshot",
         str(snapshot), "--shards", "3", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        banner = json.loads(process.stdout.readline())
        port = int(banner["listening"].rsplit(":", 1)[1])
        with ServiceClient("127.0.0.1", port) as client:
            # The banner comes before the load; the snapshot's estimators
            # are in the stats reply.
            assert "ranges" in client.stats()["estimators"]
            remote = client.estimate("ranges", _rows(query)[0])
            assert remote.estimate == expected
            # The shard count is the command line's, not the file's.
            assert service.num_shards != 3
            assert client.stats()["num_shards"] == 3
    finally:
        process.terminate()
        process.wait(timeout=30)
