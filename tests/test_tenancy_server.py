"""End-to-end multi-tenant serving over live TCP servers.

The wire-level tenancy contract: the ``auth`` handshake and op gating,
structural cross-tenant isolation (same public estimator name on two
tenants), quota rejections with retry-after hints, per-tenant metric
labels, the ``tenant`` admin verb, client timeouts, the
``--max-frame-bytes`` CLI plumbing, and tenant identity forwarded
through a cluster router to a token-authenticated worker fleet.
"""

import socket
import threading
import time

import pytest

from repro.client import ServiceClient
from repro.cluster import RouterConfig
from repro.cluster.fleet import spawn_worker
from repro.core.domain import Domain
from repro.errors import (
    AuthenticationError,
    ClientTimeoutError,
    FrameTooLargeError,
    QuotaExceededError,
    ServerError,
)
from repro.server import ServerConfig, ThreadedServer
from repro.service import EstimationService, synthetic_boxes
from repro.tenancy import TenantQuota

from tests.routing import RouterThread

DOMAIN = Domain.square(256, dimension=2)

pytestmark = pytest.mark.e2e

ADMIN_TOKEN = "root-secret"
ACME_TOKEN = "acme-secret"
GLOBEX_TOKEN = "globex-secret"


def tenanted_service(*, acme_quota: TenantQuota | None = None
                     ) -> EstimationService:
    service = EstimationService(num_shards=2)
    service.tenant_create("acme", token=ACME_TOKEN, quota=acme_quota)
    service.tenant_create("globex", token=GLOBEX_TOKEN)
    return service


@pytest.fixture()
def tenant_server():
    with ThreadedServer(tenanted_service(),
                        config=ServerConfig(max_batch=16, max_delay=0.002,
                                            admin_token=ADMIN_TOKEN)) as handle:
        yield handle


def client_for(handle, token=None, **kwargs) -> ServiceClient:
    return ServiceClient("127.0.0.1", handle.port, token=token, **kwargs)


def register_join(client: ServiceClient, name: str = "join",
                  seed: int = 7) -> None:
    client.register(name, family="rectangle", sizes=[256, 256],
                    instances=16, seed=seed)


class TestAuthGating:
    def test_unauthenticated_gets_read_only_surface(self, tenant_server):
        with client_for(tenant_server) as client:
            assert client.ping()["ok"]
            assert "repro_server_requests_total" in client.metrics()
            with pytest.raises(AuthenticationError) as info:
                register_join(client)
            assert info.value.code == "auth_required"
            with pytest.raises(AuthenticationError):
                client.stats()

    def test_bad_token_rejected(self, tenant_server):
        with client_for(tenant_server) as client:
            with pytest.raises(AuthenticationError) as info:
                client.auth("not-a-token")
            assert info.value.code == "auth_failed"

    def test_auth_binds_roles(self, tenant_server):
        with client_for(tenant_server) as client:
            reply = client.auth(ACME_TOKEN)
            assert reply["role"] == "tenant" and reply["tenant"] == "acme"
        with client_for(tenant_server) as client:
            assert client.auth(ADMIN_TOKEN)["role"] == "admin"

    def test_tenant_cannot_use_admin_ops(self, tenant_server, tmp_path):
        with client_for(tenant_server, token=ACME_TOKEN) as client:
            with pytest.raises(AuthenticationError):
                client.snapshot(str(tmp_path / "x.sketch"))
            with pytest.raises(AuthenticationError):
                client.tenant("create", tenant="mallory", token="m")

    def test_disabled_tenant_loses_access_mid_connection(self, tenant_server):
        with client_for(tenant_server, token=GLOBEX_TOKEN) as globex, \
                client_for(tenant_server, token=ADMIN_TOKEN) as admin:
            register_join(globex)
            admin.tenant("disable", tenant="globex")
            with pytest.raises(AuthenticationError):
                globex.flush()


class TestWireIsolation:
    def test_same_public_name_is_two_estimators(self, tenant_server):
        boxes = synthetic_boxes(DOMAIN, 50, seed=2)
        with client_for(tenant_server, token=ACME_TOKEN) as acme, \
                client_for(tenant_server, token=GLOBEX_TOKEN) as globex:
            reply = acme.register("join", family="rectangle",
                                  sizes=[256, 256], instances=16, seed=7)
            assert reply["name"] == "join"  # echoed unprefixed
            register_join(globex)
            acme.ingest("join", boxes, side="left")
            acme.ingest("join", boxes, side="right")
            acme.flush()
            got = acme.estimate("join")
            assert got.left_count == 50 and got.right_count == 50
            # globex's estimator of the same public name saw nothing.
            assert "estimate requested before any data" in str(
                _estimate_error(globex, "join"))

    def test_stats_are_scoped_but_admin_sees_namespaces(self, tenant_server):
        with client_for(tenant_server, token=ACME_TOKEN) as acme, \
                client_for(tenant_server, token=GLOBEX_TOKEN) as globex, \
                client_for(tenant_server, token=ADMIN_TOKEN) as admin:
            register_join(acme)
            register_join(globex, name="other")
            stats = acme.stats()
            assert stats["tenant"] == "acme"
            assert sorted(stats["estimators"]) == ["join"]
            assert "tenants" not in stats
            full = admin.stats()
            assert sorted(full["estimators"]) == ["acme/join", "globex/other"]
            assert full["tenants"]["tenants"] == 2

    def test_unregister_is_scoped(self, tenant_server):
        with client_for(tenant_server, token=ACME_TOKEN) as acme, \
                client_for(tenant_server, token=GLOBEX_TOKEN) as globex:
            register_join(acme)
            register_join(globex)
            globex.unregister("join")
            assert sorted(acme.stats()["estimators"]) == ["join"]
            # Another tenant's full name nests to globex/acme/join: unknown.
            with pytest.raises(ServerError) as info:
                globex.unregister("acme/join")
            assert info.value.code == "bad_request"
            assert sorted(acme.stats()["estimators"]) == ["join"]
        assert tenant_server.service.names() == ["acme/join"]


def _estimate_error(client: ServiceClient, name: str) -> Exception:
    with pytest.raises(Exception) as info:
        client.estimate(name)
    return info.value


class TestQuotas:
    def test_ingest_quota_rejects_with_retry_after(self):
        quota = TenantQuota(ingest_boxes_per_sec=10.0, ingest_burst_boxes=10.0)
        service = tenanted_service(acme_quota=quota)
        config = ServerConfig(max_batch=16, max_delay=0.002,
                              admin_token=ADMIN_TOKEN)
        with ThreadedServer(service, config=config) as handle:
            boxes = synthetic_boxes(DOMAIN, 10, seed=3)
            with client_for(handle, token=ACME_TOKEN) as acme:
                register_join(acme)
                acme.ingest("join", boxes, side="left")
                with pytest.raises(QuotaExceededError) as info:
                    acme.ingest("join", boxes, side="left")
                assert info.value.retry_after > 0.0
                # The well-behaved tenant is untouched by acme's rejection.
                with client_for(handle, token=GLOBEX_TOKEN) as globex:
                    register_join(globex)
                    globex.ingest("join", boxes, side="left")
                exposition = acme.metrics()
            assert ('repro_server_tenant_quota_rejected_total{tenant="acme"} 1'
                    in exposition)
            assert ('repro_server_tenant_requests_total'
                    '{tenant="globex",op="ingest"} 1' in exposition)

    def test_quota_update_takes_effect_live(self):
        quota = TenantQuota(ingest_boxes_per_sec=5.0, ingest_burst_boxes=5.0)
        service = tenanted_service(acme_quota=quota)
        config = ServerConfig(max_batch=16, max_delay=0.002,
                              admin_token=ADMIN_TOKEN)
        with ThreadedServer(service, config=config) as handle:
            boxes = synthetic_boxes(DOMAIN, 40, seed=4)
            with client_for(handle, token=ACME_TOKEN) as acme, \
                    client_for(handle, token=ADMIN_TOKEN) as admin:
                register_join(acme)
                # The debt model admits one oversized batch; the debt then
                # blocks the next one.
                acme.ingest("join", boxes, side="left")
                with pytest.raises(QuotaExceededError):
                    acme.ingest("join", boxes, side="left")
                admin.tenant("update", tenant="acme",
                             quota={"ingest_boxes_per_sec": 1e6,
                                    "ingest_burst_boxes": 1e6})
                acme.ingest("join", boxes, side="left")


class TestTenantVerb:
    def test_admin_lifecycle_over_the_wire(self, tenant_server):
        with client_for(tenant_server, token=ADMIN_TOKEN) as admin:
            created = admin.tenant("create", tenant="initech", token="in-tok",
                                   quota={"share": 2})
            assert created["record"]["quota"]["share"] == 2
            assert admin.tenant("list")["tenants"]["tenants"] == 3
            described = admin.tenant("describe", tenant="initech")
            assert described["record"]["tenant_id"] == "initech"
            admin.tenant("remove", tenant="initech")
            assert "initech" not in admin.tenant("list")["tenants"]["ids"]
        with client_for(tenant_server) as client:
            with pytest.raises(AuthenticationError):
                client.auth("in-tok")

    def test_tenant_may_only_describe_itself(self, tenant_server):
        with client_for(tenant_server, token=ACME_TOKEN) as acme:
            described = acme.tenant("describe")
            assert described["record"]["tenant_id"] == "acme"
            assert "token_hash" not in described["record"]
            with pytest.raises(AuthenticationError):
                acme.tenant("describe", tenant="globex")


class TestTenantCli:
    def test_tenant_verb_lifecycle(self, tenant_server, capsys):
        import json as jsonlib

        from repro.cli import main

        addr = f"127.0.0.1:{tenant_server.port}"
        assert main(["tenant", "create", "--connect", addr,
                     "--token", ADMIN_TOKEN, "--tenant", "initech",
                     "--tenant-token", "in-tok",
                     "--quota", '{"share": 2}']) == 0
        created = jsonlib.loads(capsys.readouterr().out)
        assert created["record"]["quota"]["share"] == 2
        assert main(["tenant", "list", "--connect", addr,
                     "--token", ADMIN_TOKEN, "--json"]) == 0
        listing = capsys.readouterr().out
        assert listing.count("\n") == 1  # --json is one compact line
        assert "initech" in jsonlib.loads(listing)["tenants"]["ids"]
        # A tenant token gets its own self-describe, hash withheld.
        assert main(["tenant", "describe", "--connect", addr,
                     "--token", "in-tok"]) == 0
        described = jsonlib.loads(capsys.readouterr().out)
        assert described["record"]["tenant_id"] == "initech"
        assert "token_hash" not in described["record"]
        assert main(["tenant", "remove", "--connect", addr,
                     "--token", ADMIN_TOKEN, "--tenant", "initech"]) == 0
        capsys.readouterr()

    def test_bad_quota_json_is_a_clean_error(self, tenant_server, capsys):
        from repro.cli import main

        addr = f"127.0.0.1:{tenant_server.port}"
        assert main(["tenant", "create", "--connect", addr,
                     "--token", ADMIN_TOKEN, "--tenant", "x",
                     "--tenant-token", "t", "--quota", "not json"]) == 1
        assert "--quota must be a JSON object" in capsys.readouterr().err


class TestSingleTenantBitIdentical:
    def test_tenant_namespace_matches_untenanted_server(self):
        """Same spec + same ingests => bit-identical estimates, tenancy on
        or off (the acceptance invariant: namespacing changes routing,
        never estimator state)."""
        boxes_left = synthetic_boxes(DOMAIN, 120, seed=11)
        boxes_right = synthetic_boxes(DOMAIN, 120, seed=12)

        def drive(client: ServiceClient) -> tuple:
            register_join(client)
            client.ingest("join", boxes_left, side="left")
            client.ingest("join", boxes_right, side="right")
            client.flush()
            result = client.estimate("join")
            return result.estimate, result.left_count, result.right_count

        plain_config = ServerConfig(max_batch=16, max_delay=0.002)
        with ThreadedServer(EstimationService(num_shards=2),
                            config=plain_config) as plain:
            with client_for(plain) as client:
                expected = drive(client)
        tenant_config = ServerConfig(max_batch=16, max_delay=0.002,
                                     admin_token=ADMIN_TOKEN)
        with ThreadedServer(tenanted_service(), config=tenant_config) as handle:
            with client_for(handle, token=ACME_TOKEN) as client:
                assert drive(client) == expected


class TestClientTimeouts:
    def test_read_timeout_raises_typed_error(self):
        """A server that accepts but never replies trips the read deadline."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        stop = threading.Event()

        def silent_accept():
            listener.settimeout(0.2)
            conns = []
            while not stop.is_set():
                try:
                    conns.append(listener.accept()[0])
                except socket.timeout:
                    continue
            for conn in conns:
                conn.close()

        thread = threading.Thread(target=silent_accept, daemon=True)
        thread.start()
        try:
            started = time.monotonic()
            # No handshake: the constructor only connects, and the typed
            # error arrives with the first request, on either wire.
            for wire in ("binary", "ndjson"):
                client = ServiceClient("127.0.0.1", port, timeout=0.5,
                                       wire=wire)
                with pytest.raises(ClientTimeoutError, match="'ping'"):
                    client.ping()
                client.close()
            # Timeouts are never retried: one deadline, not retries x deadline.
            assert time.monotonic() - started < 5.0
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()

    def test_connect_timeout_raises_typed_error(self):
        # A full accept backlog turns connect() into a hang; the client
        # must surface it as ClientTimeoutError within its budget.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        port = listener.getsockname()[1]
        fillers = []
        try:
            # Saturate the backlog so later connects stay pending.
            for _ in range(32):
                filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                filler.setblocking(False)
                try:
                    filler.connect(("127.0.0.1", port))
                except BlockingIOError:
                    pass
                fillers.append(filler)
            # The client connects eagerly, so the constructor itself trips.
            with pytest.raises(ClientTimeoutError):
                ServiceClient("127.0.0.1", port, timeout=0.3)
        finally:
            for filler in fillers:
                filler.close()
            listener.close()


class TestMaxFrameBytes:
    def test_cli_flag_limits_both_wire_formats(self):
        worker = spawn_worker(shards=2,
                              extra_args=("--max-frame-bytes", "4096"))
        try:
            # ~9.6 KB of boxes: over the 4 KB limit but small enough for
            # the binary path to drain and answer with a structured error.
            big = synthetic_boxes(DOMAIN, 300, seed=5)
            for wire in ("ndjson", "binary"):
                with ServiceClient(worker.host, worker.port,
                                   wire=wire) as client:
                    register_join(client, name=f"r-{wire}")
                    with pytest.raises(FrameTooLargeError):
                        client.ingest(f"r-{wire}", big, side="left")
                    # The connection survives with a structured error.
                    assert client.ping()["ok"]
        finally:
            worker.stop()


class TestClusterTenancy:
    def test_tenant_identity_flows_through_the_router(self):
        workers = [spawn_worker(shards=2,
                                extra_args=("--admin-token", "fleet-secret"))
                   for _ in range(2)]
        config = RouterConfig(admin_token=ADMIN_TOKEN,
                              worker_token="fleet-secret")
        try:
            addresses = [(w.host, w.port) for w in workers]
            with RouterThread(addresses, config) as handle:
                with ServiceClient("127.0.0.1", handle.port,
                                   token=ADMIN_TOKEN) as admin:
                    admin.tenant("create", tenant="acme", token=ACME_TOKEN)
                    admin.tenant("create", tenant="globex", token=GLOBEX_TOKEN)
                boxes = synthetic_boxes(DOMAIN, 80, seed=6)
                with ServiceClient("127.0.0.1", handle.port,
                                   token=ACME_TOKEN) as acme:
                    register_join(acme)
                    acme.ingest("join", boxes, side="left")
                    acme.ingest("join", boxes, side="right")
                    acme.flush()
                    result = acme.estimate("join")
                    assert result.left_count == 80
                    assert result.right_count == 80
                with ServiceClient("127.0.0.1", handle.port,
                                   token=GLOBEX_TOKEN) as globex:
                    register_join(globex)
                    globex.flush()
                    assert "before any data" in str(
                        _estimate_error(globex, "join"))
                with ServiceClient("127.0.0.1", handle.port,
                                   token=ADMIN_TOKEN) as admin:
                    stats = admin.stats()
                    assert sorted(stats["estimators"]) == [
                        "acme/join", "globex/join"]
                    exposition = admin.metrics()
                assert ('repro_cluster_tenant_requests_total{tenant="acme",'
                        'op="estimate"} 1' in exposition)
                # Unauthenticated data-plane access is refused at the edge.
                with ServiceClient("127.0.0.1", handle.port) as anon:
                    with pytest.raises(AuthenticationError):
                        anon.stats()
        finally:
            for worker in workers:
                worker.stop()
