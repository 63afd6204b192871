"""Tenancy primitives: registry, quotas (property-based) and tenant-aware
persistence (snapshot embed + WAL replay).  Namespace isolation over the
wire is pinned in ``test_tenancy_server.py``."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain
from repro.errors import (
    AuthenticationError,
    QuotaExceededError,
    ServiceError,
)
from repro.server.protocol import boxes_from_rows
from repro.service import EstimationService
from repro.tenancy import (
    TenantAdmission,
    TenantQuota,
    TenantRecord,
    TenantRegistry,
    TokenBucket,
    hash_token,
    namespaced,
    validate_tenant_id,
)
from repro.wal.recovery import recover_service
from repro.wal.writer import WalWriter

DOMAIN = Domain.square(256, dimension=2)


def register_join(target, name="join", seed=3):
    target.register(name, family="rectangle", domain=DOMAIN,
                    num_instances=16, seed=seed)


def one_box():
    return boxes_from_rows([[0, 0, 10, 10]], 2)


class TestNaming:
    def test_namespaced(self):
        assert namespaced("acme", "join") == "acme/join"

    def test_tenant_id_validation(self):
        assert validate_tenant_id("acme-1.prod") == "acme-1.prod"
        for bad in ("", "has space", "a/b", ".leading", "*admin*"):
            with pytest.raises(ServiceError):
                validate_tenant_id(bad)

    def test_adversarial_names_stay_inside_the_namespace(self):
        # The prefix is *applied*, never parsed from caller input, so a
        # name that mimics another tenant's namespace nests harmlessly.
        assert namespaced("me", "other/join") == "me/other/join"

    def test_hash_token_is_stable_and_rejects_empty(self):
        assert hash_token("secret") == hash_token("secret")
        assert hash_token("secret") != hash_token("secret2")
        with pytest.raises(ServiceError):
            hash_token("")


class TestRegistry:
    def test_create_authenticate_and_reject(self):
        registry = TenantRegistry()
        record = registry.create("acme", token="tok-a")
        assert registry.authenticate("tok-a").tenant_id == "acme"
        assert record.token_hash == hash_token("tok-a")
        with pytest.raises(AuthenticationError):
            registry.authenticate("wrong")

    def test_duplicate_id_and_token_rejected(self):
        registry = TenantRegistry()
        registry.create("acme", token="tok-a")
        with pytest.raises(ServiceError):
            registry.create("acme", token="tok-b")
        with pytest.raises(ServiceError):
            registry.create("globex", token="tok-a")

    def test_disable_blocks_authentication(self):
        registry = TenantRegistry()
        registry.create("acme", token="tok-a")
        registry.update("acme", disabled=True)
        with pytest.raises(AuthenticationError):
            registry.authenticate("tok-a")
        registry.update("acme", disabled=False)
        assert registry.authenticate("tok-a").tenant_id == "acme"

    def test_token_rotation_reindexes(self):
        registry = TenantRegistry()
        registry.create("acme", token="old")
        registry.update("acme", token="new")
        assert registry.authenticate("new").tenant_id == "acme"
        with pytest.raises(AuthenticationError):
            registry.authenticate("old")

    def test_remove_forgets_both_indexes(self):
        registry = TenantRegistry()
        registry.create("acme", token="tok-a")
        registry.remove("acme")
        assert "acme" not in registry
        with pytest.raises(AuthenticationError):
            registry.authenticate("tok-a")

    def test_state_round_trip(self):
        registry = TenantRegistry()
        registry.create("acme", token="tok-a",
                        quota=TenantQuota(ingest_boxes_per_sec=42.0, share=3))
        registry.create("globex", token="tok-g")
        registry.update("globex", disabled=True)
        clone = TenantRegistry.from_state(registry.to_state())
        assert clone.ids() == ["acme", "globex"]
        assert clone.get("acme").quota.share == 3
        assert clone.get("globex").disabled
        assert clone.authenticate("tok-a").tenant_id == "acme"


class TestTokenBucketProperties:
    @given(st.lists(st.tuples(st.integers(1, 50),
                              st.floats(0.0, 2.0)), max_size=40),
           st.floats(1.0, 100.0), st.floats(1.0, 200.0))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_replay(self, ops, rate, capacity):
        """Same request sequence against the explicit clock -> same answers."""
        def run():
            bucket = TokenBucket(rate, capacity, now=0.0)
            now, out = 0.0, []
            for n, dt in ops:
                now += dt
                out.append(bucket.try_acquire(n, now))
            return out

        assert run() == run()

    @given(st.lists(st.tuples(st.integers(1, 50),
                              st.floats(0.0, 1.0)), max_size=60),
           st.floats(1.0, 50.0), st.floats(1.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_conservation_bound(self, ops, rate, capacity):
        """Admitted work never exceeds burst + refill + one batch of debt.

        The bucket admits a batch when it holds min(n, capacity) tokens and
        charges the full n (possibly into debt), so total admitted work is
        bounded by capacity + rate * elapsed + max batch size.
        """
        bucket = TokenBucket(rate, capacity, now=0.0)
        now, admitted, max_batch = 0.0, 0.0, 0.0
        for n, dt in ops:
            now += dt
            max_batch = max(max_batch, float(n))
            if bucket.try_acquire(n, now) == 0.0:
                admitted += n
        assert admitted <= capacity + rate * now + max_batch + 1e-6

    def test_retry_after_names_a_sufficient_wait(self):
        bucket = TokenBucket(10.0, 10.0, now=0.0)
        assert bucket.try_acquire(10, 0.0) == 0.0
        delay = bucket.try_acquire(5, 0.0)
        assert delay > 0.0
        # Waiting the advertised delay makes the same request admissible.
        assert bucket.try_acquire(5, delay) == 0.0

    def test_clock_going_backwards_is_clamped(self):
        bucket = TokenBucket(10.0, 10.0, now=100.0)
        assert bucket.try_acquire(10, 100.0) == 0.0
        assert bucket.try_acquire(1, 50.0) > 0.0  # no refill from the past
        assert bucket.try_acquire(1, 100.5) == 0.0


class TestTenantAdmission:
    def test_ingest_rejection_carries_retry_after(self):
        quota = TenantQuota(ingest_boxes_per_sec=10.0, ingest_burst_boxes=10.0)
        admission = TenantAdmission("acme", quota, now=0.0)
        admission.admit_ingest(10, 0.0)
        with pytest.raises(QuotaExceededError) as info:
            admission.admit_ingest(10, 0.0)
        assert info.value.retry_after > 0.0
        assert admission.describe(0.0)["ingest_rejections"] == 1
        admission.admit_ingest(10, info.value.retry_after + 0.01)

    def test_estimate_in_flight_limit(self):
        quota = TenantQuota(max_estimates_in_flight=2)
        admission = TenantAdmission("acme", quota, now=0.0)
        admission.acquire_estimate()
        admission.acquire_estimate()
        with pytest.raises(QuotaExceededError):
            admission.acquire_estimate()
        admission.release_estimate()
        admission.acquire_estimate()


class TestTenantPersistence:
    def test_snapshot_embeds_the_registry(self, tmp_path):
        service = EstimationService(num_shards=2)
        service.tenant_create(
            "acme", token="tok-a",
            quota=TenantQuota(ingest_boxes_per_sec=99.0, share=4))
        register_join(service, namespaced("acme", "join"))
        path = tmp_path / "tenants.sketch"
        service.save(path)
        restored = EstimationService.load(path)
        assert restored.tenants is not None
        record = restored.tenants.authenticate("tok-a")
        assert record.quota.ingest_boxes_per_sec == 99.0
        assert record.quota.share == 4
        assert restored.names() == ["acme/join"]

    def test_snapshot_without_tenants_stays_untenanted(self, tmp_path):
        service = EstimationService(num_shards=2)
        path = tmp_path / "plain.sketch"
        service.save(path)
        assert EstimationService.load(path).tenants is None

    def test_wal_replays_tenant_lifecycle(self, tmp_path):
        wal_dir = tmp_path / "wal"
        os.makedirs(wal_dir)
        base = str(tmp_path / "base.sketch")
        service = EstimationService(num_shards=2)
        service.save(base)
        service.attach_wal(WalWriter(str(wal_dir), base=base))
        service.tenant_create("acme", token="tok-a")
        service.tenant_create("globex", token="tok-g")
        name = namespaced("acme", "r")
        register_join(service, name)
        service.ingest(name, one_box(), side="left")
        service.flush()
        service.tenant_update("globex", disabled=True)
        service.tenant_remove("acme")
        service.detach_wal()

        recovered, report = recover_service(str(wal_dir), base)
        assert report.replayed_records >= 5
        registry = recovered.tenants
        assert registry.ids() == ["globex"]
        assert registry.get("globex").disabled
        # acme's estimators went with the tenant, on replay too.
        assert recovered.names() == []

    def test_upsert_replay_is_idempotent(self):
        registry = TenantRegistry()
        record = TenantRecord(tenant_id="acme", token_hash=hash_token("t"),
                              quota=TenantQuota(), created_at=1.0,
                              disabled=False)
        registry.upsert(record)
        registry.upsert(record)
        assert len(registry) == 1
