"""Tenant registry: identities, hashed API tokens, quotas, namespaces.

A tenant is an isolation domain inside one :class:`EstimationService`:
its estimators live under a ``tenant_id/name`` namespace, its requests
are admitted against its own quota, and its traffic shows up under its
own metric labels.  The registry is the source of truth for all of that:

* :func:`hash_token` — tokens are never stored; only their SHA-256 hex
  digest is kept (and snapshotted / WAL-journaled).
* :class:`TenantQuota` — declarative limits: ingest boxes/sec (token
  bucket), estimates in flight, and a weighted-round-robin ``share``
  used by the server coalescer's fair-share drain.
* :class:`TenantRecord` — one tenant: id, token hash, quota, created
  timestamp, disabled flag.
* :class:`TenantRegistry` — thread-safe id- and token-indexed store with
  a plain-JSON ``to_state``/``from_state`` round trip so the binary v2
  snapshot and the WAL can persist it without special cases.

The namespacing helper :func:`namespaced` lives here too; tenant ids may
not contain ``/`` so the mapping is unambiguous in both directions.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from dataclasses import dataclass, field, replace

from repro.errors import AuthenticationError, ServiceError

TENANT_SEP = "/"
_TENANT_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def hash_token(token: str) -> str:
    """SHA-256 hex digest of an API token (the only form ever stored)."""
    if not isinstance(token, str) or not token:
        raise ServiceError("API token must be a non-empty string")
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def validate_tenant_id(tenant_id: str) -> str:
    """Check a tenant id (no ``/``, so namespacing stays reversible)."""
    if not isinstance(tenant_id, str) or not _TENANT_ID_RE.match(tenant_id):
        raise ServiceError(
            f"invalid tenant id {tenant_id!r}: must match "
            "[A-Za-z0-9][A-Za-z0-9_.-]* (no '/')")
    return tenant_id


def namespaced(tenant_id: str, name: str) -> str:
    """Map a tenant-visible estimator name into the shared flat store."""
    return f"{tenant_id}{TENANT_SEP}{name}"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits; ``None`` means unlimited.

    ``ingest_boxes_per_sec`` feeds a token bucket whose burst capacity is
    ``ingest_burst_boxes`` (defaults to one second of rate).  ``share``
    is the tenant's weight in the coalescer's round-robin drain — a
    tenant with share 3 gets up to 3 queued estimates dequeued per cycle
    for every 1 of a share-1 tenant.
    """

    ingest_boxes_per_sec: float | None = None
    ingest_burst_boxes: float | None = None
    max_estimates_in_flight: int | None = None
    share: int = 1

    def __post_init__(self) -> None:
        if self.ingest_boxes_per_sec is not None and self.ingest_boxes_per_sec <= 0:
            raise ServiceError("ingest_boxes_per_sec must be positive")
        if self.ingest_burst_boxes is not None and self.ingest_burst_boxes <= 0:
            raise ServiceError("ingest_burst_boxes must be positive")
        if (self.max_estimates_in_flight is not None
                and self.max_estimates_in_flight < 1):
            raise ServiceError("max_estimates_in_flight must be >= 1")
        if self.share < 1:
            raise ServiceError("share must be >= 1")

    def to_dict(self) -> dict:
        return {
            "ingest_boxes_per_sec": self.ingest_boxes_per_sec,
            "ingest_burst_boxes": self.ingest_burst_boxes,
            "max_estimates_in_flight": self.max_estimates_in_flight,
            "share": self.share,
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "TenantQuota":
        data = data or {}
        return cls(
            ingest_boxes_per_sec=data.get("ingest_boxes_per_sec"),
            ingest_burst_boxes=data.get("ingest_burst_boxes"),
            max_estimates_in_flight=data.get("max_estimates_in_flight"),
            share=int(data.get("share", 1)),
        )


@dataclass(frozen=True)
class TenantRecord:
    """One registered tenant (the unit the registry stores and journals)."""

    tenant_id: str
    token_hash: str
    quota: TenantQuota = field(default_factory=TenantQuota)
    created_at: float = 0.0
    disabled: bool = False

    def to_dict(self) -> dict:
        return {
            "tenant_id": self.tenant_id,
            "token_hash": self.token_hash,
            "quota": self.quota.to_dict(),
            "created_at": self.created_at,
            "disabled": self.disabled,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantRecord":
        return cls(
            tenant_id=validate_tenant_id(data["tenant_id"]),
            token_hash=str(data["token_hash"]),
            quota=TenantQuota.from_dict(data.get("quota")),
            created_at=float(data.get("created_at", 0.0)),
            disabled=bool(data.get("disabled", False)),
        )


class TenantRegistry:
    """Thread-safe tenant store indexed by id and by token hash."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._by_id: dict[str, TenantRecord] = {}
        self._by_token: dict[str, str] = {}

    # -- CRUD ----------------------------------------------------------

    def create(self, tenant_id: str, *, token: str,
               quota: TenantQuota | None = None,
               created_at: float | None = None) -> TenantRecord:
        validate_tenant_id(tenant_id)
        record = TenantRecord(
            tenant_id=tenant_id,
            token_hash=hash_token(token),
            quota=quota or TenantQuota(),
            created_at=time.time() if created_at is None else float(created_at),
        )
        with self._lock:
            if tenant_id in self._by_id:
                raise ServiceError(f"tenant {tenant_id!r} already exists")
            if record.token_hash in self._by_token:
                raise ServiceError("token already in use by another tenant")
            self._index(record)
        return record

    def upsert(self, record: TenantRecord) -> TenantRecord:
        """Install a record verbatim (WAL replay / snapshot restore path)."""
        with self._lock:
            owner = self._by_token.get(record.token_hash)
            if owner is not None and owner != record.tenant_id:
                raise ServiceError("token already in use by another tenant")
            self._unindex(record.tenant_id)
            self._index(record)
        return record

    def update(self, tenant_id: str, *, token: str | None = None,
               quota: TenantQuota | None = None,
               disabled: bool | None = None) -> TenantRecord:
        with self._lock:
            record = self.require(tenant_id)
            changes: dict = {}
            if token is not None:
                token_hash = hash_token(token)
                owner = self._by_token.get(token_hash)
                if owner is not None and owner != tenant_id:
                    raise ServiceError("token already in use by another tenant")
                changes["token_hash"] = token_hash
            if quota is not None:
                changes["quota"] = quota
            if disabled is not None:
                changes["disabled"] = bool(disabled)
            record = replace(record, **changes)
            self._unindex(tenant_id)
            self._index(record)
        return record

    def remove(self, tenant_id: str) -> TenantRecord:
        with self._lock:
            record = self.require(tenant_id)
            self._unindex(tenant_id)
        return record

    def _index(self, record: TenantRecord) -> None:
        self._by_id[record.tenant_id] = record
        self._by_token[record.token_hash] = record.tenant_id

    def _unindex(self, tenant_id: str) -> None:
        record = self._by_id.pop(tenant_id, None)
        if record is not None:
            self._by_token.pop(record.token_hash, None)

    # -- lookup --------------------------------------------------------

    def get(self, tenant_id: str) -> TenantRecord | None:
        with self._lock:
            return self._by_id.get(tenant_id)

    def require(self, tenant_id: str) -> TenantRecord:
        record = self.get(tenant_id)
        if record is None:
            raise ServiceError(f"unknown tenant {tenant_id!r}")
        return record

    def authenticate(self, token: str) -> TenantRecord:
        """Token -> active tenant, or :class:`AuthenticationError`."""
        token_hash = hash_token(token)
        with self._lock:
            tenant_id = self._by_token.get(token_hash)
            record = self._by_id.get(tenant_id) if tenant_id else None
        if record is None:
            raise AuthenticationError("unknown API token")
        if record.disabled:
            raise AuthenticationError(f"tenant {record.tenant_id!r} is disabled")
        return record

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._by_id)

    def __contains__(self, tenant_id: str) -> bool:
        return self.get(tenant_id) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    # -- persistence ---------------------------------------------------

    def to_state(self) -> dict:
        """Plain-JSON form embedded in the header of binary v2 snapshots."""
        with self._lock:
            records = [self._by_id[tid].to_dict() for tid in sorted(self._by_id)]
        return {"version": 1, "records": records}

    @classmethod
    def from_state(cls, state: dict | None) -> "TenantRegistry":
        registry = cls()
        for data in (state or {}).get("records", ()):
            registry.upsert(TenantRecord.from_dict(data))
        return registry

    def describe(self) -> dict:
        """Summary block for ``service.describe()`` / the ``stats`` verb."""
        with self._lock:
            records = dict(self._by_id)
        return {
            "tenants": len(records),
            "disabled": sum(1 for r in records.values() if r.disabled),
            "ids": sorted(records),
        }
