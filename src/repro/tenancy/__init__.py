"""Multi-tenant serving: tenant registry and quotas.

See :mod:`repro.tenancy.registry` for the persisted tenant store and the
namespace helpers, and :mod:`repro.tenancy.quota` for deterministic
token-bucket admission.  The network-facing enforcement (auth handshake,
per-connection scoping, fair-share coalescing, metric labels) lives in
:mod:`repro.server` and :mod:`repro.cluster`, all built on these
primitives.
"""

from repro.tenancy.quota import TenantAdmission, TokenBucket
from repro.tenancy.registry import (
    TENANT_SEP,
    TenantQuota,
    TenantRecord,
    TenantRegistry,
    hash_token,
    namespaced,
    validate_tenant_id,
)

__all__ = [
    "TENANT_SEP",
    "TenantAdmission",
    "TenantQuota",
    "TenantRecord",
    "TenantRegistry",
    "TokenBucket",
    "hash_token",
    "namespaced",
    "validate_tenant_id",
]
