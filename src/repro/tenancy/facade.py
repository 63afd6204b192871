"""A tenant-scoped view over one shared :class:`EstimationService`.

``TenantFacade`` is the embedding-API face of multi-tenancy: every
estimator name a tenant mentions is mapped through
:func:`~repro.tenancy.registry.namespaced` (``tenant_id/name``) before it
touches the shared store, and every name the facade reports is mapped
back.  Because the prefix is *always* applied — never parsed out of
caller input — a tenant cannot name, estimate against, list, or
unregister anything outside its own namespace, even with adversarial
names like ``"other/join"`` (which simply becomes
``"me/other/join"``).  The network server enforces the same mapping per
connection; this class is the in-process equivalent and the unit the
isolation tests pin.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ServiceError

from .registry import TENANT_SEP, namespaced, validate_tenant_id


class TenantFacade:
    """Namespace-scoped proxy for one tenant over a shared service."""

    def __init__(self, service: Any, tenant_id: str) -> None:
        validate_tenant_id(tenant_id)
        self._service = service
        self.tenant_id = tenant_id
        self._prefix = tenant_id + TENANT_SEP

    def _full(self, name: str) -> str:
        if not isinstance(name, str) or not name:
            raise ServiceError("estimator name must be a non-empty string")
        return namespaced(self.tenant_id, name)

    def _short(self, full_name: str) -> str:
        return full_name[len(self._prefix):]

    # -- registration --------------------------------------------------

    def register(self, name: str, spec=None, **kwargs):
        return self._service.register(self._full(name), spec, **kwargs)

    def unregister(self, name: str) -> None:
        self._service.unregister(self._full(name))

    # -- ingestion -----------------------------------------------------

    def ingest(self, name: str, boxes, *, side: str = "left",
               kind: str = "insert") -> int:
        return self._service.ingest(self._full(name), boxes,
                                    side=side, kind=kind)

    def insert(self, name: str, boxes, *, side: str = "left") -> int:
        return self.ingest(name, boxes, side=side, kind="insert")

    def delete(self, name: str, boxes, *, side: str = "left") -> int:
        return self.ingest(name, boxes, side=side, kind="delete")

    def flush(self, **kwargs):
        return self._service.flush(**kwargs)

    # -- query side ----------------------------------------------------

    def estimate(self, name: str, query=None):
        return self._service.estimate(self._full(name), query)

    def estimate_batch(self, name: str, queries):
        return self._service.estimate_batch(self._full(name), queries)

    def estimate_multi(self, requests):
        mapped = [(self._full(name), query) for name, query in requests]
        return self._service.estimate_multi(mapped)

    def merged_view(self, name: str):
        return self._service.merged_view(self._full(name))

    # -- introspection -------------------------------------------------

    def names(self) -> list[str]:
        return [self._short(full) for full in self._service.names()
                if full.startswith(self._prefix)]

    def __contains__(self, name: str) -> bool:
        return self._full(name) in self._service

    def spec(self, name: str):
        return self._service.spec(self._full(name))

    def describe(self) -> dict:
        """The shared service's summary filtered to this tenant's names."""
        full = self._service.describe()
        return {
            "tenant": self.tenant_id,
            "num_shards": full["num_shards"],
            "estimators": {self._short(name): spec
                           for name, spec in full["estimators"].items()
                           if name.startswith(self._prefix)},
            "cached_views": [self._short(name)
                             for name in full["cached_views"]
                             if name.startswith(self._prefix)],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TenantFacade({self.tenant_id!r}, names={self.names()})"
