"""Connection authentication and per-request tenant scoping.

The auth handshake, the op gating table and the namespace rewriting that
:class:`~repro.server.front.ServingFront` applies to every request, for a
single server and a cluster router alike.

The model: a connection starts unauthenticated.  An ``{"op": "auth",
"token": ...}`` step binds it to a *principal* — a tenant id from the
registry, or the :data:`ADMIN` sentinel when the token matches the
server's configured admin token.  When the backing service has a tenant
registry attached, every request is then resolved through
:func:`resolve_scope`:

* unauthenticated connections keep only the read-only surface
  (``auth``/``metrics``/``ping``/``quit``),
* tenant connections get the data-plane ops with every estimator name
  rewritten to ``tenant/name`` (the tenant cannot *express* a name
  outside its namespace, so isolation is structural, not checked),
* admin connections get everything unscoped — and may act *on behalf
  of* a tenant via a ``tenant`` request field, which is how a cluster
  router forwards tenant identity over its (admin-authenticated) worker
  links.  Such forwarded requests carry ``scoped: true``: their names
  are already namespaced and quota was already enforced at the edge.

Without a registry nothing changes: every op is open, exactly the
pre-tenancy behavior (the whole existing test surface runs this way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import AuthenticationError
from repro.server import protocol
from repro.tenancy import TENANT_SEP, hash_token, namespaced

#: Principal bound by the admin token.  Contains characters a tenant id
#: may not, so it can never collide with a registry entry.
ADMIN = "*admin*"

#: The gate, read off the op table: ops an unauthenticated connection keeps
#: when tenancy is enforced (auth/quit are handled inline by the
#: connection loop); ops a tenant-bound connection may use — everything
#: else (snapshot, reload, cluster_status) is server administration;
#: ops whose ``name`` field addresses an estimator and gets namespaced.
UNAUTH_OPS = frozenset(op for op, descriptor in protocol.OPS.items()
                       if descriptor.access == "open")
TENANT_OPS = frozenset(op for op, descriptor in protocol.OPS.items()
                       if descriptor.access != "admin")
NAMED_OPS = frozenset(op for op, descriptor in protocol.OPS.items()
                      if any(f.name == "name" for f in descriptor.fields))


@dataclass(frozen=True)
class Scope:
    """The resolved view of one request after gating."""

    #: Effective tenant for metrics labels and fair-share queueing.
    tenant: str | None
    #: The tenant's registry record (None for admin/untenanted requests).
    record: Any
    #: True only for directly-authenticated tenant connections: quotas are
    #: enforced at the authenticating edge, not re-charged when an admin
    #: link (a router) forwards already-admitted work.
    enforce_quota: bool
    #: True when the request's estimator name is the tenant's own and still
    #: has to be rewritten to ``tenant/name`` (see :meth:`fields`).
    namespace: bool = False

    def fields(self, op: str, request: Mapping[str, Any]) -> dict:
        """The request's validated fields, its name namespaced."""
        fields = protocol.read(op, request)
        if self.namespace:
            fields["name"] = namespaced(self.tenant, fields["name"])
        return fields


def authenticate_request(registry, admin_token_hash: str | None,
                         request: Mapping) -> tuple[dict, str | None]:
    """The server side of the ``auth`` op: ``(reply, principal | None)``."""
    token = protocol.read("auth", request)["token"]
    if not token:
        return protocol.error_payload(
            "auth requires a non-empty token field", code="auth_failed",
            op="auth", request=request), None
    if admin_token_hash is not None and hash_token(token) == admin_token_hash:
        return protocol.ok_payload("auth", request, role="admin"), ADMIN
    if registry is None:
        return protocol.error_payload(
            "this server has no tenant registry (and the token is not the "
            "admin token)", code="auth_failed", op="auth", request=request), None
    try:
        record = registry.authenticate(token)
    except AuthenticationError as exc:
        return protocol.error_payload_for(exc, op="auth", request=request), None
    return protocol.ok_payload("auth", request, role="tenant",
                               tenant=record.tenant_id), record.tenant_id


def resolve_scope(registry, principal: str | None, request: Mapping) -> Scope:
    """Gate one request and decide whose namespace its name lives in.

    Raises :class:`AuthenticationError` (``auth_required`` /
    ``auth_failed``) when the principal may not issue this op.
    """
    if registry is None:
        # No registry: open server, zero behavior change.  (An admin
        # principal can exist here — a server configured with only an
        # admin token — and simply gets the same full access.)
        return Scope(None, None, False)
    op = str(request.get("op", ""))
    if principal is None:
        if op in UNAUTH_OPS:
            return Scope(None, None, False)
        raise AuthenticationError(
            f"op {op!r} requires authentication on this server "
            "(send {\"op\": \"auth\", \"token\": ...} first)",
            code="auth_required")
    if principal == ADMIN:
        # What protocol.build adds under acting_for, honoured here only.
        tenant_id, scoped = request.get("tenant"), request.get("scoped")
        # The ``tenant`` op's tenant field names the *subject* of
        # administration (possibly not yet created), never an
        # impersonation target.
        if tenant_id is None or op == "tenant":
            return Scope(None, None, False)
        record = registry.get(str(tenant_id))
        if record is None or record.disabled:
            raise AuthenticationError(
                f"cannot act for unknown or disabled tenant {tenant_id!r}")
        return Scope(record.tenant_id, record, False,
                     namespace=not scoped and op in NAMED_OPS)
    record = registry.get(principal)
    if record is None or record.disabled:
        raise AuthenticationError(
            f"tenant {principal!r} was disabled or removed")
    if op not in TENANT_OPS:
        raise AuthenticationError(f"op {op!r} requires admin access")
    return Scope(principal, record, True, namespace=op in NAMED_OPS)


def unscope_reply(payload: dict, tenant: str) -> dict:
    """Strip the tenant prefix from a reply's echoed ``name`` field."""
    prefix = tenant + TENANT_SEP
    name = payload.get("name")
    if isinstance(name, str) and name.startswith(prefix):
        payload["name"] = name[len(prefix):]
    return payload


def scoped_stats(stats: dict, tenant: str) -> dict:
    """Filter a ``stats`` reply body to one tenant's namespace."""
    prefix = tenant + TENANT_SEP
    scoped = dict(stats)
    scoped["tenant"] = tenant
    estimators = stats.get("estimators")
    if isinstance(estimators, dict):
        scoped["estimators"] = {
            name[len(prefix):]: spec for name, spec in estimators.items()
            if name.startswith(prefix)}
    cached = stats.get("cached_views")
    if isinstance(cached, list):
        scoped["cached_views"] = [name[len(prefix):] for name in cached
                                  if isinstance(name, str)
                                  and name.startswith(prefix)]
    # Registry-wide and operator-facing blocks (a router's fleet topology
    # among them) are not a tenant's business.
    for key in ("wal", "tenants", "cluster"):
        scoped.pop(key, None)
    return scoped
