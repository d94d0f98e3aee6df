"""Tenants: identity, entity-namespace isolation and admission control.

A tenant is one consumer of the north-facing API — a farm dashboard, an
analytics job, an operations console.  Each tenant gets:

* an **IdM principal** (``kind="service"``) with a per-tenant role, and an
  OAuth2 client-credentials token it must present as bearer on every
  request (enforced through the existing ``security.auth`` PEP/PDP);
* an **entity namespace**: prefix lists bounding which entity ids it may
  read and write.  Isolation is enforced twice — PDP policies scoped to
  the tenant's role, and a service-side prefix check that also scopes
  collection queries (a tenant can never see another tenant's entities
  in a listing, not just fail to fetch them);
* **admission control** reusing the resilience primitives: a
  :class:`~repro.resilience.backpressure.RateLimiter` quota window
  (over-quota → 429) in front of a
  :class:`~repro.resilience.backpressure.BoundedQueue` backlog
  (burst beyond backlog capacity → 503).  Both are driven by sim time
  and never draw randomness, so admission decisions are deterministic.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.resilience.backpressure import BoundedQueue, DropPolicy, RateLimiter
from repro.security.auth.oauth import Token

__all__ = ["Tenant", "TenantQuota", "TenantSpec"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission budget.

    ``max_requests_per_window`` requests are admitted per ``window_s``
    seconds of *simulation* time; beyond that the service answers 429
    until the window rolls.  ``max_backlog`` bounds how many admitted
    requests may wait in the tenant's queue for the service pump; beyond
    that the service answers 503.
    """

    max_requests_per_window: int = 600
    window_s: float = 60.0
    max_backlog: int = 64


@dataclass(frozen=True)
class TenantSpec:
    """Declarative tenant definition — the serializable half of a tenant.

    This is what request traces carry: replaying a trace re-registers the
    same tenants (same names, secrets, namespaces, quotas) so the same
    seed reproduces the same tokens and the same admission decisions.
    """

    name: str
    secret: str
    read_prefixes: Tuple[str, ...]
    write_prefixes: Tuple[str, ...] = ()
    quota: TenantQuota = field(default_factory=TenantQuota)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "secret": self.secret,
            "read_prefixes": list(self.read_prefixes),
            "write_prefixes": list(self.write_prefixes),
            "quota": {
                "max_requests_per_window": self.quota.max_requests_per_window,
                "window_s": self.quota.window_s,
                "max_backlog": self.quota.max_backlog,
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TenantSpec":
        quota = data.get("quota") or {}
        return cls(
            name=data["name"],
            secret=data["secret"],
            read_prefixes=tuple(data.get("read_prefixes", ())),
            write_prefixes=tuple(data.get("write_prefixes", ())),
            quota=TenantQuota(
                max_requests_per_window=int(quota.get("max_requests_per_window", 600)),
                window_s=float(quota.get("window_s", 60.0)),
                max_backlog=int(quota.get("max_backlog", 64)),
            ),
        )


class Tenant:
    """One registered tenant: spec + live admission/auth state."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.read_prefixes = tuple(spec.read_prefixes)
        self.write_prefixes = tuple(spec.write_prefixes)
        #: Every prefix the tenant may read (its write prefixes too), each
        #: once, in first-seen order.
        self.readable_prefixes = tuple(
            dict.fromkeys(self.read_prefixes + self.write_prefixes))
        self.quota = spec.quota
        self.limiter = RateLimiter(
            spec.quota.max_requests_per_window,
            spec.quota.window_s,
            policy=DropPolicy.REJECT,
        )
        self.backlog = BoundedQueue(spec.quota.max_backlog, policy=DropPolicy.REJECT)
        #: Bearer token granted at registration (re-granted once inactive).
        self.token: Optional[Token] = None
        self.principal_id = spec.name
        # Admission accounting (the service also mirrors these into the
        # metrics registry; plain ints keep the report path allocation-free).
        self.submitted = 0
        self.completed = 0
        self.rejected_quota = 0
        self.rejected_backlog = 0
        self.rejected_auth = 0
        #: Subscription ids this tenant created through the service (the
        #: delivery manager keys queues by tenant name; this is the
        #: reverse index for per-tenant teardown and status pages).
        self.subscription_ids: List[str] = []

    @property
    def role(self) -> str:
        """The PDP role binding this tenant's policies to its principal."""
        return f"svc-tenant:{self.name}"

    def may_read(self, entity_id: str) -> bool:
        return entity_id.startswith(self.readable_prefixes)

    def may_write(self, entity_id: str) -> bool:
        return entity_id.startswith(self.write_prefixes)

    def scope_entities(self, entities: List) -> List:
        """Filter a query result down to this tenant's readable namespace."""
        return [e for e in entities if self.may_read(e.entity_id)]
