"""Seeded multi-tenant load generation and request-trace replay.

A :class:`RequestTrace` is the serializable unit of load: the tenant
specs plus a time-ordered list of requests.  Traces round-trip through
JSON (``save``/``load``) so the CLI can record one, replay it against a
running pilot, and ``cmp`` the response logs — the E19 bit-identity
check (same seed + same trace ⇒ byte-identical log).

Generation is driven by a plain ``random.Random(seed)`` — traces are
offline artifacts, independent of any simulation's RNG streams, so
generating one never perturbs a run.  Replay schedules each request at
its absolute arrival time on the simulation clock and resolves bearer
tokens at fire time (tenants re-grant on expiry, so multi-week traces
survive token TTLs deterministically).
"""

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.app import NgsiService
from repro.service.errors import ServiceError
from repro.service.http import Request
from repro.service.tenancy import TenantSpec

__all__ = [
    "LoadProfile",
    "RequestTrace",
    "TraceRequest",
    "generate_trace",
    "schedule_trace",
    "standard_trace",
]

#: Request kinds a :class:`LoadProfile` mix can draw from.
KINDS = ("list", "entity", "attr", "sth_raw", "sth_rollup", "write")


@dataclass(frozen=True)
class TraceRequest:
    """One request arrival in a trace."""

    at_s: float
    tenant: str
    method: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    body: Optional[Dict[str, Any]] = None
    #: Explicit bearer token override; None = the tenant's live token,
    #: resolved at fire time.  Set to a bogus string to exercise 401s.
    token: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "at_s": self.at_s,
            "tenant": self.tenant,
            "method": self.method,
            "path": self.path,
        }
        if self.params:
            data["params"] = dict(sorted(self.params.items()))
        if self.body is not None:
            data["body"] = self.body
        if self.token is not None:
            data["token"] = self.token
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceRequest":
        return cls(
            at_s=float(data["at_s"]),
            tenant=data["tenant"],
            method=data["method"],
            path=data["path"],
            params=dict(data.get("params", {})),
            body=data.get("body"),
            token=data.get("token"),
        )


@dataclass
class RequestTrace:
    """Tenants + time-ordered request arrivals, JSON round-trippable."""

    name: str
    seed: int
    tenants: List[TenantSpec]
    requests: List[TraceRequest]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "tenants": [spec.to_dict() for spec in self.tenants],
            "requests": [request.to_dict() for request in self.requests],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequestTrace":
        return cls(
            name=data.get("name", "trace"),
            seed=int(data.get("seed", 0)),
            tenants=[TenantSpec.from_dict(t) for t in data.get("tenants", [])],
            requests=[TraceRequest.from_dict(r) for r in data.get("requests", [])],
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "RequestTrace":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    @property
    def duration_s(self) -> float:
        return max((r.at_s for r in self.requests), default=0.0)


@dataclass(frozen=True)
class LoadProfile:
    """One tenant's traffic shape: mean arrival interval + request mix.

    ``mix`` maps request kinds (see :data:`KINDS`) to weights; arrivals
    are exponential around ``interval_s`` starting at ``start_s``.
    """

    spec: TenantSpec
    interval_s: float
    mix: Dict[str, float]
    start_s: float = 0.0

    def __post_init__(self) -> None:
        for kind in self.mix:
            if kind not in KINDS:
                raise ValueError(f"unknown request kind {kind!r}; expected one of {KINDS}")


def _pick(rng: random.Random, mix: Dict[str, float]) -> str:
    kinds = sorted(mix)
    total = sum(mix[k] for k in kinds)
    roll = rng.random() * total
    acc = 0.0
    for kind in kinds:
        acc += mix[kind]
        if roll <= acc:
            return kind
    return kinds[-1]


def generate_trace(
    name: str,
    seed: int,
    duration_s: float,
    profiles: Sequence[LoadProfile],
    entity_ids: Sequence[str],
    entity_type: str = "AgriParcel",
    attr: str = "soilMoisture",
) -> RequestTrace:
    """Seeded synthetic load: same arguments ⇒ the identical trace.

    Read kinds target ``entity_ids`` (the pilot's own entities);
    ``write`` kinds target the tenant's first write prefix, creating
    ``<prefix>station-<i>`` entities on first touch and PATCHing them
    after.  Tenants with no write prefix fall back to reads.
    """
    requests: List[TraceRequest] = []
    for profile in profiles:
        spec = profile.spec
        rng = random.Random(f"{seed}:{name}:{spec.name}")
        readable = [
            e for e in entity_ids
            if any(e.startswith(p) for p in spec.read_prefixes + spec.write_prefixes)
        ]
        created: List[str] = []
        t = profile.start_s + rng.expovariate(1.0 / profile.interval_s)
        while t <= duration_s:
            kind = _pick(rng, profile.mix)
            if kind == "write" and not spec.write_prefixes:
                kind = "list"
            if kind in ("entity", "attr", "sth_raw", "sth_rollup") and not readable:
                kind = "list"
            if kind == "list":
                requests.append(TraceRequest(
                    t, spec.name, "GET", "/v2/entities",
                    params={"type": entity_type, "limit": "100"},
                ))
            elif kind == "entity":
                target = readable[rng.randrange(len(readable))]
                requests.append(TraceRequest(
                    t, spec.name, "GET", f"/v2/entities/{target}"
                ))
            elif kind == "attr":
                target = readable[rng.randrange(len(readable))]
                requests.append(TraceRequest(
                    t, spec.name, "GET", f"/v2/entities/{target}/attrs/{attr}"
                ))
            elif kind == "sth_raw":
                target = readable[rng.randrange(len(readable))]
                requests.append(TraceRequest(
                    t, spec.name, "GET",
                    f"/STH/v1/contextEntities/type/{entity_type}/id/{target}"
                    f"/attributes/{attr}",
                    params={"lastN": "20"},
                ))
            elif kind == "sth_rollup":
                target = readable[rng.randrange(len(readable))]
                requests.append(TraceRequest(
                    t, spec.name, "GET",
                    f"/STH/v1/contextEntities/type/{entity_type}/id/{target}"
                    f"/attributes/{attr}",
                    params={"aggrMethod": "mean", "aggrPeriod": "hour"},
                ))
            else:  # write
                prefix = spec.write_prefixes[0]
                if not created or rng.random() < 0.1:
                    entity_id = f"{prefix}station-{len(created)}"
                    created.append(entity_id)
                    requests.append(TraceRequest(
                        t, spec.name, "POST", "/v2/entities",
                        body={"id": entity_id, "type": "OpsStation",
                              "status": {"value": "idle", "type": "Text"}},
                    ))
                else:
                    entity_id = created[rng.randrange(len(created))]
                    requests.append(TraceRequest(
                        t, spec.name, "PATCH", f"/v2/entities/{entity_id}/attrs",
                        body={"reading": {"value": round(rng.random(), 6)}},
                    ))
            t += rng.expovariate(1.0 / profile.interval_s)
    requests.sort(key=lambda r: (r.at_s, r.tenant, r.method, r.path))
    return RequestTrace(
        name=name,
        seed=seed,
        tenants=[p.spec for p in profiles],
        requests=requests,
    )


def standard_trace(
    seed: int,
    duration_s: float,
    entity_ids: Sequence[str],
    entity_type: str = "AgriParcel",
    attr: str = "soilMoisture",
    farm: str = "pilot",
) -> RequestTrace:
    """The canonical E19 workload: four tenants over one pilot.

    * ``dash-a``/``dash-b`` — read-heavy dashboards with generous quotas
      over the pilot's entity namespace (repeat reads → cache hits);
    * ``ops`` — a writer to its own ``urn:Ops:`` namespace plus light
      reads of the pilot;
    * ``greedy`` — a misbehaving client with a tiny quota submitting far
      above it: must collect 429s without disturbing the other tenants.
    """
    from repro.service.tenancy import TenantQuota

    pilot_prefix = f"urn:AgriParcel:{farm}:"
    dashboard_mix = {
        "list": 2.0, "entity": 3.0, "attr": 2.0, "sth_raw": 2.0, "sth_rollup": 1.0,
    }
    profiles = [
        LoadProfile(
            TenantSpec("dash-a", "dash-a-secret", (pilot_prefix,),
                       quota=TenantQuota(600, 60.0, 256)),
            interval_s=2.0, mix=dashboard_mix,
        ),
        LoadProfile(
            TenantSpec("dash-b", "dash-b-secret", (pilot_prefix,),
                       quota=TenantQuota(600, 60.0, 256)),
            interval_s=3.0, mix=dashboard_mix, start_s=0.5,
        ),
        LoadProfile(
            TenantSpec("ops", "ops-secret", (pilot_prefix,),
                       write_prefixes=(f"urn:Ops:{farm}:",),
                       quota=TenantQuota(600, 60.0, 256)),
            interval_s=4.0, mix={"write": 3.0, "list": 1.0, "entity": 1.0}, start_s=1.0,
        ),
        LoadProfile(
            TenantSpec("greedy", "greedy-secret", (pilot_prefix,),
                       quota=TenantQuota(10, 60.0, 16)),
            interval_s=0.5, mix={"entity": 1.0, "list": 1.0}, start_s=0.25,
        ),
    ]
    return generate_trace(
        "standard-e19", seed, duration_s, profiles, entity_ids, entity_type, attr
    )


def schedule_trace(service: NgsiService, trace: RequestTrace) -> int:
    """Register the trace's tenants and schedule every request arrival.

    Returns the number of requests scheduled.  Tenants already registered
    on the service (by name) are left as-is, so a trace can replay
    against a service that pre-registered its tenants.  A request without
    an explicit ``token`` must name a tenant the trace declares or the
    service has; otherwise :class:`ServiceError` names each such tenant
    before anything is registered or scheduled.  The service is started
    here, so each arrival queues and drains on the pump's grid, which
    holds across the pump's sleeps: a request drains on the tick a pump
    polling every interval from ``start()`` would give it.
    """
    known = {t.name for t in service.tenants()} | {spec.name for spec in trace.tenants}
    undeclared = sorted({
        request.tenant for request in trace.requests
        if request.token is None and request.tenant not in known
    })
    if undeclared:
        raise ServiceError(
            f"request trace {trace.name!r} names undeclared tenants: "
            + ", ".join(undeclared)
        )
    for spec in trace.tenants:
        if spec.name not in {t.name for t in service.tenants()}:
            service.register_tenant(spec)
    service.start()

    def fire(request: TraceRequest) -> None:
        token = request.token
        if token is None:
            token = service.tenant_token(request.tenant)
        service.submit(Request(
            method=request.method,
            path=request.path,
            params=dict(request.params),
            body=request.body,
            token=token,
        ))

    for request in trace.requests:
        service.sim.schedule_at(
            request.at_s, fire, (request,), label=f"svc:{request.tenant}"
        )
    return len(trace.requests)
