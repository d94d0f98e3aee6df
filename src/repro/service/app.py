"""The north-facing multi-tenant NGSIv2 service.

:class:`NgsiService` is the in-process equivalent of the HTTP stack a
SWAMP deployment puts in front of Orion + STH-Comet for dashboards and
analytics consumers: an NGSIv2/STH route table, OAuth2 bearer
authentication through the existing ``security.auth`` PEP/PDP, per-tenant
namespace isolation and quotas, a version-invalidated response cache, and
a pump that drains admitted requests on the simulation clock.

Request lifecycle (``submit``/``handle``):

1. **route** — method+path match (404 unknown path, 405 wrong method);
2. **authenticate** — introspect the bearer token (401), resolve the
   tenant behind the principal (403);
3. **authorize** — the PEP's verdict on the route's action against the
   resource (the entity id for entity-scoped routes) for the token step 2
   introspected, then the tenant's own namespace prefix check (403); a
   request naming no resource (a write body without an ``id``, the
   regional route before it is enabled) skips the decision and is
   answered 400 once the quota admits it, counted as submitted like any
   other 400 and never as an auth refusal;
4. **admit** — the tenant's quota window (429) and backlog queue (503);
5. **execute** — immediately (``handle()``, or ``submit()`` before
   ``start()``), or when the pump drains the backlog (``submit()`` once
   ``start()`` has anchored the pump); cacheable reads consult the
   response cache; handler errors translate through
   :mod:`repro.service.errors`.

One route reads across tenant namespaces: the regional release,
``GET /v2/regional/{entity_type}?attrs=a,b``.  It answers 400 until
:meth:`NgsiService.enable_regional_release`, then the PDP permits it to
the ``regional-analyst`` role only, and it returns k-anonymised records
(a farm pseudonym, generalised quasi-identifiers and the requested
attributes), never entities.

Every request ends as one *record* — ``(seq, tenant, method, path,
at_s, done_s, status, cache, body)`` — and the canonical JSON response
log over those records is the bit-identity artifact: same seed + same
trace ⇒ byte-identical log (E19 asserts this; wall-clock timings are
reported separately and never enter the log).  The log is serialized
one line at a time, by :meth:`NgsiService.response_lines` for the
retained records and at eviction for the ones ``max_records`` drops, so
neither the digest nor the CLI's ``--responses`` file ever holds it whole.
"""

import hashlib
import json
import re
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.context.broker import ContextBroker
from repro.context.delivery import DeliveryConfig, DeliveryManager, SimulatedEndpoint
from repro.context.entities import ContextEntity
from repro.context.errors import NotFoundError, QueryError
from repro.context.history import HOUR_S, MINUTE_S, HistoryQuery, ShortTermHistory
from repro.context.query import parse_filter_expression
from repro.context.subscriptions import Subscription
from repro.security.anonymization import Anonymizer
from repro.security.auth.oauth import OAuthError, Token
from repro.security.auth.pdp import Policy
from repro.service.cache import ResponseCache
from repro.service.errors import (
    AuthenticationError,
    AuthorizationError,
    QuotaExceededError,
    ServiceOverloadedError,
    error_response,
)
from repro.service.http import Request, Response, Route, Router
from repro.service.tenancy import Tenant, TenantSpec
from repro.simkernel.errors import ReproError
from repro.simkernel.process import GridTimer
from repro.simkernel.simulator import Simulator

__all__ = ["NgsiService", "ServiceConfig", "attach_service", "percentile"]

#: STH ``aggrPeriod`` values → rollup period seconds.
_AGGR_PERIODS = {"minute": MINUTE_S, "hour": HOUR_S}

#: The regional release: its PDP action, the role the PDP permits it to,
#: the attributes that re-identify a farm when joined with public
#: registries, and the smallest group of records it lets out.
REGIONAL_ACTION = "regional.read"
REGIONAL_ROLE = "regional-analyst"
REGIONAL_QUASI_IDENTIFIERS = ("lat", "lon", "area_ha", "crop")
REGIONAL_K = 2

#: The owning farm in a platform entity id, ``urn:<Type>:<farm>:...``.
_FARM_IN_URN = re.compile(r"^urn:[^:]+:([^:]+):")


@dataclass
class ServiceConfig:
    """Tuning knobs for one :class:`NgsiService` instance."""

    #: Once :meth:`NgsiService.start` has anchored the pump, it drains
    #: admitted requests on a grid of this many sim-seconds from then,
    #: ticking only while a backlog holds a request.
    pump_interval_s: float = 1.0
    max_requests_per_tick: int = 256
    cache_capacity: int = 1024
    default_page_limit: int = 20
    max_page_limit: int = 1000
    #: Cap on retained request records (beyond it the oldest is folded
    #: into the response digest, dropped and counted in
    #: ``records_dropped``).
    max_records: int = 200_000


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(round(p / 100.0 * len(ordered) + 0.5))))
    return ordered[rank - 1]


def _log_line(record: Dict[str, Any]) -> str:
    """One record's line of the canonical response log."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _render_attribute(attr) -> Dict[str, Any]:
    return {"value": attr.value, "type": attr.attr_type, "metadata": dict(attr.metadata)}


def _render_entity(entity: ContextEntity, key_values: bool = False) -> Dict[str, Any]:
    body: Dict[str, Any] = {"id": entity.entity_id, "type": entity.entity_type}
    for name in sorted(entity.attributes):
        attr = entity.attributes[name]
        body[name] = attr.value if key_values else _render_attribute(attr)
    return body


def _json_object(value: Any, what: str) -> Dict[str, Any]:
    """A JSON object from a request, ``{}`` when absent; anything else is a 400."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise QueryError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _json_field(obj: Dict[str, Any], key: str, kind: type) -> Any:
    """``obj[key]``, None when absent; a value that is not a ``kind`` is a 400."""
    value = obj.get(key)
    if value is not None and not isinstance(value, kind):
        raise QueryError(f"{key!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _json_names(obj: Dict[str, Any], key: str) -> Optional[List[str]]:
    """``obj[key]`` as a list of attribute names, None when absent."""
    names = _json_field(obj, key, list)
    if names is not None and not all(isinstance(name, str) for name in names):
        raise QueryError(f"{key!r} must list attribute names")
    return names


def _body_attrs(body: Dict[str, Any]) -> Dict[str, Any]:
    """NGSIv2 attribute payload → plain values ({"value": v} or bare v)."""
    attrs: Dict[str, Any] = {}
    for name, payload in body.items():
        if name in ("id", "type"):
            continue
        if isinstance(payload, dict) and "value" in payload:
            attrs[name] = payload["value"]
        else:
            attrs[name] = payload
    return attrs


def _float_param(request: Request, name: str, default: float) -> float:
    raw = request.param(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise QueryError(f"parameter {name!r} must be a number, got {raw!r}")


def _int_param(request: Request, name: str, default: int, minimum: int = 0) -> int:
    raw = request.param(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise QueryError(f"parameter {name!r} must be an integer, got {raw!r}")
    if value < minimum:
        raise QueryError(f"parameter {name!r} must be >= {minimum}, got {value}")
    return value


class NgsiService:
    """In-process NGSIv2 + STH endpoint over a broker and its history."""

    def __init__(
        self,
        sim: Simulator,
        broker: ContextBroker,
        history: ShortTermHistory,
        security,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.sim = sim
        self.broker = broker
        self.history = history
        self.security = security
        self.config = config or ServiceConfig()
        # STH aggrPeriod reads need a rollup per period the route accepts.
        history.enable_rollups(tuple(_AGGR_PERIODS.values()))
        self.cache = ResponseCache(self.config.cache_capacity)
        broker.update_hooks.append(self._on_broker_write)
        self._tenants: Dict[str, Tenant] = {}
        #: At-least-once notification fan-out; None until
        #: :meth:`enable_delivery` opts in (keeps default runs untouched).
        self.delivery: Optional[DeliveryManager] = None
        #: The regional release's anonymiser; None until
        #: :meth:`enable_regional_release`.
        self.anonymizer: Optional[Anonymizer] = None
        self.records: Deque[Dict[str, Any]] = deque()
        #: SHA-256 over the log lines of the records the cap evicted.
        self._evicted = hashlib.sha256()
        self._seq = 0
        self._pump: Optional[GridTimer] = None
        self.wall_time_s = 0.0
        #: Requests admitted to :meth:`_accept` (``_seq`` lags the ones
        #: still queued) and refusals by reason (an auth refusal may
        #: have no tenant to charge).
        self.requests = 0
        self.rejected = {"auth": 0, "quota": 0, "backlog": 0}
        metrics = sim.metrics
        metrics.register_counter("service.requests", lambda: self.requests)
        for reason in self.rejected:
            metrics.register_counter(
                "service.rejected", lambda r=reason: self.rejected[r], {"reason": reason})
        cache = self.cache
        metrics.register_counter("service.cache", lambda: cache.hits, {"result": "hit"})
        metrics.register_counter("service.cache", lambda: cache.misses, {"result": "miss"})
        self.router = Router()
        self._install_routes()

    # -- wiring -----------------------------------------------------------

    def _install_routes(self) -> None:
        add = self.router.add
        add("GET", "/version", self._h_version, action=None)
        add("GET", "/v2/entities", self._h_list_entities, "ngsi.read", cacheable=True)
        add("POST", "/v2/entities", self._h_create_entity, "ngsi.write", writes=True)
        add("GET", "/v2/entities/{entity_id}", self._h_get_entity, "ngsi.read", cacheable=True)
        add("DELETE", "/v2/entities/{entity_id}", self._h_delete_entity, "ngsi.write",
            writes=True)
        add("PATCH", "/v2/entities/{entity_id}/attrs", self._h_update_attrs, "ngsi.write",
            writes=True)
        add("GET", "/v2/entities/{entity_id}/attrs/{attr}", self._h_get_attr, "ngsi.read",
            cacheable=True)
        add("GET",
            "/STH/v1/contextEntities/type/{entity_type}/id/{entity_id}/attributes/{attr}",
            self._h_sth, "sth.read", cacheable=True)
        add("POST", "/v2/subscriptions", self._h_create_sub, "ngsi.sub")
        add("GET", "/v2/subscriptions", self._h_list_subs, "ngsi.sub")
        add("GET", "/v2/subscriptions/{sub_id}", self._h_get_sub, "ngsi.sub")
        add("DELETE", "/v2/subscriptions/{sub_id}", self._h_delete_sub, "ngsi.sub")
        add("POST", "/v2/subscriptions/{sub_id}/replay", self._h_replay_sub, "ngsi.sub")
        # Last, so every other request matches before reaching it.
        add("GET", "/v2/regional/{entity_type}", self._h_regional, REGIONAL_ACTION)

    def _on_broker_write(self, entity: ContextEntity, changed: List[str]) -> None:
        self.cache.note_write(entity.entity_id)

    def register_tenant(self, spec: TenantSpec) -> Tenant:
        """Enrol a tenant: IdM principal, OAuth2 token, PDP policies, cache scopes."""
        if spec.name in self._tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        if not (spec.read_prefixes or spec.write_prefixes):
            raise ValueError(f"tenant {spec.name!r} has an empty namespace")
        tenant = Tenant(spec)
        auth = self.security
        auth.identity.register(
            spec.name, spec.secret, kind="service", farm=auth.farm, roles={tenant.role}
        )
        readable = tenant.readable_prefixes
        read_pattern = "^(?:" + "|".join(re.escape(p) for p in readable) + ")"
        auth.pdp.add_policy(Policy(
            f"svc:{spec.name}:read", "permit", {"ngsi.read", "sth.read"},
            read_pattern, roles={tenant.role},
        ))
        if tenant.write_prefixes:
            write_pattern = "^(?:" + "|".join(re.escape(p) for p in tenant.write_prefixes) + ")"
            auth.pdp.add_policy(Policy(
                f"svc:{spec.name}:write", "permit", {"ngsi.write"},
                write_pattern, roles={tenant.role},
            ))
        # Collection routes check the *path* as resource; entity scoping
        # happens in the handler (results filtered to the namespace).
        auth.pdp.add_policy(Policy(
            f"svc:{spec.name}:paths", "permit", {"ngsi.read", "sth.read"},
            r"^/(?:v2|STH)/", roles={tenant.role},
        ))
        # Subscription management: path-scoped like the collection routes;
        # ownership (a tenant sees only its own subscriptions) is enforced
        # in the handlers.
        auth.pdp.add_policy(Policy(
            f"svc:{spec.name}:subs", "permit", {"ngsi.sub"},
            r"^/v2/subscriptions", roles={tenant.role},
        ))
        tenant.token = auth.oauth.client_credentials_grant(
            spec.name, spec.secret, scope="ngsi"
        )
        for prefix in readable:
            self.cache.register_scope(prefix)
        self._tenants[spec.name] = tenant
        return tenant

    def tenant(self, name: str) -> Tenant:
        return self._tenants[name]

    def tenants(self) -> List[Tenant]:
        return [self._tenants[name] for name in sorted(self._tenants)]

    def tenant_token(self, name: str) -> str:
        """The tenant's current bearer token, re-granted once it has
        expired or been revoked (no introspection: the service runs one
        per request)."""
        tenant = self._tenants[name]
        if tenant.token is None or not tenant.token.active(self.sim.now):
            tenant.token = self.security.oauth.client_credentials_grant(
                tenant.principal_id, tenant.spec.secret, scope="ngsi"
            )
        return tenant.token.access_token

    def enable_delivery(
        self,
        config: Optional[DeliveryConfig] = None,
        endpoints: Tuple[SimulatedEndpoint, ...] = (),
    ) -> DeliveryManager:
        """Stand up the at-least-once notification fan-out (idempotent).

        Until this is called the subscription routes refuse with 400 and
        nothing delivery-related is constructed — no pump process, no RNG
        streams — so runs that never opt in stay bit-identical.
        """
        if self.delivery is None:
            self.delivery = DeliveryManager(self.sim, config)
            self.delivery.start()
        for endpoint in endpoints:
            self.delivery.register_endpoint(endpoint)
        return self.delivery

    def enable_regional_release(self, secret_salt: bytes) -> None:
        """Serve ``GET /v2/regional/{entity_type}`` to tenants holding the
        ``regional-analyst`` role.

        Until this is called the route answers 400 and no PDP row permits
        it.  ``secret_salt`` keys the farm pseudonyms, so a second call is
        refused rather than re-keying them.
        """
        if self.anonymizer is not None:
            raise ValueError("regional release is already enabled")
        self.anonymizer = Anonymizer(secret_salt, REGIONAL_QUASI_IDENTIFIERS)
        self.security.pdp.add_policy(Policy(
            "svc:regional", "permit", {REGIONAL_ACTION}, r"^/v2/regional/",
            roles={REGIONAL_ROLE},
        ))

    def _require_delivery(self) -> DeliveryManager:
        if self.delivery is None:
            raise QueryError(
                "notification delivery is not enabled on this service "
                "(call enable_delivery first)"
            )
        return self.delivery

    def start(self) -> None:
        """Anchor the pump's grid at now (idempotent); ``submit`` queues
        from now on.  The pump sleeps while every backlog is empty."""
        if self._pump is None:
            self._pump = GridTimer(
                self.sim, self.config.pump_interval_s, self._drain_tick, "proc:service-pump")

    def _drain_tick(self) -> None:
        """Drain up to the per-tick budget; re-arm while a backlog still
        holds requests."""
        budget = self.config.max_requests_per_tick
        names = sorted(self._tenants)
        progress = True
        while budget > 0 and progress:
            progress = False
            for name in names:
                if budget <= 0:
                    break
                backlog = self._tenants[name].backlog
                if not backlog:
                    continue
                route, request, params, tenant, at_s = backlog.popleft()
                self._execute(route, request, params, tenant, at_s)
                budget -= 1
                progress = True
        if any(self._tenants[name].backlog for name in names):
            self._pump.arm(self.sim.now)

    # -- request path -----------------------------------------------------------

    def submit(self, request: Request) -> Optional[Response]:
        """Admit a request.  Before :meth:`start` it executes at once and
        returns the response; after, admissions queue and return None (the
        response lands in the record log when the pump executes them, at
        the first point of its grid at or after now)."""
        response = self._accept(request, queue=self._pump is not None)
        if response is None:
            self._pump.arm(self.sim.now)
        return response

    def handle(self, request: Request) -> Response:
        """Synchronous path: admit and execute now, pump or no pump."""
        response = self._accept(request, queue=False)
        assert response is not None
        return response

    def _accept(self, request: Request, queue: bool) -> Optional[Response]:
        at_s = self.sim.now
        self.requests += 1
        route, params, path_exists = self.router.match(request.method, request.path)
        if route is None:
            if path_exists:
                response = Response(
                    405, {"error": "MethodNotAllowed",
                          "description": f"{request.method} not supported on {request.path}"},
                )
            else:
                response = error_response(NotFoundError(f"no route for {request.path}"))
            return self._record(request, None, at_s, response, cache_state="")
        if route.action is None:
            return self._execute(route, request, params, None, at_s)
        tenant: Optional[Tenant] = None
        bad_request: Optional[QueryError] = None
        try:
            tenant, token = self._authenticate(request)
            try:
                resource = self._resource_for(route, request, params)
            except QueryError as exc:
                bad_request = exc
            else:
                self._authorize(tenant, token, route, request, resource)
        except (ReproError, OAuthError) as exc:
            if tenant is not None:
                tenant.rejected_auth += 1
            self.rejected["auth"] += 1
            return self._record(request, tenant, at_s, error_response(exc), cache_state="")
        tenant.submitted += 1
        if not tenant.limiter.admit(at_s):
            tenant.rejected_quota += 1
            self.rejected["quota"] += 1
            response = error_response(QuotaExceededError(
                f"tenant {tenant.name!r} exceeded "
                f"{tenant.quota.max_requests_per_window} requests/"
                f"{tenant.quota.window_s:g}s"
            ))
            return self._record(request, tenant, at_s, response, cache_state="")
        if bad_request is not None:
            # The tenant's own malformed request, not an auth failure: it
            # counts as submitted and spends quota like a handler's 400.
            return self._record(
                request, tenant, at_s, error_response(bad_request), cache_state="")
        if queue:
            if tenant.backlog.push((route, request, params, tenant, at_s)):
                return None
            tenant.rejected_backlog += 1
            self.rejected["backlog"] += 1
            response = error_response(ServiceOverloadedError(
                f"tenant {tenant.name!r} backlog full ({tenant.quota.max_backlog})"
            ))
            return self._record(request, tenant, at_s, response, cache_state="")
        return self._execute(route, request, params, tenant, at_s)

    def _authenticate(self, request: Request) -> Tuple[Tenant, Token]:
        """The tenant behind the bearer token, and the token introspected
        (once per request: :meth:`_authorize` hands it to the PEP)."""
        if not request.token:
            raise AuthenticationError("missing bearer token")
        token = self.security.oauth.introspect(request.token)
        if token is None:
            raise AuthenticationError("invalid or expired bearer token")
        tenant = self._tenants.get(token.principal_id)
        if tenant is None:
            raise AuthorizationError(
                f"principal {token.principal_id!r} is not a registered tenant"
            )
        return tenant, token

    def _resource_for(self, route: Route, request: Request, params: Dict[str, str]) -> str:
        """What the PEP decides on: the entity id of an entity route or a
        write, else the path.  A request with no such resource is a 400
        before any decision: a write without an ``id``, or the regional
        route before :meth:`enable_regional_release`."""
        entity_id = params.get("entity_id")
        if entity_id is not None:
            return entity_id
        if route.writes:
            entity_id = _json_field(_json_object(request.body, "entity payload"), "id", str)
            if not entity_id:
                raise QueryError("entity payload must carry an 'id'")
            return entity_id
        if route.action == REGIONAL_ACTION and self.anonymizer is None:
            raise QueryError(
                "regional release is not enabled on this service "
                "(call enable_regional_release first)"
            )
        return request.path

    def _authorize(
        self, tenant: Tenant, token: Token, route: Route, request: Request, resource: str
    ) -> None:
        if not self.security.pep.authorize(token, route.action, resource):
            raise AuthorizationError(
                f"{route.action} on {resource!r} denied for tenant {tenant.name!r}"
            )
        if resource != request.path:  # entity-scoped: namespace double-check
            allowed = tenant.may_write(resource) if route.writes else tenant.may_read(resource)
            if not allowed:
                raise AuthorizationError(
                    f"entity {resource!r} outside tenant {tenant.name!r} namespace"
                )

    def _execute(
        self,
        route: Route,
        request: Request,
        params: Dict[str, str],
        tenant: Optional[Tenant],
        at_s: float,
    ) -> Response:
        started = time.perf_counter()
        cache_state = ""
        cache_key = None
        response: Optional[Response] = None
        if route.cacheable and tenant is not None:
            cache_key = ResponseCache.key(
                tenant.name, request.method, request.path, request.params
            )
            response = self.cache.lookup(cache_key)
            cache_state = "HIT" if response is not None else "MISS"
        if response is None:
            try:
                response = route.handler(request, params, tenant)
            except (ReproError, OAuthError) as exc:
                response = error_response(exc)
            if cache_key is not None and response.ok:
                entity_id = params.get("entity_id")
                if entity_id is not None:
                    self.cache.store(cache_key, response, entity_deps=(entity_id,))
                else:
                    self.cache.store(cache_key, response,
                                     scope_deps=tenant.readable_prefixes)
        self.wall_time_s += time.perf_counter() - started
        return self._record(request, tenant, at_s, response, cache_state)

    def _record(
        self,
        request: Request,
        tenant: Optional[Tenant],
        at_s: float,
        response: Response,
        cache_state: str,
    ) -> Response:
        if tenant is not None and response.ok:
            tenant.completed += 1
        self._seq += 1
        self.records.append({
            "seq": self._seq,
            "tenant": tenant.name if tenant is not None else "-",
            "method": request.method,
            "path": request.path,
            "params": dict(sorted(request.params.items())),
            "at_s": at_s,
            "done_s": self.sim.now,
            "status": response.status,
            "cache": cache_state,
            "body": response.body,
        })
        if len(self.records) > self.config.max_records:
            self._evict_oldest()
        return response

    def _evict_oldest(self) -> None:
        """Fold the oldest record's log line into the digest and drop it."""
        if self.records_dropped:
            self._evicted.update(b"\n")
        self._evicted.update(_log_line(self.records.popleft()).encode("utf-8"))

    # -- handlers -----------------------------------------------------------

    def _h_version(self, request: Request, params, tenant) -> Response:
        return Response(200, {"orion": {"version": "repro-ngsi/2.0"},
                              "sth": {"version": "repro-sth/1.0"}})

    def _h_list_entities(self, request: Request, params, tenant: Tenant) -> Response:
        limit = _int_param(request, "limit", self.config.default_page_limit, minimum=1)
        limit = min(limit, self.config.max_page_limit)
        offset = _int_param(request, "offset", 0)
        filters = None
        q = request.param("q")
        if q:
            filters = [parse_filter_expression(part) for part in q.split(";") if part]
        entities = self.broker.query(
            entity_type=request.param("type"),
            id_pattern=request.param("idPattern"),
            filters=filters,
        )
        scoped = tenant.scope_entities(entities)
        key_values = request.param("options") == "keyValues"
        page = scoped[offset:offset + limit]
        return Response(
            200,
            [_render_entity(e, key_values) for e in page],
            headers={"Fiware-Total-Count": str(len(scoped))},
        )

    def _h_create_entity(self, request: Request, params, tenant: Tenant) -> Response:
        body = _json_object(request.body, "entity payload")
        entity_id = _json_field(body, "id", str)
        entity_type = _json_field(body, "type", str)
        if not entity_id or not entity_type:
            raise QueryError("entity payload must carry 'id' and 'type'")
        self.broker.create_entity(entity_id, entity_type, _body_attrs(body) or None)
        self.cache.note_write(entity_id)
        return Response(201, None, headers={"Location": f"/v2/entities/{entity_id}"})

    def _h_get_entity(self, request: Request, params, tenant: Tenant) -> Response:
        entity = self.broker.get_entity(params["entity_id"])
        key_values = request.param("options") == "keyValues"
        return Response(200, _render_entity(entity, key_values))

    def _h_delete_entity(self, request: Request, params, tenant: Tenant) -> Response:
        entity_id = params["entity_id"]
        self.broker.delete_entity(entity_id)
        self.cache.note_write(entity_id)
        return Response(204)

    def _h_update_attrs(self, request: Request, params, tenant: Tenant) -> Response:
        entity_id = params["entity_id"]
        attrs = _body_attrs(_json_object(request.body, "attribute payload"))
        if not attrs:
            raise QueryError("attribute payload must not be empty")
        self.broker.get_entity(entity_id)  # 404 before write, Orion-style
        self.broker.update_attributes(entity_id, attrs)
        self.cache.note_write(entity_id)
        return Response(204)

    def _h_get_attr(self, request: Request, params, tenant: Tenant) -> Response:
        entity = self.broker.get_entity(params["entity_id"])
        attr = entity.attribute(params["attr"])
        if attr is None:
            raise NotFoundError(
                f"entity {params['entity_id']!r} has no attribute {params['attr']!r}"
            )
        return Response(200, _render_attribute(attr))

    def _h_sth(self, request: Request, params, tenant: Tenant) -> Response:
        entity_id, attr = params["entity_id"], params["attr"]
        since = _float_param(request, "dateFrom", float("-inf"))
        until = _float_param(request, "dateTo", float("inf"))
        method = request.param("aggrMethod")
        if method is not None:
            period_name = request.param("aggrPeriod", "minute")
            period = _AGGR_PERIODS.get(period_name)
            if period is None:
                raise QueryError(
                    f"unknown aggrPeriod {period_name!r}; expected one of "
                    f"{sorted(_AGGR_PERIODS)}"
                )
            result = self.history.read(
                HistoryQuery(entity_id, attr, since=since, until=until,
                             period_s=period, method=method)
            )
            values = [{"origin": start, method: value}
                      for start, value in result.rows]
        else:
            last_n = request.param("lastN")
            if last_n is not None:
                result = self.history.read(
                    HistoryQuery(entity_id, attr,
                                 last_n=_int_param(request, "lastN", 0, minimum=1))
                )
                samples = result.rows
            else:
                result = self.history.read(
                    HistoryQuery(entity_id, attr, since=since, until=until)
                )
                h_offset = _int_param(request, "hOffset", 0)
                h_limit = _int_param(
                    request, "hLimit", self.config.max_page_limit, minimum=1
                )
                samples = result.rows[h_offset:h_offset + h_limit]
            values = [{"recvTime": t, "attrValue": v} for t, v in samples]
        body = {
            "contextResponses": [{
                "contextElement": {
                    "id": entity_id,
                    "type": params["entity_type"],
                    "isPattern": False,
                    "attributes": [{"name": attr, "values": values}],
                },
                "statusCode": {"code": 200, "reasonPhrase": "OK"},
            }]
        }
        return Response(200, body)

    # -- subscription handlers ----------------------------------------------

    def _render_subscription(self, sub: Subscription) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "id": sub.subscription_id,
            "description": sub.description,
            "status": "active" if sub.active else "inactive",
            "subject": {
                "entities": [{
                    k: v for k, v in (
                        ("id", sub.entity_id),
                        ("idPattern", sub.id_regex.pattern if sub.id_regex else None),
                        ("type", sub.entity_type),
                    ) if v is not None
                }],
                "condition": {"attrs": sorted(sub.condition_attrs)},
            },
            "notification": {
                "attrs": sub.notify_attrs or [],
                "timesSent": sub.notifications_sent,
            },
            "throttling": sub.throttling_s,
        }
        if self.delivery is not None:
            body["delivery"] = self.delivery.subscription_status(sub.subscription_id)
        return body

    def _owned_subscription(self, tenant: Tenant, sub_id: str) -> Subscription:
        sub = self.broker.subscriptions.get(sub_id)
        if sub is None or sub.owner != tenant.name:
            # A foreign subscription reads as absent, not forbidden —
            # existence is itself tenant-private.
            raise NotFoundError(f"subscription {sub_id!r} not found")
        return sub

    def _h_create_sub(self, request: Request, params, tenant: Tenant) -> Response:
        delivery = self._require_delivery()
        body = _json_object(request.body, "subscription payload")
        subject = _json_object(body.get("subject"), "subscription subject")
        entities = _json_field(subject, "entities", list) or [{}]
        selector = _json_object(entities[0], "subscription subject entity")
        entity_id = _json_field(selector, "id", str)
        id_pattern = _json_field(selector, "idPattern", str)
        entity_type = _json_field(selector, "type", str)
        if entity_id is None and id_pattern is None and entity_type is None:
            raise QueryError("subscription subject must constrain id, idPattern or type")
        if entity_id is not None and not tenant.may_read(entity_id):
            raise AuthorizationError(
                f"entity {entity_id!r} outside tenant {tenant.name!r} namespace"
            )
        notification = _json_object(body.get("notification"), "subscription notification")
        endpoint_name = _json_field(notification, "endpoint", str)
        if not endpoint_name:
            raise QueryError("subscription payload must carry notification.endpoint")
        condition = _json_object(subject.get("condition"), "subscription condition")
        throttling = body.get("throttling", 0.0)
        try:
            throttling_s = float(throttling)
        except (TypeError, ValueError):
            raise QueryError(
                f"subscription throttling must be a number, got {type(throttling).__name__}"
            ) from None
        sub = Subscription(
            callback=lambda _n: None,
            entity_id=entity_id,
            id_pattern=id_pattern,
            entity_type=entity_type,
            condition_attrs=_json_names(condition, "attrs"),
            notify_attrs=_json_names(notification, "attrs"),
            throttling_s=throttling_s,
            description=str(body.get("description", "")),
            owner=tenant.name,
            # Notifications stay inside the tenant's namespace, whatever
            # idPattern or type the subject selects.
            owner_prefixes=tenant.readable_prefixes,
        )
        delivery.bind_subscription(sub, tenant.name, endpoint_name)
        self.broker.subscribe(sub)
        tenant.subscription_ids.append(sub.subscription_id)
        return Response(
            201, None, headers={"Location": f"/v2/subscriptions/{sub.subscription_id}"}
        )

    def _h_list_subs(self, request: Request, params, tenant: Tenant) -> Response:
        subs = [
            self._render_subscription(sub)
            for sub_id, sub in sorted(self.broker.subscriptions.items())
            if sub.owner == tenant.name
        ]
        return Response(200, subs)

    def _h_get_sub(self, request: Request, params, tenant: Tenant) -> Response:
        sub = self._owned_subscription(tenant, params["sub_id"])
        return Response(200, self._render_subscription(sub))

    def _h_delete_sub(self, request: Request, params, tenant: Tenant) -> Response:
        sub = self._owned_subscription(tenant, params["sub_id"])
        self.broker.unsubscribe(sub.subscription_id)
        if sub.subscription_id in tenant.subscription_ids:
            tenant.subscription_ids.remove(sub.subscription_id)
        return Response(204)

    def _h_replay_sub(self, request: Request, params, tenant: Tenant) -> Response:
        delivery = self._require_delivery()
        sub = self._owned_subscription(tenant, params["sub_id"])
        replayed = delivery.replay(tenant.name, sub.subscription_id)
        return Response(200, {"replayed": replayed})

    def _h_regional(self, request: Request, params, tenant: Tenant) -> Response:
        """Every entity of the type, whichever tenant's, as its farm,
        quasi-identifiers and ``attrs``; only the anonymiser's output leaves."""
        names = REGIONAL_QUASI_IDENTIFIERS + tuple(
            name for name in request.param("attrs", "").split(",") if name)
        records = []
        for entity in self.broker.query(entity_type=params["entity_type"]):
            record = {}
            for name in names:
                value = entity.get(name)
                if value is not None:
                    record[name] = value
            farm = _FARM_IN_URN.match(entity.entity_id)
            record["farm"] = farm.group(1) if farm else entity.entity_id
            records.append(record)
        return Response(200, self.anonymizer.anonymize(records, k=REGIONAL_K))

    # -- reporting -----------------------------------------------------------

    @property
    def records_dropped(self) -> int:
        """Records the ``max_records`` cap evicted (every request has a seq)."""
        return self._seq - len(self.records)

    def response_lines(self) -> Iterator[str]:
        """The canonical JSON line of each retained record, oldest first."""
        for record in self.records:
            yield _log_line(record)

    def response_log(self) -> str:
        """Canonical JSON-lines log of the retained records."""
        return "\n".join(self.response_lines())

    def response_log_digest(self) -> str:
        """SHA-256 of the log of every request, the evicted ones included
        (the bit-identity artifact), hashed one line at a time."""
        digest = self._evicted.copy()
        separator = b"\n" if self.records_dropped else b""
        for line in self.response_lines():
            digest.update(separator)
            digest.update(line.encode("utf-8"))
            separator = b"\n"
        return digest.hexdigest()

    def report(self) -> Dict[str, Any]:
        by_status: Dict[int, int] = {}
        latencies: List[float] = []
        for record in self.records:
            by_status[record["status"]] = by_status.get(record["status"], 0) + 1
            # Latency is a served-request metric: admission rejections
            # (429/503) bounce at submit time with zero queueing and
            # would drag the percentiles toward the rejection rate
            # instead of the pump cadence.
            if record["status"] not in (429, 503):
                latencies.append(record["done_s"] - record["at_s"])
        tenants = {
            name: {
                "submitted": t.submitted,
                "completed": t.completed,
                "rejected_auth": t.rejected_auth,
                "rejected_quota": t.rejected_quota,
                "rejected_backlog": t.rejected_backlog,
            }
            for name, t in sorted(self._tenants.items())
        }
        cache = self.cache
        return {
            # Every request handled, as the digest covers; by_status and
            # the latencies cover the retained records only.
            "requests": self._seq,
            "records_dropped": self.records_dropped,
            "by_status": {str(k): v for k, v in sorted(by_status.items())},
            "tenants": tenants,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "invalidated": cache.invalidated,
                "evicted": cache.evicted,
                "hit_rate": cache.hit_rate,
                "entries": len(cache),
            },
            "delivery": self.delivery.report() if self.delivery is not None else None,
            "latency_s": {
                "p50": percentile(latencies, 50.0),
                "p95": percentile(latencies, 95.0),
                "p99": percentile(latencies, 99.0),
                "max": max(latencies) if latencies else 0.0,
            },
            "wall_time_s": self.wall_time_s,
            "digest": self.response_log_digest(),
        }


def attach_service(
    runner,
    config: Optional[ServiceConfig] = None,
    tenants: Tuple[TenantSpec, ...] = (),
) -> NgsiService:
    """Stand an :class:`NgsiService` up over a pilot runner's broker.

    Strictly additive: nothing about the pilot's own event schedule
    changes until requests are submitted (rollup folding and cache
    version bumps are pure accounting on existing hooks).
    """
    service = NgsiService(
        runner.sim, runner.context, runner.history, runner.security, config
    )
    for spec in tenants:
        service.register_tenant(spec)
    service.start()
    return service
