"""The north-facing service layer: routing, auth, tenancy, quotas, cache."""

import json

import pytest

import repro.api as api
from repro.context.broker import ContextBroker
from repro.context.delivery import SimulatedEndpoint
from repro.context.errors import NotFoundError, QueryError
from repro.context.history import ShortTermHistory
from repro.core.security_profile import SecurityConfig, SecurityStack
from repro.fog.replication import CloudSyncTarget, Replicator
from repro.network import Network, RadioModel
from repro.security.anonymization import pseudonymize
from repro.security.auth.oauth import OAuthError
from repro.security.auth.pdp import Policy
from repro.service import (
    AuthenticationError,
    AuthorizationError,
    NgsiService,
    QuotaExceededError,
    Request,
    Router,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    TenantQuota,
    TenantSpec,
    error_response,
    has_error_mapping,
    status_for,
)
from repro.service.app import REGIONAL_ROLE
from repro.simkernel.simulator import Simulator

FARM_PREFIX = "urn:AgriParcel:demo:"
OPS_PREFIX = "urn:Ops:demo:"


def make_service(**config_kwargs):
    sim = Simulator(seed=11)
    broker = ContextBroker(sim)
    history = ShortTermHistory(broker)
    security = SecurityStack(sim, "demo", SecurityConfig())
    service = NgsiService(
        sim, broker, history, security, ServiceConfig(**config_kwargs),
    )
    return service


def register_dash(service, **spec_kwargs):
    spec_kwargs.setdefault("read_prefixes", (FARM_PREFIX,))
    spec_kwargs.setdefault("write_prefixes", (OPS_PREFIX,))
    spec = TenantSpec("dash", "dash-secret", **spec_kwargs)
    service.register_tenant(spec)
    return service.tenant_token("dash")


def seed_entities(broker, n=3):
    for i in range(n):
        broker.create_entity(f"{FARM_PREFIX}0-{i}", "AgriParcel", {"soilMoisture": 0.2 + i / 10})
    broker.create_entity("urn:AgriParcel:other:0-0", "AgriParcel", {"soilMoisture": 0.9})


class TestRouting:
    def test_version_needs_no_token(self):
        service = make_service()
        response = service.handle(Request("GET", "/version"))
        assert response.status == 200
        assert "orion" in response.body

    def test_unknown_path_is_404(self):
        service = make_service()
        assert service.handle(Request("GET", "/nope")).status == 404

    def test_wrong_method_is_405_not_404(self):
        service = make_service()
        response = service.handle(Request("PUT", "/v2/entities"))
        assert response.status == 405
        assert response.body["error"] == "MethodNotAllowed"

    def test_path_params_are_extracted(self):
        router = Router()
        router.add("GET", "/v2/entities/{entity_id}/attrs/{attr}", lambda *a: None, "x")
        route, params, exists = router.match("GET", "/v2/entities/urn:e:1/attrs/soilMoisture")
        assert route is not None and exists
        assert params == {"entity_id": "urn:e:1", "attr": "soilMoisture"}


class TestAuthentication:
    def test_missing_token_is_401(self):
        service = make_service()
        response = service.handle(Request("GET", "/v2/entities"))
        assert response.status == 401
        assert response.body["error"] == "Unauthorized"

    def test_garbage_token_is_401(self):
        service = make_service()
        register_dash(service)
        assert service.handle(Request("GET", "/v2/entities", token="junk")).status == 401

    def test_non_tenant_principal_is_403(self):
        service = make_service()
        register_dash(service)
        # A valid service principal that is not a registered tenant.
        auth = service.security
        auth.identity.register("intruder", "s", kind="service", farm="demo")
        token = auth.oauth.client_credentials_grant("intruder", "s").access_token
        assert service.handle(Request("GET", "/v2/entities", token=token)).status == 403

    def test_token_refresh_after_expiry(self):
        service = make_service()
        register_dash(service)
        first = service.tenant_token("dash")
        # Jump past the token TTL: the old token dies, the helper re-grants.
        service.sim.run_until(service.security.oauth.access_token_ttl_s + 1.0)
        assert service.handle(Request("GET", "/v2/entities", token=first)).status == 401
        renewed = service.tenant_token("dash")
        assert renewed != first
        assert service.handle(Request("GET", "/v2/entities", token=renewed)).status == 200


class TestAuthenticateOnceDecideOnce:
    """One introspection per request, and no memoised permit outlives a
    change to what it was derived from."""

    def memoised_permit(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        request = Request("GET", f"/v2/entities/{FARM_PREFIX}0-0", token=token)
        pdp = service.security.pdp
        walk = pdp.walk
        walks = []
        pdp.walk = lambda *args: walks.append(args) or walk(*args)
        assert service.handle(request).status == 200
        assert service.handle(request).status == 200
        assert len(walks) == 1  # the second request's permit came from the memo
        return service, token, request

    def test_revoked_token_is_401_on_the_next_request(self):
        service, token, request = self.memoised_permit()
        service.security.oauth.revoke(token)
        assert service.handle(request).status == 401

    def test_disabled_tenant_is_401_on_the_next_request(self):
        service, _token, request = self.memoised_permit()
        service.security.identity.disable("dash")
        assert service.handle(request).status == 401

    def test_revoked_role_is_403_on_the_next_request(self):
        service, _token, request = self.memoised_permit()
        service.security.identity.revoke_role("dash", service.tenant("dash").role)
        assert service.handle(request).status == 403

    def test_new_deny_policy_is_403_on_the_next_request(self):
        service, _token, request = self.memoised_permit()
        service.security.pdp.add_policy(
            Policy("freeze", "deny", {"ngsi.read"}, "^" + FARM_PREFIX))
        assert service.handle(request).status == 403

    def test_one_introspection_per_request(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        oauth = service.security.oauth
        introspect = oauth.introspect
        calls = []
        oauth.introspect = lambda access_token: (
            calls.append(access_token) or introspect(access_token))
        requests = [
            Request("GET", f"/v2/entities/{FARM_PREFIX}0-0", token=token),
            Request("GET", f"/v2/entities/{FARM_PREFIX}0-0", token=token),  # cache hit
            Request("GET", "/v2/entities", token=token),
            Request("POST", "/v2/entities",
                    body={"id": f"{OPS_PREFIX}s1", "type": "T", "x": {"value": 1}},
                    token=token),
            Request("GET", "/v2/entities/urn:AgriParcel:other:0-0", token=token),  # 403
            Request("GET", "/v2/entities", token="junk"),  # 401
        ]
        statuses = []
        for request in requests:
            before = len(calls)
            statuses.append(service.handle(request).status)
            assert len(calls) - before == 1
        assert statuses == [200, 200, 200, 201, 403, 401]


class TestTenantIsolation:
    def test_listing_is_scoped_to_namespace(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        response = service.handle(
            Request("GET", "/v2/entities", params={"type": "AgriParcel"}, token=token)
        )
        ids = [e["id"] for e in response.body]
        assert all(e.startswith(FARM_PREFIX) for e in ids) and len(ids) == 3
        assert response.headers["Fiware-Total-Count"] == "3"

    def test_direct_read_outside_namespace_is_403(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        response = service.handle(
            Request("GET", "/v2/entities/urn:AgriParcel:other:0-0", token=token)
        )
        assert response.status == 403

    def test_write_needs_write_prefix(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        # Pilot namespace is read-only for this tenant.
        denied = service.handle(Request(
            "PATCH", f"/v2/entities/{FARM_PREFIX}0-0/attrs",
            body={"soilMoisture": {"value": 0.5}}, token=token,
        ))
        assert denied.status == 403
        allowed = service.handle(Request(
            "POST", "/v2/entities",
            body={"id": f"{OPS_PREFIX}s1", "type": "OpsStation", "x": {"value": 1}},
            token=token,
        ))
        assert allowed.status == 201

    def test_two_tenants_see_disjoint_listings(self):
        service = make_service()
        seed_entities(service.broker)
        token_a = register_dash(service)
        service.register_tenant(TenantSpec("other", "s", ("urn:AgriParcel:other:",)))
        token_b = service.tenant_token("other")
        ids_a = {e["id"] for e in service.handle(
            Request("GET", "/v2/entities", token=token_a)).body}
        ids_b = {e["id"] for e in service.handle(
            Request("GET", "/v2/entities", token=token_b)).body}
        assert ids_a and ids_b and not (ids_a & ids_b)


class FarmRig:
    """Two farms' fog tiers replicating into the broker one service
    fronts; each farm is a tenant over its own AgriParcel prefix."""

    FARMS = ("farma", "farmb")
    SALT = b"region"

    def __init__(self, seed=5):
        self.sim = Simulator(seed=seed)
        net = Network(self.sim)
        broker = ContextBroker(self.sim, name="cloud:context")
        self.service = NgsiService(
            self.sim, broker, ShortTermHistory(broker),
            SecurityStack(self.sim, "cloud", SecurityConfig()),
        )
        self.farm_contexts = {}
        wan = RadioModel("wan", latency_s=0.05, bandwidth_bps=8e6, loss_rate=0.0)
        for farm in self.FARMS:
            context = ContextBroker(self.sim, name=f"{farm}:context")
            self.farm_contexts[farm] = context
            CloudSyncTarget(self.sim, net, f"cloud:sync:{farm}", broker)
            Replicator(self.sim, net, f"{farm}:sync", context,
                       f"cloud:sync:{farm}", sync_interval_s=10.0)
            net.connect(f"{farm}:sync", f"cloud:sync:{farm}", wan)
            self.service.register_tenant(
                TenantSpec(farm, f"{farm}-secret", (f"urn:AgriParcel:{farm}:",)))

    def token(self, tenant):
        return self.service.tenant_token(tenant)

    def get(self, path, token, **params):
        return self.service.handle(Request("GET", path, params=params, token=token))

    def parcels(self, parcels):
        """Create parcels on their farms' fog brokers and let them replicate."""
        for entity_id, attrs in parcels.items():
            farm = entity_id.split(":")[2]
            self.farm_contexts[farm].ensure_entity(entity_id, "AgriParcel", attrs)
        self.sim.run(until=self.sim.now + 120.0)

    def seed_data(self):
        # The two farms sit in different grid cells.
        self.parcels({
            "urn:AgriParcel:farma:0-0": {
                "soilMoisture": 0.25, "crop": "soybean", "area_ha": 400.0,
                "lat": -12.1, "lon": -45.2, "yield_t_ha": 3.9},
            "urn:AgriParcel:farmb:0-0": {
                "soilMoisture": 0.31, "crop": "soybean", "area_ha": 420.0,
                "lat": -12.3, "lon": -45.4, "yield_t_ha": 4.1},
        })

    def seed_shared_cell(self):
        # Two parcels of farma and one of farmb in one 0.1° cell, one
        # area bucket and one crop.
        self.parcels({
            f"urn:AgriParcel:{farm}:{parcel}": {
                "soilMoisture": 0.2, "crop": "soybean", "area_ha": area,
                "lat": lat, "lon": lon, "yield_t_ha": yield_t_ha}
            for farm, parcel, area, lat, lon, yield_t_ha in (
                ("farma", "0-1", 410.0, -12.12, -45.22, 4.0),
                ("farma", "0-2", 390.0, -12.17, -45.27, 3.8),
                ("farmb", "0-1", 430.0, -12.14, -45.24, 4.2),
            )
        })

    def analyst_token(self, enable=True):
        service = self.service
        service.register_tenant(TenantSpec("analyst", "analyst-secret", ("urn:Report:",)))
        service.security.identity.grant_role("analyst", REGIONAL_ROLE)
        if enable:
            service.enable_regional_release(self.SALT)
        return self.token("analyst")


class TestFarmTenants:
    """Per-farm isolation through the service: a farm is a tenant over
    its own prefix, and farms replicate into the broker it fronts."""

    def test_both_farms_replicate_into_the_served_broker(self):
        rig = FarmRig()
        rig.seed_data()
        assert rig.service.broker.has_entity("urn:AgriParcel:farma:0-0")
        assert rig.service.broker.has_entity("urn:AgriParcel:farmb:0-0")

    def test_duplicate_farm_tenant_rejected(self):
        rig = FarmRig()
        with pytest.raises(ValueError):
            rig.service.register_tenant(
                TenantSpec("farma", "x", ("urn:AgriParcel:farma:",)))

    def test_own_farm_readable(self):
        rig = FarmRig()
        rig.seed_data()
        response = rig.get("/v2/entities/urn:AgriParcel:farma:0-0", rig.token("farma"))
        assert response.status == 200
        assert response.body["soilMoisture"]["value"] == 0.25

    def test_cross_farm_read_denied_and_audited(self):
        rig = FarmRig()
        rig.seed_data()
        response = rig.get("/v2/entities/urn:AgriParcel:farmb:0-0", rig.token("farma"))
        assert response.status == 403
        denied = rig.service.security.pep.denied_records()
        assert [(r.principal, r.action, r.resource) for r in denied] == [
            ("farma", "ngsi.read", "urn:AgriParcel:farmb:0-0")]

    def test_listing_omits_other_farms(self):
        rig = FarmRig()
        rig.seed_data()
        response = rig.get("/v2/entities", rig.token("farma"), type="AgriParcel")
        assert [e["id"] for e in response.body] == ["urn:AgriParcel:farma:0-0"]

    def test_tenant_over_every_farm_sees_everything(self):
        rig = FarmRig()
        rig.seed_data()
        rig.service.register_tenant(TenantSpec("admin", "s", ("urn:AgriParcel:",)))
        response = rig.get("/v2/entities", rig.token("admin"), type="AgriParcel")
        assert len(response.body) == 2

    def test_bogus_token_is_401(self):
        rig = FarmRig()
        rig.seed_data()
        assert rig.get("/v2/entities/urn:AgriParcel:farma:0-0", "garbage").status == 401

    def test_missing_own_entity_is_404(self):
        rig = FarmRig()
        assert rig.get(
            "/v2/entities/urn:AgriParcel:farma:9-9", rig.token("farma")).status == 404


class TestRegionalRelease:
    """``GET /v2/regional/{entity_type}``: the one read across tenants,
    k-anonymised and permitted to the regional-analyst role only."""

    PATH = "/v2/regional/AgriParcel"

    def test_analyst_gets_k_anonymous_release(self):
        rig = FarmRig()
        rig.seed_data()
        rig.seed_shared_cell()
        response = rig.get(self.PATH, rig.analyst_token(), attrs="yield_t_ha")
        assert response.status == 200
        release = response.body
        assert len(release) == 3  # the two farms' 0-0 parcels are unique
        assert rig.service.anonymizer.suppressed_count == 2
        for record in release:
            assert set(record) == {"farm", "lat", "lon", "area_ha", "crop", "yield_t_ha"}
            assert "farma" not in str(record) and "farmb" not in str(record)
            for key in ("lat", "lon"):  # generalised to the 0.1° grid
                remainder = record[key] % 0.1
                assert min(remainder, 0.1 - remainder) < 1e-9
            assert record["area_ha"] == ">=200"
        assert sorted(r["yield_t_ha"] for r in release) == [3.8, 4.0, 4.2]
        assert rig.service.records[-1]["cache"] == ""  # never cached

    def test_pseudonym_is_the_farm_segment_of_the_id(self):
        rig = FarmRig()
        rig.seed_shared_cell()
        release = rig.get(self.PATH, rig.analyst_token()).body
        farma, farmb = (pseudonymize(farm, FarmRig.SALT) for farm in FarmRig.FARMS)
        # Two parcels of one farm share its pseudonym.
        assert sorted(r["farm"] for r in release) == sorted([farma, farma, farmb])

    def test_id_without_a_farm_segment_is_pseudonymised_whole(self):
        rig = FarmRig()
        token = rig.analyst_token()
        ids = ("plain-id", "urn:Valve:valve-1")
        for entity_id in ids:
            rig.service.broker.create_entity(
                entity_id, "Valve", {"lat": -12.1, "lon": -45.2, "crop": "none"})
        release = rig.get("/v2/regional/Valve", token).body
        assert sorted(r["farm"] for r in release) == sorted(
            pseudonymize(entity_id, FarmRig.SALT) for entity_id in ids)

    def test_unique_quasi_identifiers_are_suppressed(self):
        rig = FarmRig()
        rig.seed_data()
        response = rig.get(self.PATH, rig.analyst_token(), attrs="yield_t_ha")
        # The two farms sit in different grid cells, so each
        # quasi-identifier combination is unique and k=2 suppresses both.
        assert response.status == 200 and response.body == []
        assert rig.service.anonymizer.suppressed_count == 2

    def test_farmer_is_403_and_audited(self):
        rig = FarmRig()
        rig.seed_data()
        rig.analyst_token()
        response = rig.get(self.PATH, rig.token("farma"), attrs="yield_t_ha")
        assert response.status == 403
        denied = rig.service.security.pep.denied_records()
        assert [(r.principal, r.action, r.resource) for r in denied] == [
            ("farma", "regional.read", self.PATH)]
        assert rig.service.anonymizer.suppressed_count == 0  # nothing was released

    def test_junk_token_is_401(self):
        rig = FarmRig()
        rig.seed_data()
        rig.analyst_token()
        assert rig.get(self.PATH, "junk").status == 401

    def test_route_is_400_until_enabled(self):
        rig = FarmRig()
        rig.seed_data()
        token = rig.analyst_token(enable=False)
        for tenant_token in (token, rig.token("farma")):
            response = rig.get(self.PATH, tenant_token)
            assert response.status == 400
            assert "not enabled" in response.body["description"]
        rig.service.enable_regional_release(FarmRig.SALT)
        assert rig.get(self.PATH, token).status == 200
        with pytest.raises(ValueError):
            rig.service.enable_regional_release(b"other")


class TestEntityApi:
    def test_crud_round_trip(self):
        service = make_service()
        token = register_dash(service)
        eid = f"{OPS_PREFIX}s1"
        created = service.handle(Request(
            "POST", "/v2/entities",
            body={"id": eid, "type": "OpsStation", "level": {"value": 3}}, token=token,
        ))
        assert created.status == 201
        assert created.headers["Location"] == f"/v2/entities/{eid}"
        got = service.handle(Request("GET", f"/v2/entities/{eid}", token=token))
        assert got.body["level"]["value"] == 3
        patched = service.handle(Request(
            "PATCH", f"/v2/entities/{eid}/attrs", body={"level": {"value": 4}}, token=token,
        ))
        assert patched.status == 204
        attr = service.handle(Request(
            "GET", f"/v2/entities/{eid}/attrs/level", token=token))
        assert attr.body["value"] == 4
        deleted = service.handle(Request("DELETE", f"/v2/entities/{eid}", token=token))
        assert deleted.status == 204
        assert service.handle(
            Request("GET", f"/v2/entities/{eid}", token=token)).status == 404

    def test_duplicate_create_is_422(self):
        service = make_service()
        token = register_dash(service)
        body = {"id": f"{OPS_PREFIX}s1", "type": "OpsStation"}
        assert service.handle(
            Request("POST", "/v2/entities", body=body, token=token)).status == 201
        assert service.handle(
            Request("POST", "/v2/entities", body=body, token=token)).status == 422

    def test_q_param_parses_at_the_boundary(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        response = service.handle(Request(
            "GET", "/v2/entities",
            params={"q": "soilMoisture<0.25", "type": "AgriParcel"}, token=token,
        ))
        assert [e["id"] for e in response.body] == [f"{FARM_PREFIX}0-0"]

    def test_bad_q_param_is_400(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        response = service.handle(
            Request("GET", "/v2/entities", params={"q": "nonsense"}, token=token))
        assert response.status == 400
        assert response.body["error"] == "BadRequest"

    def test_paging_and_key_values(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        page = service.handle(Request(
            "GET", "/v2/entities",
            params={"limit": "2", "offset": "1", "options": "keyValues"}, token=token,
        ))
        assert page.headers["Fiware-Total-Count"] == "3"
        assert len(page.body) == 2
        assert page.body[0]["soilMoisture"] == pytest.approx(0.3)


class TestMalformedInput:
    """Malformed request input answers 400 and is logged; nothing raises
    out of ``handle()``."""

    @pytest.mark.parametrize("method,path,params,body", [
        ("POST", "/v2/entities", {}, [{"id": f"{OPS_PREFIX}s1", "type": "T"}]),
        ("PATCH", f"/v2/entities/{OPS_PREFIX}s1/attrs", {}, [{"x": 1}]),
        ("GET", "/v2/entities", {"idPattern": "("}, None),
        ("POST", "/v2/subscriptions", {},
         {"subject": {"entities": [{"idPattern": "("}]},
          "notification": {"endpoint": "hook"}}),
        ("POST", "/v2/subscriptions", {},
         {"subject": {"entities": [{"id": f"{FARM_PREFIX}0-0"}]},
          "notification": {"endpoint": "hook"}, "throttling": "often"}),
        ("POST", "/v2/subscriptions", {},
         {"subject": {"entities": []}, "notification": {"endpoint": "hook"}}),
    ], ids=["entity-body-list", "attrs-body-list", "id-pattern", "sub-id-pattern",
            "sub-throttling", "sub-no-entities"])
    def test_answers_400(self, method, path, params, body):
        service = make_service()
        service.enable_delivery(endpoints=(SimulatedEndpoint("hook"),))
        seed_entities(service.broker)
        token = register_dash(service)
        response = service.handle(
            Request(method, path, params=params, body=body, token=token))
        assert response.status == 400
        assert response.body["error"] == "BadRequest"
        assert service.records[-1]["status"] == 400

    @pytest.mark.parametrize("method,path,body", [
        ("POST", "/v2/entities", [{"id": f"{OPS_PREFIX}s1", "type": "T"}]),
        ("POST", "/v2/entities", {"type": "T"}),
        ("GET", "/v2/regional/AgriParcel", None),
    ], ids=["body-not-object", "body-without-id", "regional-not-enabled"])
    def test_request_naming_no_resource_is_submitted_not_an_auth_refusal(
            self, method, path, body):
        service = make_service()
        token = register_dash(service, quota=TenantQuota(1, 60.0, 8))
        statuses = [
            service.handle(Request(method, path, body=body, token=token)).status
            for _ in range(2)
        ]
        # The second one is over quota: the 400 spent the tenant's request.
        assert statuses == [400, 429]
        tenant = service.tenant("dash")
        assert tenant.submitted == 2
        assert tenant.rejected_quota == 1
        assert tenant.rejected_auth == 0
        assert service.rejected["auth"] == 0
        # A junk token is still an auth refusal.
        junk = service.handle(Request(method, path, body=body, token="junk"))
        assert junk.status == 401
        assert service.rejected["auth"] == 1


class TestQuotas:
    def test_over_quota_tenant_gets_429_others_unaffected(self):
        service = make_service()
        seed_entities(service.broker)
        greedy_spec = TenantSpec(
            "greedy", "s", (FARM_PREFIX,), quota=TenantQuota(3, 60.0, 8))
        service.register_tenant(greedy_spec)
        token_g = service.tenant_token("greedy")
        token_d = register_dash(service)
        statuses = [
            service.handle(Request("GET", "/v2/entities", token=token_g)).status
            for _ in range(5)
        ]
        assert statuses == [200, 200, 200, 429, 429]
        # The well-behaved tenant is untouched in the same window.
        assert service.handle(Request("GET", "/v2/entities", token=token_d)).status == 200
        assert service.tenant("greedy").rejected_quota == 2
        assert service.tenant("dash").rejected_quota == 0

    def test_quota_window_rolls_with_sim_time(self):
        service = make_service()
        seed_entities(service.broker)
        service.register_tenant(TenantSpec(
            "t", "s", (FARM_PREFIX,), quota=TenantQuota(1, 10.0, 8)))
        token = service.tenant_token("t")
        assert service.handle(Request("GET", "/v2/entities", token=token)).status == 200
        assert service.handle(Request("GET", "/v2/entities", token=token)).status == 429
        service.sim.run_until(10.5)  # next window
        assert service.handle(Request("GET", "/v2/entities", token=token)).status == 200

    def test_backlog_overflow_is_503(self):
        service = make_service()
        seed_entities(service.broker)
        service.register_tenant(TenantSpec(
            "t", "s", (FARM_PREFIX,), quota=TenantQuota(100, 60.0, 2)))
        token = service.tenant_token("t")
        service.start()
        responses = [
            service.submit(Request("GET", "/v2/entities", token=token))
            for _ in range(4)
        ]
        # First two queue (None); beyond the backlog cap → immediate 503.
        assert [r.status if r else None for r in responses] == [None, None, 503, 503]
        service.sim.run_until(2.0)  # pump drains the queued two
        oks = [r for r in service.records if r["status"] == 200]
        assert len(oks) == 2
        assert all(r["done_s"] > r["at_s"] for r in oks)
        assert service.tenant("t").rejected_backlog == 2

    def test_submit_answers_at_once_until_the_pump_starts(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        before = service.submit(Request("GET", "/v2/entities", token=token))
        assert before is not None and before.status == 200
        service.start()
        assert service.submit(Request("GET", "/v2/entities", token=token)) is None
        assert len(service.records) == 1  # queued, not yet answered
        service.sim.run_until(2.0)
        assert [r["status"] for r in service.records] == [200, 200]
        assert service.records[-1]["done_s"] > service.records[-1]["at_s"]


class TestResponseCache:
    def test_repeat_read_hits(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        path = f"/v2/entities/{FARM_PREFIX}0-0"
        first = service.handle(Request("GET", path, token=token))
        second = service.handle(Request("GET", path, token=token))
        assert first.status == second.status == 200
        assert second.headers.get("X-Cache") == "HIT"
        assert first.body == second.body

    def test_service_write_invalidates_entity(self):
        service = make_service()
        token = register_dash(service)
        eid = f"{OPS_PREFIX}s1"
        service.handle(Request(
            "POST", "/v2/entities", body={"id": eid, "type": "T", "x": {"value": 1}},
            token=token))
        service.handle(Request("GET", f"/v2/entities/{eid}", token=token))
        service.handle(Request(
            "PATCH", f"/v2/entities/{eid}/attrs", body={"x": {"value": 2}}, token=token))
        refreshed = service.handle(Request("GET", f"/v2/entities/{eid}", token=token))
        assert refreshed.headers.get("X-Cache") != "HIT"
        assert refreshed.body["x"]["value"] == 2

    def test_broker_side_telemetry_invalidates(self):
        # Device telemetry lands through the broker hook, not the service.
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        path = f"/v2/entities/{FARM_PREFIX}0-0"
        service.handle(Request("GET", path, token=token))
        service.broker.update_attributes(f"{FARM_PREFIX}0-0", {"soilMoisture": 0.99})
        refreshed = service.handle(Request("GET", path, token=token))
        assert refreshed.headers.get("X-Cache") != "HIT"
        assert refreshed.body["soilMoisture"]["value"] == 0.99

    def test_scope_invalidation_refreshes_listings(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        listing = Request("GET", "/v2/entities", token=token)
        service.handle(listing)
        hit = service.handle(listing)
        assert hit.headers.get("X-Cache") == "HIT"
        service.broker.create_entity(f"{FARM_PREFIX}9-9", "AgriParcel", {"soilMoisture": 0.1})
        # Creation fires the service's own note_write only through handlers;
        # attribute writes reach the broker hook — either way the scope bumps.
        refreshed = service.handle(listing)
        assert refreshed.headers.get("X-Cache") != "HIT"
        assert any(e["id"] == f"{FARM_PREFIX}9-9" for e in refreshed.body)

    def test_cache_keys_are_per_tenant(self):
        service = make_service()
        seed_entities(service.broker)
        token_a = register_dash(service)
        service.register_tenant(TenantSpec("b", "s", (FARM_PREFIX,)))
        token_b = service.tenant_token("b")
        service.handle(Request("GET", "/v2/entities", token=token_a))
        response = service.handle(Request("GET", "/v2/entities", token=token_b))
        assert response.headers.get("X-Cache") != "HIT"  # b's first look


class TestSthApi:
    def _service_with_samples(self):
        service = make_service()
        broker = service.broker
        eid = f"{FARM_PREFIX}0-0"
        broker.create_entity(eid, "AgriParcel")
        for i in range(10):
            service.sim.run_until(i * 30.0 + 1.0)
            broker.update_attributes(eid, {"soilMoisture": 0.2 + i / 100})
        return service, eid

    def test_last_n(self):
        service, eid = self._service_with_samples()
        token = register_dash(service)
        response = service.handle(Request(
            "GET",
            f"/STH/v1/contextEntities/type/AgriParcel/id/{eid}/attributes/soilMoisture",
            params={"lastN": "3"}, token=token,
        ))
        values = response.body["contextResponses"][0]["contextElement"]["attributes"][0]["values"]
        assert [v["attrValue"] for v in values] == pytest.approx([0.27, 0.28, 0.29])

    def test_range_paging(self):
        service, eid = self._service_with_samples()
        token = register_dash(service)
        base = f"/STH/v1/contextEntities/type/AgriParcel/id/{eid}/attributes/soilMoisture"
        page = service.handle(Request(
            "GET", base, params={"hLimit": "4", "hOffset": "2"}, token=token))
        values = page.body["contextResponses"][0]["contextElement"]["attributes"][0]["values"]
        assert len(values) == 4
        assert values[0]["recvTime"] == pytest.approx(61.0)

    def test_rollup_aggregation(self):
        service, eid = self._service_with_samples()
        token = register_dash(service)
        base = f"/STH/v1/contextEntities/type/AgriParcel/id/{eid}/attributes/soilMoisture"
        response = service.handle(Request(
            "GET", base, params={"aggrMethod": "max", "aggrPeriod": "minute"}, token=token))
        values = response.body["contextResponses"][0]["contextElement"]["attributes"][0]["values"]
        # 10 samples at 30 s spacing → two per minute bucket, max of each pair.
        assert [v["max"] for v in values] == pytest.approx([0.21, 0.23, 0.25, 0.27, 0.29])
        assert [v["origin"] for v in values] == [0.0, 60.0, 120.0, 180.0, 240.0]

    def test_unknown_aggr_period_is_400(self):
        service, eid = self._service_with_samples()
        token = register_dash(service)
        base = f"/STH/v1/contextEntities/type/AgriParcel/id/{eid}/attributes/soilMoisture"
        response = service.handle(Request(
            "GET", base, params={"aggrMethod": "mean", "aggrPeriod": "fortnight"},
            token=token))
        assert response.status == 400


class TestErrorMapping:
    # Control-flow signals are not errors and must never escape to a response.
    NOT_ERRORS = {"StopSimulation"}

    def test_every_exported_error_class_maps(self):
        exported = {
            name: getattr(api, name) for name in api.__all__
            if isinstance(getattr(api, name), type)
            and issubclass(getattr(api, name), BaseException)
        }
        unmapped = {n for n, c in exported.items() if not has_error_mapping(c)}
        assert unmapped == self.NOT_ERRORS
        exported_errors = [
            c for n, c in exported.items() if n not in self.NOT_ERRORS]
        assert len(exported_errors) >= 12  # the hierarchy is actually covered
        for exc_type in exported_errors:
            assert has_error_mapping(exc_type), exc_type.__name__
            status = status_for(exc_type)
            assert status in (400, 401, 403, 404, 422, 429, 500, 503), exc_type.__name__
            response = error_response(exc_type("boom"))
            assert response.status == status
            assert set(response.body) == {"error", "description"}

    def test_service_error_statuses_are_pinned(self):
        assert status_for(AuthenticationError) == 401
        assert status_for(AuthorizationError) == 403
        assert status_for(QuotaExceededError) == 429
        assert status_for(ServiceOverloadedError) == 503
        assert status_for(ServiceError) == 500
        assert status_for(OAuthError("x")) == 401

    def test_subclasses_resolve_through_mro(self):
        class CustomNotFound(NotFoundError):
            pass

        assert status_for(CustomNotFound) == 404
        assert status_for(QueryError) == 400

    def test_unknown_exception_defaults_to_500(self):
        assert status_for(RuntimeError("x")) == 500
        assert not has_error_mapping(RuntimeError)


class TestLoadgenAndRun:
    FARM = "matopiba"

    def _entity_ids(self):
        return [f"urn:AgriParcel:{self.FARM}:{r}-{c}"
                for r in range(2) for c in range(2)]

    def test_same_seed_same_trace(self):
        from repro.service import standard_trace

        one = standard_trace(seed=7, duration_s=60.0,
                             entity_ids=self._entity_ids(), farm=self.FARM)
        two = standard_trace(seed=7, duration_s=60.0,
                             entity_ids=self._entity_ids(), farm=self.FARM)
        assert [r.to_dict() for r in one.requests] == [r.to_dict() for r in two.requests]
        three = standard_trace(seed=8, duration_s=60.0,
                               entity_ids=self._entity_ids(), farm=self.FARM)
        assert [r.to_dict() for r in one.requests] != [r.to_dict() for r in three.requests]

    def test_trace_save_load_round_trip(self, tmp_path):
        from repro.service import RequestTrace, standard_trace

        trace = standard_trace(seed=7, duration_s=30.0,
                               entity_ids=self._entity_ids(), farm=self.FARM)
        path = tmp_path / "trace.json"
        trace.save(str(path))
        loaded = RequestTrace.load(str(path))
        assert loaded.name == trace.name and loaded.seed == trace.seed
        assert [r.to_dict() for r in loaded.requests] == [
            r.to_dict() for r in trace.requests]
        assert [t.to_dict() for t in loaded.tenants] == [
            t.to_dict() for t in trace.tenants]

    def test_run_with_serve_trace_is_deterministic(self):
        from repro.core.run import RunOptions, run
        from repro.service import standard_trace

        def one_run():
            trace = standard_trace(seed=5, duration_s=120.0,
                                   entity_ids=self._entity_ids(), farm=self.FARM)
            result = run(RunOptions(pilot=self.FARM, seed=5, days=1, serve_trace=trace))
            return result.service.response_log_digest()

        assert one_run() == one_run()

    def test_replay_introspects_once_per_request(self):
        from repro.service import schedule_trace, standard_trace

        service = make_service()
        seed_entities(service.broker)
        trace = standard_trace(seed=5, duration_s=120.0, farm="demo",
                               entity_ids=[f"{FARM_PREFIX}0-{i}" for i in range(3)])
        oauth = service.security.oauth
        introspect = oauth.introspect
        calls = []
        oauth.introspect = lambda access_token: (
            calls.append(access_token) or introspect(access_token))
        scheduled = schedule_trace(service, trace)
        service.sim.run_until(trace.duration_s + 10.0)
        assert scheduled == len(service.records) > 100
        assert len(calls) == scheduled  # the service's own, none client-side

    def test_trace_naming_an_undeclared_tenant_is_refused_up_front(self):
        from repro.service import RequestTrace, TraceRequest, schedule_trace

        service = make_service()
        pending = len(service.sim.queue)
        trace = RequestTrace("ghost", 0, [TenantSpec("ops", "s", (OPS_PREFIX,))], [
            TraceRequest(10.0, "nobody", "GET", "/v2/entities"),
            TraceRequest(20.0, "ops", "GET", "/v2/entities"),
            TraceRequest(30.0, "nemo", "GET", "/v2/entities"),
            # An explicit token needs no tenant behind it (a 401 probe).
            TraceRequest(40.0, "probe", "GET", "/v2/entities", token="junk"),
        ])
        with pytest.raises(ServiceError, match="undeclared tenants: nemo, nobody$"):
            schedule_trace(service, trace)
        assert service.tenants() == []
        assert len(service.sim.queue) == pending

    def test_revoked_tenant_token_is_regranted(self):
        service = make_service()
        token = register_dash(service)
        service.security.oauth.revoke(token)
        renewed = service.tenant_token("dash")
        assert renewed != token
        assert service.handle(Request("GET", "/v2/entities", token=renewed)).status == 200

    def test_cli_serve_round_trip(self, tmp_path):
        import io

        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        log_a = tmp_path / "a.jsonl"
        log_b = tmp_path / "b.jsonl"
        out = io.StringIO()
        assert main([
            "serve", "matopiba", "--seed", "5", "--days", "1",
            "--serve-duration", "120",
            "--record", str(trace_path), "--responses", str(log_a),
        ], out=out) == 0
        assert "response digest:" in out.getvalue()
        assert main([
            "serve", "matopiba", "--seed", "5", "--days", "1",
            "--requests", str(trace_path), "--responses", str(log_b),
        ], out=io.StringIO()) == 0
        assert log_a.read_bytes() == log_b.read_bytes()


class TestResponseLog:
    def test_log_is_canonical_json_lines(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        service.handle(Request("GET", "/v2/entities", token=token))
        service.handle(Request("GET", "/nope", token=token))
        lines = service.response_log().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
        assert len(service.response_log_digest()) == 64

    def test_report_shape(self):
        service = make_service()
        seed_entities(service.broker)
        token = register_dash(service)
        for _ in range(3):
            service.handle(Request("GET", "/v2/entities", token=token))
        report = service.report()
        assert report["requests"] == 3
        assert report["by_status"] == {"200": 3}
        assert report["cache"]["hits"] == 2
        assert 0.0 <= report["cache"]["hit_rate"] <= 1.0
        assert set(report["latency_s"]) == {"p50", "p95", "p99", "max"}

    def test_record_cap_counts_what_it_drops(self):
        service = make_service(max_records=3)
        seed_entities(service.broker)
        token = register_dash(service)
        for _ in range(5):
            service.handle(Request("GET", "/v2/entities", token=token))
        report = service.report()
        assert report["requests"] == 5
        assert report["records_dropped"] == 2
        assert [r["seq"] for r in service.records] == [3, 4, 5]  # newest kept
        assert sum(report["by_status"].values()) == 3
