"""The north-facing service layer: routing, auth, tenancy, quotas, cache."""

import json

import pytest

import repro.api as api
from repro.context.broker import ContextBroker
from repro.context.errors import NotFoundError, QueryError
from repro.context.history import ShortTermHistory
from repro.core.security_profile import SecurityConfig, SecurityStack
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

    def test_serve_trace_conflicts_with_chaos(self):
        from repro.core.run import RunOptions, run
        from repro.service import standard_trace

        trace = standard_trace(seed=5, duration_s=10.0,
                               entity_ids=self._entity_ids(), farm=self.FARM)
        with pytest.raises(ValueError, match="serve_trace is not supported"):
            run(RunOptions(pilot=self.FARM, seed=5, days=1,
                           serve_trace=trace, chaos=True))

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
