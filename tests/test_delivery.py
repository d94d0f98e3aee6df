"""At-least-once notification delivery: queues, retries, breaker, DLQ,
and the service layer's subscription management routes."""

import pytest

from repro.context.broker import ContextBroker
from repro.context.delivery import (
    DeliveryConfig,
    DeliveryError,
    DeliveryManager,
    SimulatedEndpoint,
)
from repro.context.history import ShortTermHistory
from repro.context.subscriptions import Subscription
from repro.core.security_profile import SecurityConfig, SecurityStack
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.resilience import BreakerState
from repro.service import NgsiService, Request, ServiceConfig, TenantSpec
from repro.simkernel.simulator import Simulator

EID = "urn:AgriParcel:demo:0-0"
FARM = "urn:AgriParcel:demo:"


def make_pipeline(config=None, **endpoint_kwargs):
    sim = Simulator(seed=7)
    broker = ContextBroker(sim)
    manager = DeliveryManager(
        sim, config or DeliveryConfig(pump_interval_s=0.5, timeout_s=1.0))
    endpoint = manager.register_endpoint(
        SimulatedEndpoint("hook", **endpoint_kwargs))
    manager.start()
    broker.create_entity(EID, "AgriParcel", {"soilMoisture": 0.2})
    sub = Subscription(callback=lambda _n: None, entity_id=EID)
    manager.bind_subscription(sub, "dash", "hook")
    broker.subscribe(sub)
    return sim, broker, manager, endpoint


def publish(sim, broker, n, dt=5.0):
    for i in range(n):
        broker.update_attributes(EID, {"soilMoisture": 0.2 + 0.01 * i})
        sim.run_until(sim.now + dt)


class TestHappyPath:
    def test_reliable_endpoint_delivers_everything_once(self):
        sim, broker, manager, endpoint = make_pipeline()
        publish(sim, broker, 25)
        audit = manager.audit()
        assert audit["accepted"] == 25
        assert audit["delivered"] == 25
        assert audit["dead"] == audit["pending"] == audit["duplicates"] == 0
        assert audit["conserved"]
        assert endpoint.received == 25 and len(endpoint.delivered_seqs) == 25

    def test_unbound_subscriptions_are_untouched(self):
        """Notifications outside the delivery pipeline still fire inline."""
        sim = Simulator(seed=7)
        broker = ContextBroker(sim)
        seen = []
        broker.create_entity(EID, "AgriParcel", {"soilMoisture": 0.2})
        broker.subscribe(Subscription(callback=seen.append, entity_id=EID))
        broker.update_attributes(EID, {"soilMoisture": 0.3})
        assert len(seen) == 1


class TestAtLeastOnce:
    def test_ambiguous_timeouts_produce_tagged_duplicates(self):
        sim, broker, manager, endpoint = make_pipeline(
            timeout_rate=0.4, timeout_delivers=True)
        publish(sim, broker, 40)
        sim.run_until(sim.now + 2000.0)
        audit = manager.audit()
        assert audit["conserved"]
        assert audit["delivered"] + audit["dead"] == 40
        # Timeouts landed the payload, so retries created real duplicates
        # — received strictly exceeds unique, and every one is tagged.
        assert endpoint.received > len(endpoint.delivered_seqs)
        assert endpoint.duplicates == endpoint.received - len(endpoint.delivered_seqs)

    def test_conservation_under_failures_outage_and_replay(self):
        sim, broker, manager, endpoint = make_pipeline(fail_rate=0.3)
        publish(sim, broker, 30)
        endpoint.down = True
        publish(sim, broker, 30)
        sim.run_until(sim.now + 1000.0)
        endpoint.down = False
        manager.replay("dash")
        sim.run_until(sim.now + 3000.0)
        audit = manager.audit()
        assert audit["accepted"] == 60
        assert audit["conserved"]
        # Everything ends terminal or visibly queued; nothing vanished.
        assert audit["delivered"] + audit["dead"] + audit["pending"] == 60

    def test_full_queue_rejects_admission_loudly(self):
        config = DeliveryConfig(queue_capacity=5, pump_interval_s=500.0)
        sim, broker, manager, _ = make_pipeline(config=config)
        for i in range(9):  # pump never runs: the queue fills at 5
            broker.update_attributes(EID, {"soilMoisture": 0.2 + 0.01 * i})
        audit = manager.audit()
        assert audit["accepted"] == 5 and audit["rejected"] == 4
        assert audit["conserved"]


class TestDeadLetterQueue:
    def test_exhausted_attempts_dead_letter_then_replay_delivers(self):
        sim, broker, manager, endpoint = make_pipeline(fail_rate=1.0)
        publish(sim, broker, 10)
        sim.run_until(sim.now + 4000.0)
        audit = manager.audit()
        assert audit["dead"] == 10 and audit["delivered"] == 0
        endpoint.fail_rate = 0.0
        assert manager.replay("dash") == 10
        sim.run_until(sim.now + 2000.0)
        audit = manager.audit()
        assert audit["delivered"] == 10 and audit["dead"] == 0
        assert audit["conserved"]
        # Replayed items carry their history.
        item = manager._items[0]
        assert item.replays == 1 and item.status == "delivered"

    def test_replay_filters_by_subscription(self):
        sim, broker, manager, endpoint = make_pipeline(fail_rate=1.0)
        publish(sim, broker, 4)
        sim.run_until(sim.now + 4000.0)
        assert manager.replay("dash", subscription_id="sub-999") == 0
        assert manager.replay("nobody") == 0
        sub_id = manager._items[0].subscription_id
        assert manager.replay("dash", subscription_id=sub_id) == 4


class TestBreakerGating:
    def test_open_breaker_defers_without_burning_attempts(self):
        config = DeliveryConfig(
            pump_interval_s=0.5, timeout_s=1.0, max_attempts=50,
            breaker_failure_threshold=3, breaker_open_timeout_s=60.0)
        sim, broker, manager, endpoint = make_pipeline(
            config=config, fail_rate=1.0)
        publish(sim, broker, 20)
        sim.run_until(sim.now + 500.0)
        breaker = manager.breaker("hook")
        assert breaker.state in (BreakerState.OPEN, BreakerState.HALF_OPEN)
        assert manager.breaker_deferrals > 0
        # With the breaker gating, total attempts stay far below what 20
        # items x 50 attempts of unguarded hammering would produce.
        attempts = sum(i.attempts for i in manager._items)
        assert attempts < 200
        assert manager.audit()["conserved"]

    def test_endpoint_outage_fault_heals_through_breaker(self):
        sim, broker, manager, endpoint = make_pipeline()
        injector = FaultInjector(sim)
        injector.register_endpoint("hook", endpoint)
        injector.apply(FaultPlan("outage", [
            FaultEvent("endpoint_outage", "hook", at_s=50.0, duration_s=300.0)]))
        publish(sim, broker, 60)
        sim.run_until(sim.now + 3000.0)
        assert injector.recovered == 1
        assert not endpoint.down
        audit = manager.audit()
        assert audit["conserved"]
        assert audit["delivered"] + audit["dead"] == 60
        assert audit["delivered"] >= 30  # pre-outage and healed traffic land


class TestConfigAndRegistration:
    def test_config_validation_rejects_nonpositive_knobs(self):
        with pytest.raises(DeliveryError, match="max_attempts"):
            DeliveryConfig(max_attempts=0).validate()

    def test_duplicate_and_unknown_endpoints_raise(self):
        sim = Simulator(seed=1)
        manager = DeliveryManager(sim)
        manager.register_endpoint(SimulatedEndpoint("hook"))
        with pytest.raises(DeliveryError, match="already registered"):
            manager.register_endpoint(SimulatedEndpoint("hook"))
        with pytest.raises(DeliveryError, match="unknown endpoint"):
            manager.endpoint("nope")


def make_service():
    from repro.telemetry.metrics import MetricsRegistry

    sim = Simulator(seed=11, metrics=MetricsRegistry())
    broker = ContextBroker(sim)
    history = ShortTermHistory(broker)
    security = SecurityStack(sim, "demo", SecurityConfig())
    service = NgsiService(sim, broker, history, security, ServiceConfig())
    endpoint = SimulatedEndpoint("dash-hook", fail_rate=0.1)
    service.enable_delivery(
        DeliveryConfig(pump_interval_s=0.5, timeout_s=1.0),
        endpoints=(endpoint,))
    service.register_tenant(TenantSpec("dash", "s1", read_prefixes=(FARM,)))
    broker.create_entity(EID, "AgriParcel", {"soilMoisture": 0.2})
    return service, service.tenant_token("dash"), endpoint


def create_sub(service, token, **overrides):
    body = {
        "subject": {"entities": [{"id": EID}],
                    "condition": {"attrs": ["soilMoisture"]}},
        "notification": {"endpoint": "dash-hook"},
    }
    body.update(overrides)
    response = service.handle(
        Request("POST", "/v2/subscriptions", token=token, body=body))
    assert response.status == 201
    return response.headers["Location"].rsplit("/", 1)[1]


class TestServiceSubscriptionRoutes:
    def test_create_list_get_delete_round_trip(self):
        service, token, _ = make_service()
        sub_id = create_sub(service, token)
        listed = service.handle(
            Request("GET", "/v2/subscriptions", token=token))
        assert listed.status == 200
        assert [s["id"] for s in listed.body] == [sub_id]
        got = service.handle(
            Request("GET", f"/v2/subscriptions/{sub_id}", token=token))
        assert got.status == 200
        assert got.body["subject"]["entities"] == [{"id": EID}]
        assert got.body["delivery"]["endpoint"] == "dash-hook"
        assert service.handle(
            Request("DELETE", f"/v2/subscriptions/{sub_id}", token=token)
        ).status == 204
        assert service.handle(
            Request("GET", f"/v2/subscriptions/{sub_id}", token=token)
        ).status == 404

    def test_notifications_flow_to_the_endpoint(self):
        service, token, endpoint = make_service()
        sub_id = create_sub(service, token)
        sim, broker = service.sim, service.broker
        for i in range(20):
            broker.update_attributes(EID, {"soilMoisture": 0.2 + 0.01 * i})
            sim.run_until(sim.now + 5.0)
        sim.run_until(sim.now + 1000.0)
        status = service.handle(
            Request("GET", f"/v2/subscriptions/{sub_id}", token=token)
        ).body["delivery"]
        assert status["accepted"] == 20
        assert status["delivered"] + status["dead"] == 20
        assert endpoint.received >= status["delivered"]
        assert service.report()["delivery"]["conserved"]

    def test_foreign_subscription_reads_as_absent(self):
        service, token, _ = make_service()
        sub_id = create_sub(service, token)
        service.register_tenant(
            TenantSpec("ops", "s2", read_prefixes=("urn:Ops:",)))
        other = service.tenant_token("ops")
        for method, path in (
            ("GET", f"/v2/subscriptions/{sub_id}"),
            ("DELETE", f"/v2/subscriptions/{sub_id}"),
            ("POST", f"/v2/subscriptions/{sub_id}/replay"),
        ):
            assert service.handle(
                Request(method, path, token=other)).status == 404
        assert service.handle(
            Request("GET", "/v2/subscriptions", token=other)).body == []

    def test_create_outside_namespace_is_403(self):
        service, token, _ = make_service()
        response = service.handle(Request(
            "POST", "/v2/subscriptions", token=token,
            body={"subject": {"entities": [{"id": "urn:Ops:secret:1"}]},
                  "notification": {"endpoint": "dash-hook"}}))
        assert response.status == 403

    @pytest.mark.parametrize("selector", [{"idPattern": ".*"}, {"type": "AgriParcel"}])
    def test_subject_matches_only_inside_the_namespace(self, selector):
        foreign = "urn:AgriParcel:other:0-0"

        def run(foreign_updates):
            service, token, _ = make_service()
            sim, broker = service.sim, service.broker
            broker.create_entity(foreign, "AgriParcel", {"soilMoisture": 0.9})
            sub_id = create_sub(service, token, throttling=8.0,
                                subject={"entities": [selector]})
            for i in range(5):
                if foreign_updates:
                    broker.update_attributes(foreign, {"soilMoisture": 0.5 + 0.01 * i})
                sim.run_until(sim.now + 1.0)
                broker.update_attributes(EID, {"soilMoisture": 0.2 + 0.01 * i})
                sim.run_until(sim.now + 5.0)
            sim.run_until(sim.now + 1000.0)
            sub = broker.subscriptions[sub_id]
            body = service.handle(
                Request("GET", f"/v2/subscriptions/{sub_id}", token=token)).body
            return (body["notification"]["timesSent"], sub.notifications_throttled,
                    sub.last_notification_time, body["delivery"]["accepted"])

        # Own updates every 6 s under an 8 s throttle: sent, throttled,
        # sent, throttled, sent.  Foreign updates send nothing, add nothing
        # to timesSent and open no throttle window.
        with_foreign = run(foreign_updates=True)
        assert with_foreign == run(foreign_updates=False)
        assert with_foreign[:2] == (3, 2)

    def test_create_without_endpoint_is_400(self):
        service, token, _ = make_service()
        response = service.handle(Request(
            "POST", "/v2/subscriptions", token=token,
            body={"subject": {"entities": [{"id": EID}]}}))
        assert response.status == 400
        assert "notification.endpoint" in response.body["description"]

    def test_routes_refuse_when_delivery_disabled(self):
        sim = Simulator(seed=11)
        broker = ContextBroker(sim)
        service = NgsiService(
            sim, broker, ShortTermHistory(broker),
            SecurityStack(sim, "demo", SecurityConfig()), ServiceConfig())
        service.register_tenant(TenantSpec("dash", "s1", read_prefixes=(FARM,)))
        token = service.tenant_token("dash")
        response = service.handle(Request(
            "POST", "/v2/subscriptions", token=token,
            body={"subject": {"entities": [{"id": EID}]},
                  "notification": {"endpoint": "x"}}))
        assert response.status == 400
        assert "not enabled" in response.body["description"]

    def test_replay_route_redelivers_dead_letters(self):
        service, token, endpoint = make_service()
        sub_id = create_sub(service, token)
        endpoint.fail_rate = 1.0
        sim, broker = service.sim, service.broker
        for i in range(5):
            broker.update_attributes(EID, {"soilMoisture": 0.2 + 0.01 * i})
            sim.run_until(sim.now + 5.0)
        sim.run_until(sim.now + 4000.0)
        endpoint.fail_rate = 0.0
        replayed = service.handle(
            Request("POST", f"/v2/subscriptions/{sub_id}/replay", token=token))
        assert replayed.status == 200 and replayed.body["replayed"] == 5
        sim.run_until(sim.now + 2000.0)
        status = service.handle(
            Request("GET", f"/v2/subscriptions/{sub_id}", token=token)
        ).body["delivery"]
        assert status["delivered"] == 5 and status["dead"] == 0

    def test_delivery_metrics_and_gauges_export(self):
        service, token, _ = make_service()
        create_sub(service, token)
        sim, broker = service.sim, service.broker
        for i in range(10):
            broker.update_attributes(EID, {"soilMoisture": 0.2 + 0.01 * i})
            sim.run_until(sim.now + 5.0)
        sim.run_until(sim.now + 500.0)
        metrics = sim.metrics
        assert metrics.value("delivery.accepted") == 10.0
        assert metrics.value("delivery.queue_depth", {"tenant": "dash"}) == 0.0
        assert metrics.value("delivery.dlq_depth", {"tenant": "dash"}) is not None
