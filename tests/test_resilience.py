"""Tests for the resilience layer: backpressure primitives, the circuit
breaker, the supervisor, degraded-mode autonomy, and their wiring into a
running pilot."""

import pytest

from repro.resilience import (
    BackpressureError,
    BoundedQueue,
    BreakerState,
    CircuitBreaker,
    DegradedModePolicy,
    DropPolicy,
    RateLimiter,
    ResilienceConfig,
    ServiceHealth,
    Supervisor,
)
from repro.simkernel import Simulator


class TestBoundedQueue:
    def test_drop_oldest_evicts_head(self):
        evicted = []
        q = BoundedQueue(3, DropPolicy.DROP_OLDEST, on_evict=evicted.append)
        for i in range(5):
            assert q.push(i)
        assert list(q) == [2, 3, 4]
        assert evicted == [0, 1]
        assert q.dropped == 2

    def test_drop_newest_rejects_arrival(self):
        evicted = []
        q = BoundedQueue(2, DropPolicy.DROP_NEWEST, on_evict=evicted.append)
        assert q.push("a") and q.push("b")
        assert not q.push("c")
        assert list(q) == ["a", "b"]
        assert evicted == ["c"]

    def test_reject_policy_returns_false(self):
        q = BoundedQueue(1, DropPolicy.REJECT)
        assert q.push(1)
        assert not q.push(2)
        assert q.dropped == 1

    def test_drain_empties_oldest_first(self):
        q = BoundedQueue(4)
        for i in range(4):
            q.push(i)
        assert q.drain() == [0, 1, 2, 3]
        assert len(q) == 0 and not q


class TestRateLimiter:
    def test_admits_up_to_budget_per_window(self):
        limiter = RateLimiter(3, window_s=1.0)
        assert [limiter.admit(0.1) for _ in range(5)] == [True] * 3 + [False] * 2
        assert limiter.shed == 2

    def test_window_rolls_over_with_time(self):
        limiter = RateLimiter(1, window_s=1.0)
        assert limiter.admit(0.0)
        assert not limiter.admit(0.9)
        assert limiter.admit(1.0)  # new window
        assert limiter.admit(2.5)

    def test_never_schedules_anything(self):
        """Lazy windows: the limiter is pure arithmetic on `now`, so an
        idle limiter can't perturb a pinned event sequence."""
        limiter = RateLimiter(10, window_s=5.0)
        assert not hasattr(limiter, "sim")


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        b = CircuitBreaker("b", failure_threshold=3, open_timeout_s=60.0)
        for t in (1.0, 2.0):
            b.record_failure(t)
            assert b.state is BreakerState.CLOSED
        b.record_failure(3.0)
        assert b.state is BreakerState.OPEN
        assert b.opens == 1
        assert not b.allow(10.0)

    def test_success_resets_the_streak(self):
        b = CircuitBreaker("b", failure_threshold=2)
        b.record_failure(1.0)
        b.record_success(2.0)
        b.record_failure(3.0)
        assert b.state is BreakerState.CLOSED

    def test_half_open_single_trial_then_close(self):
        b = CircuitBreaker("b", failure_threshold=1, open_timeout_s=60.0)
        b.record_failure(0.0)
        assert b.state is BreakerState.OPEN
        assert not b.allow(59.0)
        assert b.allow(60.0)  # the trial
        assert b.state is BreakerState.HALF_OPEN
        assert not b.allow(60.5)  # one outstanding trial only
        b.record_success(61.0)
        assert b.state is BreakerState.CLOSED
        assert b.allow(61.5)

    def test_half_open_failure_reopens(self):
        b = CircuitBreaker("b", failure_threshold=1, open_timeout_s=60.0)
        b.record_failure(0.0)
        assert b.allow(60.0)
        b.record_failure(61.0)
        assert b.state is BreakerState.OPEN
        assert b.opens == 2
        assert not b.allow(100.0)
        assert b.allow(121.0)  # timeout counts from the re-open

    def test_failures_while_open_do_not_slide_the_window(self):
        """Repeated failure reports against an already-open breaker (e.g.
        a pump tick observing the same expired batch) must not postpone
        the half-open probe."""
        b = CircuitBreaker("b", failure_threshold=1, open_timeout_s=60.0)
        b.record_failure(0.0)
        for t in (10.0, 30.0, 59.0):
            b.record_failure(t)
        assert b.allow(60.0)

    def test_state_change_listeners_fire(self):
        transitions = []
        b = CircuitBreaker("b", failure_threshold=1, open_timeout_s=10.0)
        b.on_state_change.append(
            lambda old, new, now: transitions.append((old.value, new.value, now))
        )
        b.record_failure(1.0)
        b.allow(11.0)
        b.record_success(12.0)
        assert transitions == [
            ("closed", "open", 1.0),
            ("open", "half_open", 11.0),
            ("half_open", "closed", 12.0),
        ]

    def test_reentrant_listener_cannot_steal_a_second_probe(self):
        """The half-open trial slot is claimed before listeners run: a
        listener reacting to open->half_open by probing again (the
        delivery pump's shape) must be told no."""
        b = CircuitBreaker("b", failure_threshold=1, open_timeout_s=10.0)
        reentrant = []

        def listener(old, new, now):
            if new is BreakerState.HALF_OPEN:
                reentrant.append(b.allow(now))

        b.on_state_change.append(listener)
        b.record_failure(0.0)
        assert b.allow(10.0)  # the one legitimate trial
        assert reentrant == [False]

    def test_transitions_counter_tracks_every_edge(self):
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        b = CircuitBreaker("edge", failure_threshold=1, open_timeout_s=10.0,
                           metrics=registry)
        b.record_failure(1.0)   # closed -> open
        b.allow(11.0)           # open -> half_open
        b.record_success(12.0)  # half_open -> closed
        labels = {"breaker": "edge"}
        assert registry.value("resilience.breaker_transitions", labels) == 3.0
        assert registry.value("resilience.breaker_state", labels) == 0.0


class FlakyService:
    """A probe-able service the supervisor can restart."""

    def __init__(self):
        self.up = True
        self.restarts = 0

    def probe(self, now):
        return self.up

    def restart(self):
        self.restarts += 1
        self.up = True


class TestSupervisor:
    def make(self, **kwargs):
        sim = Simulator(seed=9)
        sup = Supervisor(sim, check_interval_s=10.0,
                         restart_backoff_initial_s=5.0, **kwargs)
        return sim, sup

    def test_healthy_services_stay_healthy_with_zero_restarts(self):
        sim, sup = self.make()
        service = FlakyService()
        sup.watch("svc", probe=service.probe, restart=service.restart)
        sup.start()
        sim.run(until=500.0)
        assert sup.health("svc") is ServiceHealth.HEALTHY
        assert service.restarts == 0 and sup.total_restarts == 0

    def test_unhealthy_service_is_restarted_and_recovers(self):
        sim, sup = self.make()
        service = FlakyService()
        sup.watch("svc", probe=service.probe, restart=service.restart)
        sup.start()
        sim.schedule(25.0, lambda: setattr(service, "up", False))
        sim.run(until=100.0)
        assert service.restarts == 1
        assert sup.health("svc") is ServiceHealth.HEALTHY
        assert sup.total_restarts == 1

    def test_restart_backoff_escalates_to_degraded_then_failed(self):
        sim, sup = self.make(degraded_after_restarts=2, failed_after_restarts=4)
        service = FlakyService()
        # Restarts never stick: the service goes straight back down.
        service.restart = lambda: None
        sup.watch("svc", probe=service.probe, restart=service.restart)
        service.up = False
        sup.start()
        sim.run(until=4000.0)
        assert sup.health("svc") is ServiceHealth.FAILED

    def test_watch_without_restart_degrades(self):
        sim, sup = self.make()
        sup.watch("svc", probe=lambda now: False)
        sup.start()
        sim.run(until=50.0)
        assert sup.health("svc") is ServiceHealth.DEGRADED

    def test_heartbeat_watch_goes_unhealthy_on_silence(self):
        sim, sup = self.make()
        watch = sup.watch("svc", heartbeat_timeout_s=30.0)
        sup.start()
        sim.schedule(20.0, watch.beat)
        sim.run(until=25.0)
        assert sup.health("svc") is ServiceHealth.HEALTHY
        sim.run(until=100.0)  # silence since t=20
        assert sup.health("svc") is not ServiceHealth.HEALTHY

    def test_state_change_hooks_see_every_transition(self):
        sim, sup = self.make()
        service = FlakyService()
        seen = []
        sup.on_state_change.append(
            lambda name, old, new, now: seen.append((name, new.value))
        )
        sup.watch("svc", probe=service.probe, restart=service.restart)
        sup.start()
        sim.schedule(25.0, lambda: setattr(service, "up", False))
        sim.run(until=100.0)
        assert ("svc", "suspect") in seen or ("svc", "restarting") in seen
        assert seen[-1] == ("svc", "healthy")

    def test_backoff_jitter_comes_from_named_stream(self):
        """Supervision draws restart jitter from its own stream, never
        from streams other subsystems consume."""
        sim, sup = self.make()
        baseline = sim.rng.stream("weather").random()
        sim2 = Simulator(seed=9)
        sup2 = Supervisor(sim2, check_interval_s=10.0)
        sup2._rng.uniform(0.0, 0.25)  # a restart draw happened
        assert sim2.rng.stream("weather").random() == baseline


class StubScheduler:
    def __init__(self):
        self.max_data_age_s = 100.0
        self.on_decision = []


class StubContext:
    def __init__(self):
        self.entities = {}
        self.updates = []

    def ensure_entity(self, entity_id, entity_type, attrs=None):
        self.entities.setdefault(entity_id, entity_type)

    def update_attributes(self, entity_id, attrs):
        self.updates.append((entity_id, attrs))
        return list(attrs)


class TestDegradedMode:
    def make(self):
        sim = Simulator(seed=4)
        scheduler = StubScheduler()
        context = StubContext()
        policy = DegradedModePolicy(
            sim, scheduler, context, "farm",
            degraded_max_data_age_s=1000.0, journal_limit=3,
        )
        return sim, scheduler, context, policy

    def test_breaker_open_enters_and_widens_staleness(self):
        sim, scheduler, context, policy = self.make()
        policy.on_breaker_state(BreakerState.CLOSED, BreakerState.OPEN, 5.0)
        assert policy.mode == policy.DEGRADED
        assert scheduler.max_data_age_s == 1000.0
        policy.on_breaker_state(BreakerState.OPEN, BreakerState.CLOSED, 9.0)
        assert policy.mode == policy.NORMAL
        assert scheduler.max_data_age_s == 100.0

    def test_journal_only_while_degraded_then_reconciles(self):
        sim, scheduler, context, policy = self.make()
        policy.record_decision({"t": 1.0, "depth_mm": 5.0})  # normal: ignored
        policy.on_breaker_state(BreakerState.CLOSED, BreakerState.OPEN, 2.0)
        policy.record_decision({"t": 3.0, "depth_mm": 7.0})
        policy.on_breaker_state(BreakerState.OPEN, BreakerState.CLOSED, 4.0)
        assert policy.journaled == 1
        assert policy.reconciled == 1
        assert "urn:IrrigationJournal:farm" in context.entities
        (entity_id, attrs), = context.updates
        assert attrs["decisions"] == [{"t": 3.0, "depth_mm": 7.0}]

    def test_journal_is_bounded_oldest_first(self):
        sim, scheduler, context, policy = self.make()
        policy.on_breaker_state(BreakerState.CLOSED, BreakerState.OPEN, 0.0)
        for i in range(5):
            policy.record_decision({"i": i})
        policy.on_breaker_state(BreakerState.OPEN, BreakerState.CLOSED, 1.0)
        (_, attrs), = context.updates
        assert [d["i"] for d in attrs["decisions"]] == [2, 3, 4]
        assert attrs["droppedEntries"] == 2

    def test_reason_union_exits_only_when_all_clear(self):
        """Breaker-open and service-isolation signals stack: degraded mode
        ends when the *last* reason clears, not the first."""
        sim, scheduler, context, policy = self.make()
        policy.isolation_services.add("fog.node")
        policy.on_breaker_state(BreakerState.CLOSED, BreakerState.OPEN, 1.0)
        policy.on_service_state(
            "fog.node", ServiceHealth.SUSPECT, ServiceHealth.DEGRADED, 2.0
        )
        policy.on_breaker_state(BreakerState.OPEN, BreakerState.CLOSED, 3.0)
        assert policy.mode == policy.DEGRADED  # fog.node still isolated
        policy.on_service_state(
            "fog.node", ServiceHealth.DEGRADED, ServiceHealth.HEALTHY, 4.0
        )
        assert policy.mode == policy.NORMAL
        assert policy.episodes == 1

    def test_unwatched_services_are_ignored(self):
        sim, scheduler, context, policy = self.make()
        policy.on_service_state(
            "mqtt.broker", ServiceHealth.HEALTHY, ServiceHealth.DEGRADED, 1.0
        )
        assert policy.mode == policy.NORMAL


class TestBrokerBackpressure:
    def build(self, limiter):
        from repro.mqtt.broker import MqttBroker
        from repro.mqtt.client import MqttClient
        from repro.network import Network, RadioModel

        sim = Simulator(seed=2)
        net = Network(sim)
        broker = MqttBroker(sim, "broker")
        broker.inbound_limit = limiter
        net.add_node(broker)
        model = RadioModel("t", latency_s=0.005, bandwidth_bps=10e6, loss_rate=0.0)
        pub = MqttClient(sim, "pub", "broker")
        sub = MqttClient(sim, "sub", "broker")
        for c in (pub, sub):
            net.add_node(c)
            net.connect(c.address, "broker", model)
            c.connect()
        sim.run(until=1.0)
        sub.subscribe("t", qos=0)
        sim.run(until=2.0)
        return sim, broker, pub, sub

    def test_inbound_flood_is_shed_mechanically(self):
        sim, broker, pub, sub = self.build(RateLimiter(10, window_s=1.0))
        for _ in range(50):
            pub.publish("t", b"x", qos=0)
        sim.run(until=3.0)
        assert broker.stats.shed_backpressure == 40
        assert sub.stats.received <= 10

    def test_reject_policy_still_completes_qos1_handshake(self):
        """REJECT sheds the payload but acks the packet — otherwise every
        shed QoS-1 publish would retransmit and amplify the flood."""
        sim, broker, pub, sub = self.build(
            RateLimiter(1, window_s=1.0, policy=DropPolicy.REJECT)
        )
        for _ in range(5):
            pub.publish("t", b"x", qos=1)
        sim.run(until=30.0)
        assert broker.stats.shed_backpressure == 4
        assert pub.outbox.in_flight_count == 0  # every publish got its ack
        assert sim.metrics.total("mqtt.qos_retries") == 0


class TestContextBackpressure:
    def test_update_flood_is_shed(self):
        from repro.context import ContextBroker

        sim = Simulator(seed=3)
        context = ContextBroker(sim, "ctx")
        context.update_limit = RateLimiter(5, window_s=1.0)
        context.ensure_entity("e", "T")
        applied = 0
        for i in range(20):
            if context.update_attributes("e", {"v": i}):
                applied += 1
        assert applied == 5
        assert context.get_entity("e").get("v") == 4

    def test_reject_policy_raises_typed_error(self):
        from repro.context import ContextBroker

        sim = Simulator(seed=3)
        context = ContextBroker(sim, "ctx")
        context.ensure_entity("e", "T")
        context.update_limit = RateLimiter(
            1, window_s=1.0, policy=DropPolicy.REJECT
        )
        context.update_attributes("e", {"v": 1})
        with pytest.raises(BackpressureError):
            context.update_attributes("e", {"v": 2})


class TestPilotIntegration:
    def build(self, fault_plan=None, **resilience_kwargs):
        from repro.core.deployment import DeploymentKind
        from repro.core.pilot import PilotConfig, PilotRunner
        from repro.physics.crop import SOYBEAN
        from repro.physics.soil import LOAM
        from repro.physics.weather import BARREIRAS_MATOPIBA

        return PilotRunner(PilotConfig(
            name="res", farm="resfarm", climate=BARREIRAS_MATOPIBA,
            crop=SOYBEAN, soil=LOAM, rows=2, cols=2, season_days=4,
            start_day_of_year=150, initial_theta=0.22,
            deployment=DeploymentKind.FOG, irrigation_kind="valves",
            scheduler_kind="smart", seed=5, fault_plan=fault_plan,
            resilience=ResilienceConfig(**resilience_kwargs),
        ))

    def test_supervisor_restores_a_permanently_crashed_replicator(self):
        """A fog crash with no scripted recovery: only the supervisor can
        bring the sync daemon back."""
        from repro.faults import FaultPlan

        plan = FaultPlan(name="perma-crash").add("fog_crash", "fog", 86400.0)
        runner = self.build(fault_plan=plan)
        report = runner.run_season()
        assert runner.replicator.running
        assert report.resilience_restarts >= 1
        assert runner.supervisor.health("fog.replicator") is ServiceHealth.HEALTHY

    def test_partition_opens_breaker_and_reconciles_on_heal(self):
        """WAN partition → breaker opens → degraded decisions journaled →
        heal → breaker closes → journal reconciled and replicated."""
        from repro.faults import FaultPlan

        plan = FaultPlan(name="partition").add(
            "link_partition", "wan", 86400.0, 86400.0
        )
        runner = self.build(fault_plan=plan)
        report = runner.run_season()
        assert report.breaker_opens >= 1
        assert runner.uplink_breaker.state is BreakerState.CLOSED
        assert report.degraded_episodes >= 1
        assert report.reconciled_decisions > 0
        journal = runner.cloud.context.get_entity(
            runner.degraded_mode.entity_id
        )
        assert journal.get("entryCount") == report.reconciled_decisions

    def test_broker_probes_stay_healthy_between_sparse_sweeps(self):
        """The sweep runs only when a keepalive deadline is due, so the
        broker goes longer than the supervisor's 30 s checks without one.
        The probes check that a sweep is armed, not how recent it is."""
        runner = self.build()
        broker = runner.fog.mqtt
        swept_at = []
        timer = broker._sweep_timer
        sweep = timer.callback

        def recording_sweep():
            swept_at.append(runner.sim.now)
            sweep()

        timer.callback = recording_sweep
        transitions = []
        runner.supervisor.on_state_change.append(
            lambda service, old, new, now: transitions.append((service, new)))
        runner.run_days(2)
        gaps = [b - a for a, b in zip(swept_at, swept_at[1:])]
        assert max(gaps) >= 60.0
        assert [t for t in transitions if t[0] in ("mqtt.broker", "fog.node")] == []
        for service in ("mqtt.broker", "fog.node"):
            assert runner.supervisor.health(service) is ServiceHealth.HEALTHY
        assert runner.supervisor.total_restarts == 0
        assert broker.sweep_armed()

    def test_resilience_metrics_are_exported(self):
        runner = self.build()
        runner.run_season()
        snapshot = runner.metrics_snapshot()
        gauges = snapshot["gauges"]
        health = {
            name: value for name, value in gauges.items()
            if name.startswith("resilience.health")
        }
        assert len(health) >= 5
        assert all(value == 1.0 for value in health.values())
        assert gauges.get("resilience.degraded_mode") == 0.0
