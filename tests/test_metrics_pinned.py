"""Seed-pinned metric snapshots over eight scenarios.

Registry counters are views: each reads a count its component already
keeps, when the snapshot is taken.  ``metrics_pinned.json`` holds what
every snapshot below read before that change, so a view that reads the
wrong source, double-counts a shared key or loses a label shows up here
as a changed number or a changed key set.

Pinned per scenario:

* ``counters``: every counter, exactly;
* ``histograms``: each histogram's ``count`` and ``sum`` (``count`` only
  for the wall-clock ``context.query_latency_s``);
* ``gauges``: every gauge except the wall-clock ones
  (``simkernel.events_per_sec``, ``simkernel.wall_time_s``, ``profile.*``).

The scenarios: the supervised ``fog`` fixture of
``test_pilot_pinned.py``; the tamper run of
``examples/security_attack_demo.py``; chaos seed 0; a durable-store rig
with compaction, retention and every storage fault kind; a delivery rig
with an endpoint outage and a DLQ replay; an MQTT broker and a tenant
service driven through every refusal they count; and the CLI run that
CI exports (``run guaspari --days 2``, seed 0).

After a deliberate, reviewed change to what a metric counts, re-capture
with ``PYTHONPATH=src python -m tests.test_metrics_pinned --capture``
and say in the change note which numbers moved and why.
"""

import json
import os
import sys
import tempfile

import pytest

from repro.context.broker import ContextBroker
from repro.context.delivery import DeliveryConfig, DeliveryManager, SimulatedEndpoint
from repro.context.history import MINUTE_S, ShortTermHistory
from repro.context.subscriptions import Subscription
from repro.core.pilot import PilotConfig, PilotRunner
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.resilience.backpressure import RateLimiter
from repro.simkernel.simulator import Simulator
from repro.store import DurabilityService, RetentionConfig, RetentionPolicy, SegmentStore
from repro.telemetry.metrics import MetricsRegistry
from tests.test_pilot_pinned import FIXTURES

PINNED_PATH = os.path.join(os.path.dirname(__file__), "metrics_pinned.json")

WALL_CLOCK_GAUGES = ("simkernel.events_per_sec", "simkernel.wall_time_s")
WALL_CLOCK_HISTOGRAM = "context.query_latency_s"

HOUR = 3600.0
EID = "urn:AgriParcel:pin:0-0"
OTHER = "urn:AgriParcel:pin:0-1"


def fog_supervised(_workdir):
    from repro.resilience import ResilienceConfig

    runner = PilotRunner(PilotConfig(**FIXTURES["fog"], resilience=ResilienceConfig()))
    runner.run_season()
    return runner.metrics_snapshot()


def tamper(_workdir):
    """The tamper run of ``examples/security_attack_demo.py``."""
    from repro.core.deployment import DeploymentKind
    from repro.core.security_profile import SecurityConfig
    from repro.physics.crop import SOYBEAN
    from repro.physics.soil import LOAM
    from repro.physics.weather import BARREIRAS_MATOPIBA
    from repro.security.attacks import SensorTamper, TamperMode
    from repro.simkernel.clock import DAY

    runner = PilotRunner(PilotConfig(
        name="attack-demo", farm="victim-farm", climate=BARREIRAS_MATOPIBA,
        crop=SOYBEAN, soil=LOAM, rows=2, cols=2, season_days=14,
        start_day_of_year=150, initial_theta=0.22,
        deployment=DeploymentKind.FOG, irrigation_kind="valves",
        scheduler_kind="smart",
        security=SecurityConfig(detection=True, detection_training_s=7 * DAY),
        seed=7,
    ))
    probe = runner.probes[runner.field.zone(0, 0).zone_id]
    attack = SensorTamper(runner.sim, probe, "soilMoisture", TamperMode.BIAS,
                          magnitude=0.25)
    runner.sim.schedule_at(8 * DAY, attack.start, label="attack")
    runner.run_days(8)
    runner.run_days(6)
    return runner.metrics_snapshot()


def chaos_seed0(_workdir):
    from repro.faults.chaos import run_chaos

    return run_chaos(0).runner.metrics_snapshot()


def store_rig(workdir):
    """Durable history with compaction, retention and every storage fault."""
    sim = Simulator(seed=9, metrics=MetricsRegistry())
    broker = ContextBroker(sim)
    history = ShortTermHistory(broker, rollup_periods=(MINUTE_S,))
    for entity_id in (EID, OTHER):
        broker.create_entity(entity_id, "AgriParcel")
    store = SegmentStore(os.path.join(workdir, "store"), max_segment_bytes=2048)
    service = DurabilityService(sim, history, store, flush_interval_s=120.0)
    service.start()
    service.enable_compaction(
        interval_s=HOUR,
        retention=RetentionConfig(default=RetentionPolicy(max_age_s=3 * HOUR)))
    injector = FaultInjector(sim)
    injector.register_store("store", service)
    injector.apply(FaultPlan("storage", [
        FaultEvent("disk_stall", "store", at_s=1 * HOUR, duration_s=900.0),
        FaultEvent("fsync_lost", "store", at_s=2 * HOUR, duration_s=900.0),
        FaultEvent("disk_torn_write", "store", at_s=3 * HOUR,
                   params={"fraction": 0.4}),
        FaultEvent("process_kill", "store", at_s=3.5 * HOUR,
                   params={"surviving_tail_bytes": 11}),
        FaultEvent("process_kill", "store", at_s=6 * HOUR),
    ]))
    for i in range(8 * 60):
        sim.run_until(sim.now + 60.0)
        for k, entity_id in enumerate((EID, OTHER)):
            broker.update_attributes(entity_id, {"soilMoisture": 0.1 + 0.01 * ((i + k) % 30)})
    service.flush_now()
    return sim.metrics.snapshot()


def delivery_rig(_workdir):
    """Notification fan-out through an endpoint outage, then a DLQ replay."""
    sim = Simulator(seed=7, metrics=MetricsRegistry())
    broker = ContextBroker(sim)
    manager = DeliveryManager(sim, DeliveryConfig(
        queue_capacity=8, dlq_capacity=4, pump_interval_s=0.5, timeout_s=1.0,
        max_attempts=3))
    endpoint = manager.register_endpoint(SimulatedEndpoint(
        "hook", fail_rate=0.1, timeout_rate=0.2, timeout_delivers=True))
    injector = FaultInjector(sim)
    injector.register_endpoint("hook", endpoint)
    injector.apply(FaultPlan("outage", [
        FaultEvent("endpoint_outage", "hook", at_s=100.0, duration_s=300.0)]))
    broker.create_entity(EID, "AgriParcel", {"soilMoisture": 0.2})
    broker.create_entity(OTHER, "AgriParcel", {"soilMoisture": 0.2})
    sub = Subscription(callback=lambda _n: None, entity_id=EID)
    manager.bind_subscription(sub, "dash", "hook")
    broker.subscribe(sub)
    broker.subscribe(Subscription(callback=lambda _n: None, entity_id=EID,
                                  throttling_s=12.0))
    for i in range(100):
        if i == 60:
            broker.update_limit = RateLimiter(2, window_s=20.0)
        elif i == 70:
            broker.update_limit = None
        broker.update_attributes(EID, {"soilMoisture": 0.2 + 0.01 * (i % 30)})
        sim.run_until(sim.now + 5.0)
    broker.query(entity_type="AgriParcel")
    broker.delete_entity(OTHER)
    sim.run_until(sim.now + 600.0)
    manager.replay("dash")
    sim.run_until(sim.now + 600.0)
    return sim.metrics.snapshot()


def mqtt_rig(_workdir):
    """One broker through every refusal: bad credentials, an ACL, a rate
    gate, a full offline queue, a dead peer, a lapsed keepalive and a
    restart that abandons QoS 1 flights."""
    from repro.mqtt import ConnectReturnCode, MqttBroker, MqttClient
    from repro.network import Network, RadioModel

    sim = Simulator(seed=1, metrics=MetricsRegistry())
    net = Network(sim)
    broker = MqttBroker(
        sim, "broker",
        authenticator=lambda c: (ConnectReturnCode.BAD_CREDENTIALS
                                 if c.password == "wrong" else ConnectReturnCode.ACCEPTED),
        authorizer=lambda _session, _action, topic: not topic.startswith("private/"),
        max_offline_queue=2)
    net.add_node(broker)
    model = RadioModel("rig", latency_s=0.005, bandwidth_bps=10e6, loss_rate=0.0)

    def client(name, **kwargs):
        c = MqttClient(sim, name, "broker", **kwargs)
        net.add_node(c)
        net.connect(name, "broker", model)
        c.connect()
        return c

    pub = client("pub")
    away = client("away", clean_session=False, keepalive_s=0)
    slow = client("slow")
    client("silent", keepalive_s=5.0)
    client("bad", password="wrong", auto_reconnect=False)
    sim.run(until=0.5)
    away.subscribe("t/#", qos=1)
    slow.subscribe("t/#", qos=1)
    pub.subscribe("private/x")
    sim.run(until=1.0)
    away.disconnect()
    net.partition("slow", "broker")
    net.partition("silent", "broker")
    for i in range(5):
        pub.publish("t/x", b"%d" % i, qos=1)
    pub.publish("private/y", b"denied")
    sim.run(until=60.0)
    broker.inbound_limit = RateLimiter(2, window_s=1.0)
    for _ in range(6):
        pub.publish("t/y", b"flood")
    sim.run(until=120.0)
    broker.restart()
    sim.run(until=180.0)
    return sim.metrics.snapshot()


def service_rig(_workdir):
    """Tenant requests through auth, quota and backlog refusals and the cache."""
    from repro.core.security_profile import SecurityConfig, SecurityStack
    from repro.service import NgsiService, Request, ServiceConfig, TenantQuota, TenantSpec

    sim = Simulator(seed=11, metrics=MetricsRegistry())
    broker = ContextBroker(sim)
    service = NgsiService(sim, broker, ShortTermHistory(broker),
                          SecurityStack(sim, "pin", SecurityConfig()), ServiceConfig())
    service.register_tenant(TenantSpec(
        "dash", "s1", read_prefixes=("urn:AgriParcel:pin:",),
        quota=TenantQuota(max_requests_per_window=12, window_s=60.0, max_backlog=2)))
    broker.create_entity(EID, "AgriParcel", {"soilMoisture": 0.2})
    token = service.tenant_token("dash")
    get = Request("GET", f"/v2/entities/{EID}", token=token)
    for _ in range(3):
        service.handle(get)
    broker.update_attributes(EID, {"soilMoisture": 0.3})
    service.handle(get)
    service.handle(Request("GET", f"/v2/entities/{EID}", token="forged"))
    service.handle(Request("GET", "/v2/entities/urn:AgriParcel:other:0-0", token=token))
    service.start()
    for _ in range(10):
        service.submit(get)
    sim.run_until(sim.now + 120.0)
    return sim.metrics.snapshot()


def cli_guaspari(workdir):
    """The CLI run whose counters CI checks: ``run guaspari --days 2``."""
    import io

    from repro.cli import main

    path = os.path.join(workdir, "metrics.json")
    assert main(["run", "guaspari", "--days", "2", "--metrics", path],
                out=io.StringIO()) == 0
    with open(path) as fh:
        return json.load(fh)


SCENARIOS = {
    "fog_supervised": fog_supervised,
    "tamper": tamper,
    "chaos_seed0": chaos_seed0,
    "store_rig": store_rig,
    "delivery_rig": delivery_rig,
    "mqtt_rig": mqtt_rig,
    "service_rig": service_rig,
    "cli_guaspari": cli_guaspari,
}


def pinned_view(snapshot):
    """The deterministic part of a registry snapshot."""
    histograms = {}
    for name, hist in snapshot["histograms"].items():
        if name.split("{", 1)[0] == WALL_CLOCK_HISTOGRAM:
            histograms[name] = {"count": hist["count"]}
        else:
            histograms[name] = {"count": hist["count"], "sum": hist["sum"]}
    gauges = {
        name: value for name, value in snapshot["gauges"].items()
        if name not in WALL_CLOCK_GAUGES and not name.startswith("profile.")
    }
    return {"counters": snapshot["counters"], "histograms": histograms,
            "gauges": gauges}


def capture(name):
    with tempfile.TemporaryDirectory() as workdir:
        return pinned_view(SCENARIOS[name](workdir))


def load_pinned():
    with open(PINNED_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metric_snapshot_matches_pinned(name):
    expected = load_pinned()[name]
    got = capture(name)
    for part in ("counters", "histograms", "gauges"):
        assert sorted(got[part]) == sorted(expected[part]), part
        assert got[part] == expected[part], part


def test_every_counter_name_is_pinned():
    """Each counter name appears in some scenario (its zero is pinned too)."""
    names = {
        key.split("{", 1)[0]
        for scenario in load_pinned().values() for key in scenario["counters"]
    }
    assert len(names) >= 62


def test_counters_the_scenarios_leave_at_zero_read_their_component():
    """The three views no scenario moves, each driven once directly."""
    from repro.fog import Replicator
    from repro.irrigation import PlatformScheduler
    from repro.network import Network
    from repro.resilience.supervisor import Supervisor

    sim = Simulator(seed=1, metrics=MetricsRegistry())
    fog = ContextBroker(sim, "fog")
    replicator = Replicator(sim, Network(sim), "fog:sync", fog, "cloud:sync",
                            max_backlog=10)
    for i in range(30):
        fog.create_entity(f"e{i}", "T", {"v": i})
    scheduler = PlatformScheduler(sim, fog, agent=None)
    scheduler.bind_valve("urn:zone:missing", "v1", theta_fc=0.28, theta_wp=0.13,
                         root_depth_m=0.5)
    scheduler.run_cycle()
    supervisor = Supervisor(sim, check_interval_s=10.0)
    watch = supervisor.watch("svc", probe=lambda _now: False, restart=lambda: None)
    supervisor.start()
    sim.run(until=25.0)
    metrics = sim.metrics
    assert replicator.updates_dropped_overflow == 20
    assert metrics.value("fog.updates_dropped_overflow", {"replicator": "fog:sync"}) == 20.0
    assert scheduler.stats.skipped_no_data == 1
    assert metrics.value("scheduler.skipped_no_data") == 1.0
    assert watch.restarts >= 1
    assert metrics.value("resilience.restarts", {"service": "svc"}) == watch.restarts


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python -m tests.test_metrics_pinned --capture")
    pinned = {name: capture(name) for name in sorted(SCENARIOS)}
    with open(PINNED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, data in pinned.items():
        nonzero = sum(1 for v in data["counters"].values() if v)
        print(f"{name}: {len(data['counters'])} counters ({nonzero} nonzero), "
              f"{len(data['histograms'])} histograms, {len(data['gauges'])} gauges")
