"""Pilot assembly: :func:`assemble` builds a :class:`~repro.core.pilot.PilotRunner`.

Each step builds one architectural layer against the runner and sets the
runner's flat attributes (``.security``, ``.agent``, ``.field``, ...)
that tests and experiments read.

The order of the steps in :func:`assemble` is load-bearing: a step
schedules its layer's first events as it builds the layer, and the
kernel numbers events in scheduling order, so moving a step changes the
tie-breaks of every seed-pinned run (``tests/test_pilot_pinned.py``
holds that pin).  Each step reads what the steps before it built::

    security ──► tiers ──► agent ─┬─► devices ──► provisioning ──► scheduler
                        physics ──┘                                    │
                                      security wiring (detection, command tap)
                                                                       │
             [service] ◄── [resilience] ◄── [fault injector] ◄── [store]

The store comes before the fault injector so that a plan can aim the
storage faults (``process_kill``, ``disk_*``, ``fsync_lost``) at it.
It is the only optional step there: a store-backed run cannot be
checkpointed, so where it is built changes no checkpoint's replay, while
moving the service would change the replay of every checkpointed
service run.

The bracketed steps run only when their ``PilotConfig`` field is set.
The config carries that choice, so a checkpoint restore, which rebuilds
the runner from its config or builder kwargs, builds the same steps.
"""

from repro.agents.iot_agent import DeviceProvision, IoTAgent
from repro.core.security_profile import SecurityStack
from repro.devices.actuators import CenterPivot, Pump, Valve
from repro.devices.base import DeviceConfig
from repro.devices.drone import Drone
from repro.devices.sensors import SoilMoistureProbe, WaterFlowMeter, WeatherStation
from repro.devices.sweep import SweepScheduler
from repro.faults.injector import FaultInjector
from repro.fog.node import CloudNode, FogNode
from repro.fog.replication import CloudSyncTarget, Replicator
from repro.irrigation.policy import SoilMoisturePolicy
from repro.irrigation.scheduler import PlatformScheduler
from repro.network.link import LinkState
from repro.network.radio import ETHERNET_LAN, LORA_FIELD, WAN_BACKHAUL
from repro.physics.field import Field
from repro.physics.ndvi import NdviTracker
from repro.physics.weather import WeatherGenerator
from repro.resilience import CircuitBreaker, DegradedModePolicy, Supervisor
from repro.service.app import attach_service
from repro.service.loadgen import schedule_trace
from repro.store.columnar import RetentionConfig, RetentionPolicy
from repro.store.durable import attach_durable_history


def build_security(runner) -> None:
    """Identity, OAuth/PDP/PEP and the detection scaffolding."""
    runner.security = SecurityStack(runner.sim, runner.config.farm, runner.config.security)


def build_tiers(runner) -> None:
    """Cloud node, optional fog node, replication and the WAN topology."""
    config = runner.config
    hooks = runner.security.broker_hooks()
    runner.cloud = CloudNode(
        runner.sim, runner.net, "cloud",
        with_mqtt=not config.deployment.has_fog,
        authenticator=hooks["authenticator"], authorizer=hooks["authorizer"],
    )
    runner.fog = None
    runner.replicator = None
    if config.deployment.has_fog:
        runner.fog = FogNode(
            runner.sim, runner.net, "fog", config.farm,
            authenticator=hooks["authenticator"], authorizer=hooks["authorizer"],
        )
        runner.broker_address = runner.fog.mqtt_address
        runner.context = runner.fog.context
        runner.history = runner.fog.history
        runner.agent = runner.fog.agent
        runner.net.connect("fog:iota", runner.fog.mqtt_address, ETHERNET_LAN)
        # Store-and-forward sync to the cloud over the rural WAN.
        CloudSyncTarget(runner.sim, runner.net, "cloud:sync", runner.cloud.context)
        runner.replicator = Replicator(
            runner.sim, runner.net, "fog:sync", runner.fog.context, "cloud:sync",
            sync_interval_s=60.0,
        )
        runner.net.connect("fog:sync", "cloud:sync", WAN_BACKHAUL)
        runner._wan_pair = ("fog:sync", "cloud:sync")
        runner._device_uplink = runner.broker_address
        runner._device_radio = LORA_FIELD
    else:
        runner.broker_address = runner.cloud.mqtt_address
        runner.context = runner.cloud.context
        runner.history = runner.cloud.history
        runner.agent = IoTAgent(
            runner.sim, runner.net, "cloud:iota", runner.broker_address,
            runner.cloud.context, config.farm,
        )
        runner.net.connect("cloud:iota", runner.broker_address, ETHERNET_LAN)
        # Farm gateway: field radio on one side, rural WAN on the other.
        from repro.network.node import NetworkNode

        runner.gateway = runner.net.add_node(NetworkNode(f"{config.farm}:gw"))
        runner.net.connect(f"{config.farm}:gw", runner.broker_address, WAN_BACKHAUL)
        runner._wan_pair = (f"{config.farm}:gw", runner.broker_address)
        runner._device_uplink = f"{config.farm}:gw"
        runner._device_radio = LORA_FIELD


def start_agent(runner) -> None:
    """Attach the IoT agent to the security stack and open its MQTT session."""
    runner.security.wire_agent(runner.agent)
    runner.agent.start()


def build_physics(runner) -> None:
    """Field zones, a season of weather and the NDVI trackers."""
    config = runner.config
    runner.field = Field(
        config.farm, config.rows, config.cols, config.soil, config.crop,
        runner.sim.rng.stream("field"),
        zone_area_ha=config.zone_area_ha,
        spatial_cv=config.spatial_cv,
        initial_theta=config.initial_theta,
    )
    generator = WeatherGenerator(
        config.climate, runner.sim.rng.stream("weather"),
        start_day_of_year=config.start_day_of_year,
    )
    runner.weather = generator.generate(config.effective_season_days + 1)
    runner.ndvi_trackers = {
        zone.zone_id: NdviTracker(zone) for zone in runner.field
    }
    runner._forecast_rng = runner.sim.rng.stream("forecast")


def _attach_device(runner, device) -> None:
    """Connect a device's radio and register its credentials."""
    runner.net.connect(device.client.address, runner._device_uplink,
                       runner._device_radio)
    runner.security.enroll_device(device, device_key=f"key-{device.config.device_id}")
    device.sweeper = runner.sweep_scheduler
    device.start()


def build_devices(runner) -> None:
    """The device fleet and its radio links."""
    config = runner.config
    farm = config.farm
    runner.probes = {}
    runner.valves = {}
    runner.pivot = None
    runner.drone = None
    # One SweepScheduler per farm: devices enroll in start(), one
    # kernel event per (farm, report-interval) tick samples them all.
    runner.sweep_scheduler = SweepScheduler(runner.sim, farm)

    # Shared irrigation plant.
    runner.pump = Pump(
        runner.sim, runner.net,
        DeviceConfig(f"{farm}-pump", farm, "Pump", report_interval_s=3600),
        runner.broker_address, head_m=config.pump_head_m,
    )
    _attach_device(runner, runner.pump)
    runner.flow_meter = WaterFlowMeter(
        runner.sim, runner.net,
        DeviceConfig(f"{farm}-flow", farm, "FlowMeter", report_interval_s=3600),
        runner.broker_address,
    )
    _attach_device(runner, runner.flow_meter)

    runner.weather_station = WeatherStation(
        runner.sim, runner.net,
        DeviceConfig(f"{farm}-ws", farm, "WeatherStation", report_interval_s=3600),
        runner.broker_address,
    )
    _attach_device(runner, runner.weather_station)

    # Probes on the first `coverage` fraction of zones (deterministic).
    zones = list(runner.field)
    probe_count = max(1, round(config.probe_coverage * len(zones)))
    for zone in zones[:probe_count]:
        device_id = f"{farm}-probe-{zone.row}-{zone.col}"
        probe = SoilMoistureProbe(
            runner.sim, runner.net,
            DeviceConfig(device_id, farm, "SoilProbe",
                         report_interval_s=config.probe_interval_s),
            runner.broker_address, zone=zone,
        )
        _attach_device(runner, probe)
        runner.probes[zone.zone_id] = probe

    if config.irrigation_kind == "valves":
        for zone in zones:
            device_id = f"{farm}-valve-{zone.row}-{zone.col}"
            valve = Valve(
                runner.sim, runner.net,
                DeviceConfig(device_id, farm, "Valve", report_interval_s=7200),
                runner.broker_address, zone=zone,
                rate_mm_h=config.valve_rate_mm_h,
                pump=runner.pump, flow_meter=runner.flow_meter,
            )
            _attach_device(runner, valve)
            runner.valves[zone.zone_id] = valve
    elif config.irrigation_kind == "pivot":
        runner.pivot = CenterPivot(
            runner.sim, runner.net,
            DeviceConfig(f"{farm}-pivot", farm, "CenterPivot",
                         report_interval_s=7200),
            runner.broker_address, zones=zones,
            max_application_rate_mm_h=config.pivot_rate_mm_h, pump=runner.pump,
        )
        _attach_device(runner, runner.pivot)

    if config.deployment.has_drone:
        runner.drone = Drone(
            runner.sim, runner.net,
            DeviceConfig(f"{farm}-drone", farm, "Drone", report_interval_s=7200,
                         battery_capacity_j=500_000.0),
            runner.broker_address, field=runner.field,
            trackers=runner.ndvi_trackers,
        )
        _attach_device(runner, runner.drone)


def provision_devices(runner) -> None:
    """Tell the IoT agent which context entity each device reports to."""
    farm = runner.config.farm
    for zone_id, probe in runner.probes.items():
        zone = runner.field.zone_by_id(zone_id)
        runner.agent.provision(
            DeviceProvision(
                probe.config.device_id, "", runner.zone_entity_id(zone), "AgriParcel"
            )
        )
    for zone_id, valve in runner.valves.items():
        runner.agent.provision(
            DeviceProvision(
                valve.config.device_id, "",
                f"urn:Valve:{valve.config.device_id}", "Valve",
                commands=("open", "close"),
            )
        )
    if runner.pivot is not None:
        runner.agent.provision(
            DeviceProvision(
                runner.pivot.config.device_id, "",
                f"urn:CenterPivot:{runner.pivot.config.device_id}", "CenterPivot",
                commands=("start_pass", "stop"),
            )
        )
    runner.agent.provision(
        DeviceProvision(runner.pump.config.device_id, "",
                        f"urn:Pump:{farm}", "Pump", commands=("start", "stop"))
    )
    runner.agent.provision(
        DeviceProvision(runner.flow_meter.config.device_id, "",
                        f"urn:FlowMeter:{farm}", "FlowMeter")
    )
    runner.agent.provision(
        DeviceProvision(runner.weather_station.config.device_id, "",
                        f"urn:WeatherObserved:{farm}", "WeatherObserved")
    )
    if runner.drone is not None:
        runner.agent.provision(
            DeviceProvision(runner.drone.config.device_id, "",
                            f"urn:Drone:{farm}", "Drone", commands=("survey",))
        )


def build_scheduler(runner) -> None:
    """The irrigation scheduler (smart / fixed-calendar / none)."""
    config = runner.config
    runner.scheduler = None
    if config.scheduler_kind == "none" or config.irrigation_kind == "none":
        return
    if config.scheduler_kind == "fixed":
        runner.sim.spawn(runner._fixed_schedule_loop(), "fixed-scheduler")
        return
    runner.scheduler = PlatformScheduler(
        runner.sim, runner.context, runner.agent,
        policy=config.policy or SoilMoisturePolicy(),
        forecast_provider=runner._forecast_rain,
        supply_gate=config.supply_gate,
        uniform_pivot=config.uniform_pivot,
    )
    if config.irrigation_kind == "valves":
        for zone_id, probe in runner.probes.items():
            zone = runner.field.zone_by_id(zone_id)
            valve = runner.valves.get(zone_id)
            if valve is None:
                continue
            runner.scheduler.bind_valve(
                runner.zone_entity_id(zone), valve.config.device_id,
                theta_fc=zone.water_balance.soil.theta_fc,
                theta_wp=zone.water_balance.soil.theta_wp,
                root_depth_m=zone.crop.root_depth_at(0),
                depletion_fraction_p=zone.crop.stages[0].depletion_fraction_p,
                area_ha=zone.area_ha,
            )
    elif config.irrigation_kind == "pivot":
        zone_bindings = []
        for zone_id, probe in runner.probes.items():
            zone = runner.field.zone_by_id(zone_id)
            zone_bindings.append(
                {
                    "entity_id": runner.zone_entity_id(zone),
                    "zone_id": zone.zone_id,
                    "theta_fc": zone.water_balance.soil.theta_fc,
                    "theta_wp": zone.water_balance.soil.theta_wp,
                    "root_depth_m": zone.crop.root_depth_at(0),
                    "p": zone.crop.stages[0].depletion_fraction_p,
                    "area_ha": zone.area_ha,
                }
            )
        runner.scheduler.bind_pivot(runner.pivot.config.device_id, zone_bindings)
    runner.scheduler.start()


def wire_security(runner) -> None:
    """Late security wiring that needs the assembled platform: anomaly
    detection over the context broker, then the broker-side command tap."""
    runner.security.wire_detection(runner.context, runner.agent)
    runner.security.wire_command_tap(runner.net, runner.broker_address)


def _fleet(runner):
    yield runner.pump
    yield runner.flow_meter
    yield runner.weather_station
    for probe in runner.probes.values():
        yield probe
    for valve in runner.valves.values():
        yield valve
    if runner.pivot is not None:
        yield runner.pivot
    if runner.drone is not None:
        yield runner.drone


def build_fault_injector(runner) -> None:
    """The fault injector, bound to the assembled pilot's targets.

    Run only when ``config.fault_plan`` is set, so fault-free pilots keep
    their bit-pinned event sequence.
    """
    injector = FaultInjector(runner.sim, runner.net)
    if hasattr(runner, "_wan_pair"):
        injector.register_pair("wan", *runner._wan_pair)
    broker = runner.fog.mqtt if runner.fog is not None else runner.cloud.mqtt
    if broker is not None:
        # "broker" always means the broker the device fleet talks to.
        injector.register_broker("broker", broker)
    if runner.cloud.mqtt is not None:
        injector.register_broker("cloud", runner.cloud.mqtt)
    if runner.replicator is not None:
        injector.register_replicator("replicator", runner.replicator)
    if runner.fog is not None:
        injector.register_fog(
            "fog",
            broker=runner.fog.mqtt,
            replicator=runner.replicator,
            addresses=[runner.fog.mqtt_address, f"{runner.fog.name}:iota",
                       f"{runner.fog.name}:sync"],
        )
    if runner.durability is not None:
        injector.register_store("store", runner.durability)
    for device in _fleet(runner):
        injector.register_device(device)
    injector.apply(runner.config.fault_plan)
    runner.fault_injector = injector


def build_resilience(runner) -> None:
    """Supervision, uplink breaking, degraded autonomy.

    Run only when ``config.resilience`` is set — the same contract as
    :func:`build_fault_injector`: pilots without it keep their bit-pinned
    event sequence.
    """
    cfg = runner.config.resilience
    sim = runner.sim
    supervisor = Supervisor(
        sim,
        check_interval_s=cfg.check_interval_s,
        restart_backoff_initial_s=cfg.restart_backoff_initial_s,
        restart_backoff_max_s=cfg.restart_backoff_max_s,
        degraded_after_restarts=cfg.degraded_after_restarts,
        failed_after_restarts=cfg.failed_after_restarts,
    )
    runner.supervisor = supervisor

    # MQTT broker: a session that can lapse needs a queued sweep, or its
    # will is never published; a lost sweep is restarted by re-arming it.
    broker = runner.fog.mqtt if runner.fog is not None else runner.cloud.mqtt
    if broker is not None:
        supervisor.watch(
            "mqtt.broker",
            probe=lambda now, b=broker: b.sweep_armed(),
            restart=broker.arm_sweep,
        )

    # Context broker: heartbeat fed by the update hot path — a healthy
    # fleet updates context continuously, so silence means the path
    # from devices through the agent has wedged.  In-process, so there
    # is nothing to restart: unhealthy surfaces as ``degraded``.
    context_watch = supervisor.watch(
        "context.broker",
        heartbeat_timeout_s=cfg.context_heartbeat_timeout_s,
    )
    runner.context.update_hooks.append(
        lambda entity, changed, w=context_watch: w.beat()
    )

    # Replicator: the one genuinely crashable daemon (fault plans kill
    # it); the supervisor restarts it under seeded backoff.
    if runner.replicator is not None:
        supervisor.watch(
            "fog.replicator",
            probe=lambda now, r=runner.replicator: r.running,
            restart=runner.replicator.restart,
        )
        breaker = CircuitBreaker(
            "cloud-uplink",
            failure_threshold=cfg.breaker_failure_threshold,
            open_timeout_s=cfg.breaker_open_timeout_s,
            metrics=sim.metrics,
        )
        runner.uplink_breaker = breaker
        runner.replicator.breaker = breaker
        supervisor.attach_breaker("cloud.uplink", breaker)

    # Fog node: a roll-up view over its constituent services plus link
    # reachability — a crashed node's restarted daemons look healthy
    # from inside, so the probe also checks that the node's incident
    # links are up (the signal that lets degraded-mode autonomy engage
    # even when there is no uplink traffic for the breaker to fail on).
    if runner.fog is not None:

        def fog_reachable(now, r=runner, addr=runner.fog.mqtt_address):
            return all(
                link.state is not LinkState.DOWN
                for (src, dst), link in r.net.links.items()
                if addr in (src, dst)
            )

        supervisor.watch(
            "fog.node",
            probe=lambda now, r=runner, reachable=fog_reachable: (
                (r.replicator is None or r.replicator.running)
                and r.fog.mqtt.sweep_armed()
                and reachable(now)
            ),
        )

    # Irrigation scheduler: probe catches a dead loop, the per-cycle
    # heartbeat catches a live-but-wedged one.
    if runner.scheduler is not None:
        scheduler_watch = supervisor.watch(
            "irrigation.scheduler",
            probe=lambda now, s=runner.scheduler: (
                s._process is not None and s._process.alive
            ),
            restart=runner.scheduler.start,
            heartbeat_timeout_s=2.5 * runner.scheduler.cycle_interval_s,
        )
        runner.scheduler.heartbeat = scheduler_watch.beat
        # Degraded-mode autonomy needs both a scheduler to steer and a
        # breaker to listen to.
        if runner.uplink_breaker is not None:
            degraded = DegradedModePolicy(
                sim, runner.scheduler, runner.context, runner.config.farm,
                degraded_max_data_age_s=cfg.degraded_max_data_age_s,
                journal_limit=cfg.journal_limit,
            )
            runner.degraded_mode = degraded
            runner.scheduler.on_decision.append(degraded.record_decision)
            runner.uplink_breaker.on_state_change.append(degraded.on_breaker_state)
            if runner.fog is not None:
                degraded.isolation_services.add("fog.node")
                supervisor.on_state_change.append(degraded.on_service_state)

    supervisor.start()


def build_store(runner) -> None:
    """The durable segment store behind the history (``config.store``)."""
    store = runner.config.store
    retention = None
    if store.retention_age_s is not None or store.retention_bytes is not None:
        retention = RetentionConfig(default=RetentionPolicy(
            max_age_s=store.retention_age_s, max_bytes=store.retention_bytes,
        ))
    attach_durable_history(
        runner, store.root,
        flush_interval_s=store.flush_interval_s,
        max_segment_bytes=store.max_segment_bytes,
        compact_interval_s=store.compact_interval_s,
        retention=retention,
    )


def build_service(runner) -> None:
    """The north-facing service, replaying ``config.serve_trace``."""
    runner.service = attach_service(runner)
    schedule_trace(runner.service, runner.config.serve_trace)


def assemble(runner) -> None:
    """Run every step in order; the store, the fault injector, the
    resilience layer and the service are built only when the config
    sets ``store``, ``fault_plan``, ``resilience`` and ``serve_trace``."""
    runner.fault_injector = None
    runner.supervisor = None
    runner.uplink_breaker = None
    runner.degraded_mode = None
    runner.durability = None
    runner.service = None
    build_security(runner)
    build_tiers(runner)
    start_agent(runner)
    build_physics(runner)
    build_devices(runner)
    provision_devices(runner)
    build_scheduler(runner)
    wire_security(runner)
    if runner.config.store is not None:
        build_store(runner)
    if runner.config.fault_plan is not None:
        build_fault_injector(runner)
    if runner.config.resilience is not None:
        build_resilience(runner)
    if runner.config.serve_trace is not None:
        build_service(runner)
