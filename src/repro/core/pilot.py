"""PilotRunner: one configured farm running a full season end-to-end.

This is the integration point of the whole reproduction: physics, devices,
radio, MQTT, IoT agent, context broker, fog/cloud tiers, scheduler and the
security stack are assembled per :class:`PilotConfig` and driven through a
growing season.  All experiments (benchmarks/) run through this class so
that every number reported comes from the full pipeline, not from a
shortcut around it.

Assembly is :func:`repro.core.stages.assemble`: its steps run in a fixed
order, each building one layer onto the runner's flat attribute surface —
``.agent``, ``.field``, ``.scheduler`` and friends.
"""

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, Optional

from repro.core.deployment import DeploymentKind
from repro.core.security_profile import SecurityConfig, SecurityStack
from repro.core.stages import assemble
from repro.devices.actuators import CenterPivot, Valve
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.devices.drone import Drone
from repro.devices.sensors import SoilMoistureProbe
from repro.fog.node import FogNode
from repro.fog.replication import Replicator
from repro.irrigation.policy import SoilMoisturePolicy
from repro.irrigation.scheduler import PlatformScheduler
from repro.network.topology import Network
from repro.physics.crop import Crop
from repro.physics.soil import LOAM, SoilProperties
from repro.physics.weather import ClimateProfile
from repro.resilience import CircuitBreaker, DegradedModePolicy, ResilienceConfig, Supervisor
from repro.service.app import NgsiService
from repro.service.loadgen import RequestTrace
from repro.simkernel.clock import DAY, HOUR
from repro.simkernel.simulator import Simulator
from repro.store.durable import DurabilityService, StoreConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profile import KernelProfiler
from repro.telemetry.tracing import NULL_TRACER, TraceConfig, Tracer


@dataclass
class PilotConfig:
    name: str
    farm: str
    climate: ClimateProfile
    crop: Crop
    soil: SoilProperties = LOAM
    rows: int = 4
    cols: int = 4
    zone_area_ha: float = 1.0
    spatial_cv: float = 0.2
    season_days: Optional[int] = None  # defaults to the crop season
    start_day_of_year: int = 1
    deployment: DeploymentKind = DeploymentKind.FOG
    irrigation_kind: str = "valves"  # "valves" | "pivot" | "none"
    scheduler_kind: str = "smart"  # "smart" | "fixed" | "none"
    policy: Optional[SoilMoisturePolicy] = None
    fixed_interval_days: int = 3
    fixed_depth_mm: float = 25.0
    probe_coverage: float = 1.0
    probe_interval_s: float = 1800.0
    valve_rate_mm_h: float = 8.0
    pivot_rate_mm_h: float = 10.0
    pump_head_m: float = 45.0
    initial_theta: Optional[float] = None
    drone_survey_interval_days: int = 7
    forecast_quality: float = 1.0  # 1 = perfect rain forecast, 0 = none
    uniform_pivot: bool = False  # True = no VRI: worst-zone depth everywhere
    security: SecurityConfig = dataclass_field(default_factory=SecurityConfig)
    supply_gate: Optional[Callable[[float], float]] = None
    # Collect platform metrics during the run.  Enabled metrics never
    # perturb determinism (instruments neither schedule events nor draw
    # RNG); disabling swaps in the shared no-op registry for truly
    # zero-overhead hot paths.
    metrics_enabled: bool = True
    # Declarative chaos: a schedule of typed fault events executed by a
    # FaultInjector (see repro/faults/).  None skips that assembly step,
    # so seed-pinned event sequences stay exactly fault-free.
    fault_plan: Optional[FaultPlan] = None
    # The resilience layer (supervision, backpressure, uplink breaker,
    # degraded-mode autonomy — see repro/resilience/).  Same contract as
    # fault_plan: None skips its assembly step.
    resilience: Optional[ResilienceConfig] = None
    # End-to-end causal tracing (see repro/telemetry/tracing.py).  Same
    # contract again: None installs the shared NULL_TRACER, so the pinned
    # event sequences are untouched; a TraceConfig — even TraceConfig() —
    # enables span collection.
    tracing: Optional[TraceConfig] = None
    # Kernel profiling: wall/sim-time accounting per event key (see
    # repro/telemetry/profile.py).  Reads perf_counter only; never
    # perturbs determinism, but off by default to keep the hot loop bare.
    profile: bool = False
    # The durable store behind the history (see repro/store/durable.py)
    # and the north-facing service replaying a request trace (see
    # repro/service/).  Same contract as fault_plan: None skips the step.
    store: Optional[StoreConfig] = None
    serve_trace: Optional[RequestTrace] = None
    seed: int = 0

    @property
    def effective_season_days(self) -> int:
        return self.season_days if self.season_days is not None else self.crop.season_days


@dataclass
class PilotReport:
    name: str
    season_days: int
    irrigation_m3: float
    irrigation_mm_per_ha: float
    rain_mm: float
    pump_kwh: float
    pivot_move_kwh: float
    relative_yield: float
    yield_t: float
    decision_cycles: int
    decisions: int
    commands_sent: int
    skipped_no_data: int
    skipped_stale: int
    measures_processed: int
    measures_dropped_unprovisioned: int
    broker_publishes_in: int
    broker_denied: int
    devices_dead: int
    replicator_synced: int
    replicator_dropped: int
    alerts: int
    quarantined_devices: int
    # Resilience layer (all zero when PilotConfig.resilience is None —
    # and *must* stay zero for supervised fault-free runs, the idle-path
    # determinism contract the pinned fixtures enforce).
    resilience_restarts: int = 0
    breaker_opens: int = 0
    degraded_episodes: int = 0
    reconciled_decisions: int = 0

    @property
    def total_energy_kwh(self) -> float:
        return self.pump_kwh + self.pivot_move_kwh


class PilotRunner:
    """Assembles one pilot and drives it.

    Layer attributes set by the assembly steps (kept flat here for
    callers): ``security``, ``cloud``, ``fog``, ``replicator``,
    ``broker_address``, ``context``, ``history``, ``agent``, ``field``,
    ``weather``, ``ndvi_trackers``, ``pump``, ``flow_meter``,
    ``weather_station``, ``probes``, ``valves``, ``pivot``, ``drone``,
    ``scheduler``; and, None unless the config selects their step,
    ``fault_injector``, ``supervisor``, ``uplink_breaker``,
    ``degraded_mode``, ``durability`` and ``service``.
    """

    security: SecurityStack
    fog: Optional[FogNode]
    replicator: Optional[Replicator]
    probes: Dict[str, SoilMoistureProbe]
    valves: Dict[str, Valve]
    pivot: Optional[CenterPivot]
    drone: Optional[Drone]
    scheduler: Optional[PlatformScheduler]
    fault_injector: Optional[FaultInjector]
    supervisor: Optional[Supervisor]
    uplink_breaker: Optional[CircuitBreaker]
    degraded_mode: Optional[DegradedModePolicy]
    durability: Optional[DurabilityService]
    service: Optional[NgsiService]

    def __init__(self, config: PilotConfig) -> None:
        self.config = config
        metrics = MetricsRegistry(enabled=config.metrics_enabled)
        if config.tracing is not None:
            self.tracer = Tracer(seed=config.seed, sample_rate=config.tracing.sample_rate)
        else:
            self.tracer = NULL_TRACER
        self.profiler = KernelProfiler() if config.profile else None
        self.sim = Simulator(
            seed=config.seed, metrics=metrics, tracer=self.tracer, profiler=self.profiler
        )
        if self.profiler is not None:
            self.profiler.install_metrics(metrics)
        self.net = Network(self.sim, name=config.name)
        assemble(self)
        self.season_day = 0
        self._daily_process = None

    # -- metrics -----------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's metrics registry (shared by kernel and services)."""
        return self.sim.metrics

    def metrics_snapshot(self) -> dict:
        """Point-in-time snapshot of every instrument (see telemetry docs)."""
        return self.sim.metrics.snapshot()

    def zone_entity_id(self, zone) -> str:
        return f"urn:AgriParcel:{self.config.farm}:{zone.row}-{zone.col}"

    # -- forecast -----------------------------------------------------------

    def _forecast_rain(self) -> float:
        """Forecast of today's rain (applied at the coming midnight)."""
        if self.season_day >= len(self.weather):
            return 0.0
        actual = self.weather[self.season_day].rain_mm
        quality = self.config.forecast_quality
        if quality >= 1.0:
            return actual
        noise = self._forecast_rng.bounded_gauss(1.0, 1.0 - quality, 0.0, 2.0)
        return actual * quality * noise

    # -- fixed-calendar baseline ----------------------------------------------------

    def _fixed_schedule_loop(self):
        config = self.config
        yield 6 * HOUR
        while True:
            if self.season_day % config.fixed_interval_days == 0:
                if config.irrigation_kind == "valves":
                    for valve in self.valves.values():
                        self.agent.send_command(
                            valve.config.device_id,
                            {"cmd": "open", "depth_mm": config.fixed_depth_mm},
                        )
                elif self.pivot is not None:
                    self.agent.send_command(
                        self.pivot.config.device_id,
                        {"cmd": "start_pass", "depth_mm": config.fixed_depth_mm},
                    )
            yield DAY

    # -- season driver -----------------------------------------------------------

    def _daily_loop(self):
        config = self.config
        survey_every = config.drone_survey_interval_days
        while self.season_day < config.effective_season_days:
            today = self.weather[self.season_day]
            self.weather_station.today = today
            # Update scheduler bindings with the crop's current root zone.
            self._refresh_bindings()
            if (
                self.drone is not None
                and survey_every > 0
                and self.season_day % survey_every == 0
            ):
                self.sim.schedule(10 * HOUR, self.drone.start_survey, label="survey")
            yield DAY
            # Midnight: apply the day's weather to the soil/crop.
            self.field.advance_day(today.et0_mm, today.rain_mm)
            for zone in self.field:
                self.ndvi_trackers[zone.zone_id].record_day(
                    zone.water_balance.stress_coefficient_ks
                )
            self.season_day += 1

    def _refresh_bindings(self) -> None:
        if self.scheduler is None:
            return
        day = self.season_day
        crop = self.config.crop
        root = crop.root_depth_at(day)
        stage = crop.stage_at(min(day, crop.season_days - 1))
        self.scheduler.crop_stage = stage.name
        p = stage.depletion_fraction_p
        for binding in self.scheduler._valve_bindings:
            binding["root_depth_m"] = root
            binding["p"] = p
        for pivot_binding in self.scheduler._pivot_bindings:
            for binding in pivot_binding["zones"]:
                binding["root_depth_m"] = root
                binding["p"] = p

    # -- fault injection -----------------------------------------------------------

    def schedule_wan_partition(self, start_s: float, duration_s: float) -> None:
        """Cut the farm↔cloud WAN for ``duration_s`` (E9's fault)."""
        a, b = self._wan_pair
        self.sim.schedule_at(start_s, lambda: self.net.partition(a, b), label="partition")
        self.sim.schedule_at(start_s + duration_s, lambda: self.net.heal(a, b), label="heal")

    # -- run & report -----------------------------------------------------------

    @property
    def season_end_s(self) -> float:
        """The simulation time at which :meth:`run_season` stops."""
        return self.config.effective_season_days * DAY + HOUR

    def start_season(self) -> None:
        """Spawn the season driver process.  Idempotent."""
        if self._daily_process is None:
            self._daily_process = self.sim.spawn(self._daily_loop(), "season")

    def run_season(self) -> PilotReport:
        self.start_season()
        self.sim.run(until=self.season_end_s)
        return self.report()

    def run_days(self, days: float) -> None:
        self.start_season()
        self.sim.run(until=self.sim.now + days * DAY)

    def run_until(self, t: float) -> float:
        """Advance to the barrier ``t``.

        Segmented execution for checkpointing: a later :meth:`run_days` /
        ``sim.run`` continues bit-identically from the barrier.
        """
        self.start_season()
        return self.sim.run_until(t)

    def report(self) -> PilotReport:
        config = self.config
        scheduler_stats = self.scheduler.stats if self.scheduler else None
        broker = self.fog.mqtt if self.fog is not None else self.cloud.mqtt
        devices = [
            self.pump, self.flow_meter, self.weather_station,
            *self.probes.values(), *self.valves.values(),
        ]
        if self.pivot is not None:
            devices.append(self.pivot)
        if self.drone is not None:
            devices.append(self.drone)
        quarantined = len(self.security.alert_manager.quarantined) \
            if self.security.alert_manager else 0
        alerts = len(self.security.alert_manager.alerts) \
            if self.security.alert_manager else 0
        return PilotReport(
            name=config.name,
            season_days=self.season_day,
            irrigation_m3=self.field.total_irrigation_m3(),
            irrigation_mm_per_ha=(
                self.field.total_irrigation_m3() / (self.field.area_ha * 10.0)
                if self.field.area_ha else 0.0
            ),
            rain_mm=sum(d.rain_mm for d in self.weather[: self.season_day]),
            pump_kwh=self.pump.total_kwh,
            pivot_move_kwh=self.pivot.move_energy_kwh if self.pivot else 0.0,
            relative_yield=self.field.mean_relative_yield(),
            yield_t=self.field.total_yield_t(),
            decision_cycles=scheduler_stats.cycles if scheduler_stats else 0,
            decisions=scheduler_stats.decisions if scheduler_stats else 0,
            commands_sent=scheduler_stats.commands_sent if scheduler_stats else 0,
            skipped_no_data=scheduler_stats.skipped_no_data if scheduler_stats else 0,
            skipped_stale=scheduler_stats.skipped_stale if scheduler_stats else 0,
            measures_processed=self.agent.stats.measures_processed,
            measures_dropped_unprovisioned=self.agent.stats.measures_dropped_unprovisioned,
            broker_publishes_in=broker.stats.publishes_in if broker else 0,
            broker_denied=(broker.stats.denied_publish + broker.stats.denied_subscribe)
            if broker else 0,
            devices_dead=sum(1 for d in devices if d.dead),
            replicator_synced=self.replicator.updates_synced if self.replicator else 0,
            replicator_dropped=self.replicator.updates_dropped_overflow if self.replicator else 0,
            alerts=alerts,
            quarantined_devices=quarantined,
            resilience_restarts=self.supervisor.total_restarts if self.supervisor else 0,
            breaker_opens=self.uplink_breaker.opens if self.uplink_breaker else 0,
            degraded_episodes=self.degraded_mode.episodes if self.degraded_mode else 0,
            reconciled_decisions=self.degraded_mode.reconciled if self.degraded_mode else 0,
        )
