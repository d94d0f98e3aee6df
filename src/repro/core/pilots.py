"""The four SWAMP pilots (paper §I), as PilotConfig factories.

Each factory returns a ready :class:`~repro.core.pilot.PilotRunner` plus
the pilot-specific water infrastructure where relevant.  The knobs mirror
each pilot's stated primary goal:

1. **CBEC** (Bologna/Italy) — optimize water *distribution* to farms:
   processing tomato on the Emilia plain, cloud deployment, valve
   irrigation fed by a canal network with seepage losses; the scheduler's
   demand is gated by the daily canal allocation.
2. **Intercrop** (Cartagena/Spain) — use water more *rationally* in a dry
   area supplied partly by desalination: lettuce, valve irrigation, the
   scheduler gated by a cost-ordered source mix.
3. **Guaspari** (Pinhal/Brazil) — improve *wine quality* with winter-season
   irrigation: grapes under regulated deficit irrigation, fog deployment
   (hilly terrain, flaky backhaul).
4. **MATOPIBA** (Barreiras/Brazil) — *VRI on center pivots* for soybean,
   saving water and energy: big spatially variable field, pivot
   irrigation, mobile-fog deployment with a survey drone.
"""

from typing import Tuple

from repro.core.deployment import DeploymentKind
from repro.core.pilot import PilotConfig, PilotRunner
from repro.core.security_profile import SecurityConfig
from repro.faults.plan import FaultPlan
from repro.irrigation.distribution import Canal, DistributionNetwork, FarmOfftake, Reservoir
from repro.irrigation.policy import DeficitPolicy, SoilMoisturePolicy
from repro.irrigation.sources import DesalinationPlant, SourceMixOptimizer, WaterSource
from repro.physics.crop import GUASPARI_GRAPE, LETTUCE, SOYBEAN, TOMATO_PROCESSING
from repro.physics.soil import CLAY, LOAM, SANDY_LOAM, SILTY_CLAY
from repro.physics.weather import BARREIRAS_MATOPIBA, CARTAGENA, EMILIA_ROMAGNA, PINHAL
from repro.resilience import ResilienceConfig
from repro.telemetry.tracing import TraceConfig


def build_cbec_pilot(
    seed: int = 0, security: SecurityConfig = None, fault_plan: FaultPlan = None,
    resilience: ResilienceConfig = None, tracing: TraceConfig = None,
    profile: bool = False, scheduler_kind: str = "smart",
) -> Tuple[PilotRunner, DistributionNetwork]:
    """CBEC: tomato on the Emilia plain, canal-fed, cloud deployment."""
    reservoir = Reservoir("po-offtake", capacity_m3=60_000.0)
    network = DistributionNetwork(reservoir)
    network.add_canal(Canal("primary", None, capacity_m3_day=30_000.0, loss_fraction=0.08))
    network.add_canal(Canal("secondary", "primary", capacity_m3_day=12_000.0, loss_fraction=0.05))
    farm = network.add_farm(FarmOfftake("cbec-farm", "secondary", priority=1))

    def supply_gate(demand_m3: float) -> float:
        network.set_demand("cbec-farm", demand_m3)
        allocations = network.allocate()
        granted = allocations.get("cbec-farm", 0.0)
        # The reservoir refills overnight from the river offtake.
        reservoir.inflow(demand_m3 * 1.2 + 500.0)
        return granted / demand_m3 if demand_m3 > 0 else 1.0

    config = PilotConfig(
        name="cbec",
        farm="cbec",
        climate=EMILIA_ROMAGNA,
        crop=TOMATO_PROCESSING,
        soil=SILTY_CLAY,
        rows=4, cols=4, zone_area_ha=2.0,
        spatial_cv=0.12,
        start_day_of_year=121,  # transplant early May
        deployment=DeploymentKind.CLOUD_ONLY,
        irrigation_kind="valves",
        scheduler_kind=scheduler_kind,
        supply_gate=supply_gate,
        security=security or SecurityConfig(),
        fault_plan=fault_plan,
        resilience=resilience,
        tracing=tracing,
        profile=profile,
        seed=seed,
    )
    return PilotRunner(config), network


def build_intercrop_pilot(
    seed: int = 0, security: SecurityConfig = None, fault_plan: FaultPlan = None,
    resilience: ResilienceConfig = None, tracing: TraceConfig = None,
    profile: bool = False, scheduler_kind: str = "smart",
) -> Tuple[PilotRunner, SourceMixOptimizer]:
    """Intercrop: lettuce near Cartagena, desalination-backed source mix."""
    well = WaterSource("well", capacity_m3_day=220.0, cost_eur_m3=0.09, energy_kwh_m3=0.6)
    transfer = WaterSource("tajo-segura", capacity_m3_day=150.0, cost_eur_m3=0.32,
                           energy_kwh_m3=1.2)
    desalination = DesalinationPlant(capacity_m3_day=800.0)
    optimizer = SourceMixOptimizer([well, transfer, desalination])

    def supply_gate(demand_m3: float) -> float:
        result = optimizer.allocate_day(demand_m3)
        return result.supplied_m3 / demand_m3 if demand_m3 > 0 else 1.0

    config = PilotConfig(
        name="intercrop",
        farm="intercrop",
        climate=CARTAGENA,
        crop=LETTUCE,
        soil=SANDY_LOAM,
        rows=4, cols=4, zone_area_ha=0.5,
        spatial_cv=0.10,
        start_day_of_year=274,  # autumn planting
        deployment=DeploymentKind.CLOUD_ONLY,
        irrigation_kind="valves",
        scheduler_kind=scheduler_kind,
        policy=SoilMoisturePolicy(trigger_fraction=0.8, max_application_mm=15.0),
        valve_rate_mm_h=12.0,  # drip lines
        pump_head_m=25.0,
        supply_gate=supply_gate,
        security=security or SecurityConfig(),
        fault_plan=fault_plan,
        resilience=resilience,
        tracing=tracing,
        profile=profile,
        seed=seed,
    )
    return PilotRunner(config), optimizer


def build_guaspari_pilot(
    seed: int = 0, security: SecurityConfig = None, fault_plan: FaultPlan = None,
    resilience: ResilienceConfig = None, tracing: TraceConfig = None,
    profile: bool = False, scheduler_kind: str = "smart",
) -> PilotRunner:
    """Guaspari: winter wine grapes under regulated deficit irrigation."""
    config = PilotConfig(
        name="guaspari",
        farm="guaspari",
        climate=PINHAL,
        crop=GUASPARI_GRAPE,
        soil=CLAY,
        rows=3, cols=4, zone_area_ha=1.0,
        spatial_cv=0.18,
        start_day_of_year=91,  # April budbreak for the June-August harvest
        deployment=DeploymentKind.FOG,
        irrigation_kind="valves",
        scheduler_kind=scheduler_kind,
        policy=DeficitPolicy(deficit_stages=("veraison", "ripening"), deficit_target=0.6,
                             trigger_fraction=0.85),
        valve_rate_mm_h=6.0,
        pump_head_m=60.0,  # hillside vineyard
        security=security or SecurityConfig(),
        fault_plan=fault_plan,
        resilience=resilience,
        tracing=tracing,
        profile=profile,
        seed=seed,
    )
    return PilotRunner(config)


def build_matopiba_pilot(
    seed: int = 0,
    security: SecurityConfig = None,
    spatial_cv: float = 0.25,
    scheduler_kind: str = "smart",
    probe_coverage: float = 1.0,
    deployment: DeploymentKind = DeploymentKind.MOBILE_FOG,
    uniform_pivot: bool = False,
    rows: int = 6,
    cols: int = 6,
    probe_interval_s: float = 1800.0,
    season_days: int = None,
    fault_plan: FaultPlan = None,
    resilience: ResilienceConfig = None,
    tracing: TraceConfig = None,
    profile: bool = False,
) -> PilotRunner:
    """MATOPIBA: VRI soybean under a center pivot in the dry season.

    The grid/probe-interval knobs let the benchmark harness trade spatial
    resolution for runtime without changing the scenario.
    """
    config = PilotConfig(
        name="matopiba",
        farm="matopiba",
        climate=BARREIRAS_MATOPIBA,
        crop=SOYBEAN,
        soil=SANDY_LOAM,
        rows=rows, cols=cols, zone_area_ha=90.0 / (rows * cols),  # 90 ha circle
        spatial_cv=spatial_cv,
        season_days=season_days,
        start_day_of_year=135,  # dry-season planting (mid May)
        deployment=deployment,
        irrigation_kind="pivot",
        scheduler_kind=scheduler_kind,
        fixed_interval_days=3,
        fixed_depth_mm=18.0,
        probe_coverage=probe_coverage,
        probe_interval_s=probe_interval_s,
        pivot_rate_mm_h=12.0,
        pump_head_m=50.0,
        uniform_pivot=uniform_pivot,
        security=security or SecurityConfig(),
        fault_plan=fault_plan,
        resilience=resilience,
        tracing=tracing,
        profile=profile,
        seed=seed,
    )
    return PilotRunner(config)


# Uniform builder surface for the run() entrypoint: every pilot accepts
# the same keyword set (builders that also return water infrastructure
# strip it here — callers needing the infrastructure use the build_*
# functions directly).
PILOT_BUILDERS = {
    "cbec": lambda **kw: build_cbec_pilot(**kw)[0],
    "intercrop": lambda **kw: build_intercrop_pilot(**kw)[0],
    "guaspari": lambda **kw: build_guaspari_pilot(**kw),
    "matopiba": lambda **kw: build_matopiba_pilot(**kw),
}
