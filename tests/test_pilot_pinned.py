"""Seed-pinned pilot reports.

The expected report dicts below were captured from the monolithic
``PilotRunner.__init__`` at the same seeds.  Every refactor of the pilot
assembly must keep every field bit-identical (floats compared exactly:
the event order, RNG draws and arithmetic must not change at all), so
these reports also pin the order of the assembly steps in
``repro.core.stages``.  Enabling metrics must not perturb the run either.

Re-pin note: the cloud fixture's ``measures_processed``/
``broker_publishes_in`` moved by one (3055/3071 → 3054/3070) when the
link layer's FIFO bug was fixed — previously a small jitter draw could
let a later frame overtake an earlier one on the same link, and the
cloud fixture's WAN happened to deliver one message in reversed order.
The clamped (correct) arrival order is pinned here.

Re-pin note (batched sampling, Tier B): when ``batched_sampling`` became
the pilot default, device reports moved from per-device phase-shifted
firmware-loop events to one sweep event per (farm, report-interval)
group with a single group phase drawn from the ``sweep:<farm>`` stream
(see repro/devices/sweep.py).  Event timestamps and RNG consumption
legitimately changed, which shifted sampling-dependent report fields:
fog ``irrigation_m3`` 640.79… → 641.49…, ``measures_processed`` 3063 →
3064, ``broker_publishes_in``/``replicator_synced`` 3079/3078 →
3082/3082; cloud ``irrigation_m3`` 607.29… → 614.49…,
``relative_yield`` 1.0 → 0.99814; mobile_fog_pivot ``irrigation_m3``
1715.1 → 1669.0, ``commands_sent`` 6 → 5, ``relative_yield`` 1.0 →
0.99973.  The fog fixture's WAN congestion burst (the one that
deterministically opened the uplink breaker once under supervision) no
longer occurs with batched report timing, so SUPERVISED_DELTA is now
empty.  All fields remain within the same agronomic envelope; only the
schedule changed, not the physics.
"""

import dataclasses

import pytest

from repro.core.deployment import DeploymentKind
from repro.core.pilot import PilotConfig, PilotRunner
from repro.core.security_profile import SecurityConfig
from repro.physics.crop import SOYBEAN
from repro.physics.soil import LOAM
from repro.physics.weather import BARREIRAS_MATOPIBA

BASE = dict(
    name="pin", farm="pinfarm", climate=BARREIRAS_MATOPIBA, crop=SOYBEAN,
    soil=LOAM, rows=2, cols=2, spatial_cv=0.1, season_days=10,
    start_day_of_year=150, initial_theta=0.20,
    deployment=DeploymentKind.FOG, irrigation_kind="valves",
    scheduler_kind="smart", seed=3,
)

FIXTURES = {
    "fog": dict(BASE),
    "cloud": dict(BASE, deployment=DeploymentKind.CLOUD_ONLY, seed=7,
                  security=SecurityConfig(auth=True)),
    "mobile_fog_pivot": dict(BASE, deployment=DeploymentKind.MOBILE_FOG,
                             irrigation_kind="pivot", rows=3, cols=3, seed=11),
}

PINNED = {
    "fog": {
        "name": "pin", "season_days": 10,
        "irrigation_m3": 641.4999999999998,
        "irrigation_mm_per_ha": 16.037499999999994,
        "rain_mm": 2.714988640705466,
        "pump_kwh": 104.88525000000017,
        "pivot_move_kwh": 0.0,
        "relative_yield": 1.0, "yield_t": 16.8,
        "decision_cycles": 10, "decisions": 40, "commands_sent": 8,
        "skipped_no_data": 0, "skipped_stale": 0,
        "measures_processed": 3064, "measures_dropped_unprovisioned": 0,
        "broker_publishes_in": 3082, "broker_denied": 0,
        "devices_dead": 0,
        "replicator_synced": 3082, "replicator_dropped": 0,
        "alerts": 0, "quarantined_devices": 0,
        "resilience_restarts": 0, "breaker_opens": 0,
        "degraded_episodes": 0, "reconciled_decisions": 0,
    },
    "cloud": {
        "name": "pin", "season_days": 10,
        "irrigation_m3": 614.4999999999999,
        "irrigation_mm_per_ha": 15.362499999999997,
        "rain_mm": 4.106462029682147,
        "pump_kwh": 100.4707500000002,
        "pivot_move_kwh": 0.0,
        "relative_yield": 0.9981380238299484,
        "yield_t": 16.768718800343134,
        "decision_cycles": 10, "decisions": 40, "commands_sent": 8,
        "skipped_no_data": 0, "skipped_stale": 0,
        "measures_processed": 3054, "measures_dropped_unprovisioned": 0,
        "broker_publishes_in": 3070, "broker_denied": 0,
        "devices_dead": 0,
        "replicator_synced": 0, "replicator_dropped": 0,
        "alerts": 0, "quarantined_devices": 0,
        "resilience_restarts": 0, "breaker_opens": 0,
        "degraded_episodes": 0, "reconciled_decisions": 0,
    },
    "mobile_fog_pivot": {
        "name": "pin", "season_days": 10,
        "irrigation_m3": 1669.0,
        "irrigation_mm_per_ha": 18.544444444444444,
        "rain_mm": 0.0,
        "pump_kwh": 272.8815,
        "pivot_move_kwh": 27.00000000000002,
        "relative_yield": 0.9997272912202999,
        "yield_t": 37.78969160812734,
        "decision_cycles": 10, "decisions": 90, "commands_sent": 5,
        "skipped_no_data": 0, "skipped_stale": 0,
        "measures_processed": 5215, "measures_dropped_unprovisioned": 0,
        "broker_publishes_in": 5227, "broker_denied": 0,
        "devices_dead": 0,
        "replicator_synced": 5227, "replicator_dropped": 0,
        "alerts": 0, "quarantined_devices": 0,
        "resilience_restarts": 0, "breaker_opens": 0,
        "degraded_episodes": 0, "reconciled_decisions": 0,
    },
}

def run_fixture(name, **overrides):
    config = PilotConfig(**{**FIXTURES[name], **overrides})
    runner = PilotRunner(config)
    runner.run_season()
    return runner


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_reports_bit_identical_to_pre_refactor_baseline(fixture):
    runner = run_fixture(fixture)
    assert dataclasses.asdict(runner.report()) == PINNED[fixture]


# What enabling the resilience layer changes about each pinned fault-free
# fixture: nothing platform-visible.  Under legacy per-device sampling the
# fog fixture's WAN hit one genuine congestion burst (~t=468540: three
# consecutive sync batches expired) that deterministically opened the
# uplink breaker once; batched sampling spreads the sync load differently
# and the burst no longer occurs, so both deltas are now empty.  The
# supervisor's own idle path (watchdog checks over healthy services) never
# perturbs the event schedule, which is why every report field must still
# match PINNED exactly.
SUPERVISED_DELTA = {
    "fog": {},
    "cloud": {},  # no replicator, no uplink breaker
}


@pytest.mark.parametrize("fixture", ["fog", "cloud"])
def test_idle_supervision_does_not_change_the_run(fixture):
    from repro.resilience import ResilienceConfig

    supervised = run_fixture(fixture, resilience=ResilienceConfig())
    expected = {**PINNED[fixture], **SUPERVISED_DELTA[fixture]}
    assert dataclasses.asdict(supervised.report()) == expected
    assert supervised.supervisor is not None
    assert all(s == "healthy" for s in supervised.supervisor.states().values())
    assert supervised.report().resilience_restarts == 0


@pytest.mark.parametrize("fixture", ["fog", "cloud"])
def test_disabling_metrics_does_not_change_the_run(fixture):
    with_metrics = dataclasses.asdict(run_fixture(fixture).report())
    without = dataclasses.asdict(
        run_fixture(fixture, metrics_enabled=False).report()
    )
    assert with_metrics == without == PINNED[fixture]


def test_metrics_snapshot_covers_at_least_five_subsystems():
    runner = run_fixture("fog")
    snapshot = runner.metrics_snapshot()
    assert snapshot["enabled"] is True
    counters = snapshot["counters"]
    active_prefixes = {
        name.split(".", 1)[0]
        for name, value in counters.items() if value > 0
    }
    assert {"mqtt", "context", "fog", "scheduler", "iota"} <= active_prefixes
    gauges = snapshot["gauges"]
    assert gauges["simkernel.events_executed"] > 0
    assert gauges["simkernel.events_per_sec"] > 0
    # A few spot checks tying instruments to the pinned report.
    assert runner.metrics.total("iota.measures_processed") == 3064
    assert runner.metrics.total("mqtt.publishes_in") == 3082
    assert runner.metrics.total("scheduler.commands_sent") == 8
    assert runner.metrics.total("fog.updates_synced") == 3082


def test_disabled_metrics_registry_is_inert():
    runner = run_fixture("fog", metrics_enabled=False)
    assert runner.metrics.enabled is False
    snapshot = runner.metrics_snapshot()
    assert snapshot["enabled"] is False
    assert snapshot["counters"] == {}
    assert snapshot["gauges"] == {}
