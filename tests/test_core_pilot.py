"""Integration tests for the pilot composition layer.

Full seasons are exercised by the benchmarks; here we run *short* windows
(a couple of simulated weeks) that still traverse the entire pipeline.
"""

import pytest

from repro.core import (
    DeploymentKind,
    PilotConfig,
    PilotRunner,
    SecurityConfig,
    build_cbec_pilot,
    build_guaspari_pilot,
    build_intercrop_pilot,
    build_matopiba_pilot,
)
from repro.irrigation.policy import DeficitPolicy
from repro.physics import LOAM, SOYBEAN
from repro.physics.weather import BARREIRAS_MATOPIBA
from repro.simkernel.clock import DAY


def small_config(**overrides):
    defaults = dict(
        name="test-pilot",
        farm="testfarm",
        climate=BARREIRAS_MATOPIBA,
        crop=SOYBEAN,
        soil=LOAM,
        rows=2, cols=2,
        spatial_cv=0.1,
        season_days=10,
        start_day_of_year=150,  # dry season: irrigation will trigger
        initial_theta=0.20,
        deployment=DeploymentKind.FOG,
        irrigation_kind="valves",
        scheduler_kind="smart",
        seed=3,
    )
    defaults.update(overrides)
    return PilotConfig(**defaults)


class TestPilotRunnerFog:
    def test_short_season_closes_the_loop(self):
        runner = PilotRunner(small_config())
        report = runner.run_season()
        assert report.season_days == 10
        assert report.measures_processed > 50          # telemetry flowed
        assert report.decisions > 0                    # scheduler saw data
        assert report.commands_sent > 0                # actuation happened
        assert report.irrigation_m3 > 0                # water landed
        assert report.replicator_synced > 0            # cloud got a copy

    def test_context_entities_materialized(self):
        runner = PilotRunner(small_config())
        runner.run_days(2)
        parcels = runner.context.query(entity_type="AgriParcel")
        assert len(parcels) == 4
        assert all(isinstance(p.get("soilMoisture"), float) for p in parcels)
        # And replicated to the cloud tier.
        assert runner.cloud.context.query(entity_type="AgriParcel")

    def test_probe_coverage_fraction(self):
        runner = PilotRunner(small_config(probe_coverage=0.5))
        assert len(runner.probes) == 2
        runner.run_days(2)
        assert len(runner.context.query(entity_type="AgriParcel")) == 2

    def test_sensed_vs_truth_alignment(self):
        runner = PilotRunner(small_config())
        runner.run_days(3)
        for zone in runner.field:
            entity = runner.context.get_entity(runner.zone_entity_id(zone))
            assert entity.get("soilMoisture") == pytest.approx(zone.theta, abs=0.05)

    def test_report_shape(self):
        runner = PilotRunner(small_config())
        report = runner.run_season()
        assert report.total_energy_kwh == report.pump_kwh + report.pivot_move_kwh
        assert 0.0 <= report.relative_yield <= 1.0


class TestPilotRunnerCloud:
    def test_cloud_deployment_routes_through_gateway(self):
        runner = PilotRunner(small_config(deployment=DeploymentKind.CLOUD_ONLY))
        runner.run_days(2)
        assert runner.fog is None
        assert runner.replicator is None
        parcels = runner.cloud.context.query(entity_type="AgriParcel")
        assert len(parcels) == 4

    def test_wan_partition_starves_cloud_decisions(self):
        blocked = PilotRunner(small_config(deployment=DeploymentKind.CLOUD_ONLY, seed=7))
        blocked.schedule_wan_partition(start_s=1 * DAY, duration_s=8 * DAY)
        report_blocked = blocked.run_season()

        healthy = PilotRunner(small_config(deployment=DeploymentKind.CLOUD_ONLY, seed=7))
        report_healthy = healthy.run_season()
        # During the partition the cloud sees no telemetry: decisions are
        # skipped for staleness/no-data.  (Clients reconnect after the
        # heal, so late commands may still go out.)
        skipped = report_blocked.skipped_stale + report_blocked.skipped_no_data
        assert skipped >= 8  # ~4 zones × several starved daily cycles
        assert report_blocked.commands_sent <= report_healthy.commands_sent

    def test_fog_deployment_survives_wan_partition(self):
        runner = PilotRunner(small_config(seed=7))
        runner.schedule_wan_partition(start_s=1 * DAY, duration_s=8 * DAY)
        report = runner.report_after = runner.run_season()
        # Local loop unaffected.
        assert report.skipped_stale + report.skipped_no_data == 0
        assert report.commands_sent > 0


class TestFixedScheduler:
    def test_fixed_calendar_overirrigates_vs_smart(self):
        fixed = PilotRunner(small_config(
            scheduler_kind="fixed", fixed_interval_days=2, fixed_depth_mm=25.0, seed=9,
        ))
        report_fixed = fixed.run_season()
        smart = PilotRunner(small_config(seed=9))
        report_smart = smart.run_season()
        assert report_fixed.irrigation_m3 > report_smart.irrigation_m3


class TestPivotPilot:
    def test_pivot_receives_prescriptions(self):
        runner = PilotRunner(small_config(irrigation_kind="pivot", rows=3, cols=3))
        report = runner.run_season()
        assert runner.pivot is not None
        assert runner.pivot.total_applied_mm > 0
        assert report.irrigation_m3 > 0


class TestSecurityIntegration:
    def test_auth_enabled_pipeline_still_works(self):
        runner = PilotRunner(small_config(
            security=SecurityConfig(auth=True), seed=5,
        ))
        report = runner.run_season()
        assert report.measures_processed > 50
        assert report.commands_sent > 0
        assert runner.security.oauth.issued_count > 0

    def test_auth_blocks_tokenless_client(self):
        from repro.mqtt import MqttClient
        from repro.network import RadioModel

        runner = PilotRunner(small_config(security=SecurityConfig(auth=True), seed=5))
        intruder = MqttClient(runner.sim, "intruder", runner.broker_address,
                              client_id="intruder", password="guess", auto_reconnect=False)
        runner.net.add_node(intruder)
        runner.net.connect("intruder", runner.broker_address,
                           RadioModel("t", 0.01, 1e6, 0.0))
        intruder.connect()
        runner.run_days(1)
        assert not intruder.connected

    def test_encryption_enabled_pipeline_still_works(self):
        runner = PilotRunner(small_config(
            security=SecurityConfig(encryption=True), seed=5,
        ))
        report = runner.run_season()
        assert report.measures_processed > 50
        assert runner.security.channels.decode_failures == 0

    def test_encryption_hides_telemetry_from_wire(self):
        runner = PilotRunner(small_config(security=SecurityConfig(encryption=True), seed=5))
        probe = next(iter(runner.probes.values()))
        observed = []
        for link in runner.net.links_between(probe.client.address, runner.broker_address):
            link.add_tap(lambda p: observed.append(p.observable()))
        runner.run_days(1)
        frames = [o for o in observed if isinstance(o, bytes)]
        assert frames
        assert all(b"soilMoisture" not in f for f in frames)

    def test_detection_trains_quietly_on_clean_run(self):
        runner = PilotRunner(small_config(
            security=SecurityConfig(detection=True, detection_training_s=5 * DAY),
            seed=5,
        ))
        report = runner.run_season()
        assert report.quarantined_devices == 0


class TestRegulatedDeficit:
    def test_policy_sees_the_crop_stage(self):
        # The whole short season sits in SOYBEAN's first stage, which the
        # policy lists, so every refill is cut to the deficit target.
        policy = DeficitPolicy(deficit_stages=(SOYBEAN.stages[0].name,),
                               deficit_target=0.5)
        runner = PilotRunner(small_config(season_days=4, policy=policy))
        runner.run_season()
        reasons = [entry["reason"] for entry in runner.scheduler.decision_log]
        assert "deficit-regulated" in reasons
        assert "deficit-refill" not in reasons


class TestPilotFactories:
    @pytest.mark.parametrize("factory", [
        lambda: build_cbec_pilot(seed=1)[0],
        lambda: build_intercrop_pilot(seed=1)[0],
        lambda: build_guaspari_pilot(seed=1),
        lambda: build_matopiba_pilot(seed=1),
    ])
    def test_factories_build_and_run_briefly(self, factory):
        runner = factory()
        runner.run_days(3)
        assert runner.agent.stats.measures_processed > 0

    def test_matopiba_has_pivot_and_drone(self):
        runner = build_matopiba_pilot(seed=1)
        assert runner.pivot is not None
        assert runner.drone is not None

    def test_cbec_supply_gate_wired(self):
        runner, network = build_cbec_pilot(seed=1)
        assert runner.config.supply_gate is not None
        assert "cbec-farm" in network.farms
