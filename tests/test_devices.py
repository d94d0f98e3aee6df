"""Tests for device models: telemetry, commands, battery, failures, actuation."""

import pytest

from repro.devices import (
    Battery,
    CenterPivot,
    DeviceConfig,
    Drone,
    Pump,
    SoilMoistureProbe,
    Valve,
    WaterFlowMeter,
    WeatherStation,
    decode_payload,
    encode_payload,
)
from repro.mqtt import MqttBroker, MqttClient
from repro.network import Network, RadioModel
from repro.physics import Field, LOAM, SOYBEAN
from repro.physics.weather import EMILIA_ROMAGNA, WeatherGenerator
from repro.simkernel import Simulator
from repro.simkernel.clock import HOUR


def lossless():
    return RadioModel("t", latency_s=0.01, bandwidth_bps=1e6, loss_rate=0.0)


class Harness:
    """Sim + network + broker + an observer subscribed to everything."""

    def __init__(self, seed=1):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim)
        self.broker = MqttBroker(self.sim, "broker")
        self.net.add_node(self.broker)
        self.observer = MqttClient(self.sim, "observer", "broker")
        self.net.add_node(self.observer)
        self.net.connect("observer", "broker", lossless())
        self.messages = []
        self.observer.connect()
        self.observer.subscribe(
            "swamp/#", handler=lambda t, p, q, r: self.messages.append((t, decode_payload(p)))
        )
        self.commander = MqttClient(self.sim, "commander", "broker")
        self.net.add_node(self.commander)
        self.net.connect("commander", "broker", lossless())
        self.commander.connect()
        self.field = Field("f", 2, 2, LOAM, SOYBEAN, self.sim.rng.stream("field"))

    def add_device(self, cls, config, **kwargs):
        device = cls(self.sim, self.net, config, "broker", **kwargs)
        self.net.connect(device.client.address, "broker", lossless())
        device.start()
        return device

    def send_command(self, device, command):
        self.commander.publish(device.command_topic, encode_payload(command), qos=1)

    def telemetry(self, device_id):
        return [m for t, m in self.messages if t.endswith(f"attrs/{device_id}") and m]


class TestCodec:
    def test_roundtrip(self):
        data = {"a": 1, "b": [1, 2], "c": "x"}
        assert decode_payload(encode_payload(data)) == data

    def test_garbage_returns_none(self):
        assert decode_payload(b"\xff\xfe") is None
        assert decode_payload(b"not json") is None

    def test_non_dict_rejected(self):
        assert decode_payload(b"[1,2]") is None

    def test_compact_encoding(self):
        assert b" " not in encode_payload({"a": 1, "b": 2})


class TestBattery:
    def test_draw_and_deplete(self):
        battery = Battery(10.0)
        assert battery.draw(4.0, "radio")
        assert battery.fraction_remaining == pytest.approx(0.6)
        assert not battery.draw(7.0, "radio")
        assert battery.depleted
        assert battery.remaining_j == 0.0

    def test_category_accounting(self):
        battery = Battery(100.0)
        battery.draw(10.0, "radio")
        battery.draw(5.0, "radio")
        battery.draw(2.0, "cpu")
        assert battery.drawn("radio") == 15.0
        assert battery.total_drawn() == 17.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Battery(0.0)
        with pytest.raises(ValueError):
            Battery(10.0).draw(-1.0)


class TestSoilProbe:
    def test_reports_zone_moisture(self):
        h = Harness()
        zone = h.field.zone(0, 0)
        probe = h.add_device(
            SoilMoistureProbe,
            DeviceConfig("probe1", "farmA", "soil-probe", report_interval_s=600),
            zone=zone,
        )
        h.sim.run(until=3600.0)
        reports = h.telemetry("probe1")
        assert len(reports) >= 4
        for report in reports:
            assert report["soilMoisture"] == pytest.approx(zone.theta, abs=0.05)
            assert report["zone"] == zone.zone_id
            assert "ts" in report

    def test_tamper_hook_mutates_reading(self):
        h = Harness()
        probe = h.add_device(
            SoilMoistureProbe,
            DeviceConfig("probe1", "farmA", "soil-probe", report_interval_s=600),
            zone=h.field.zone(0, 0),
        )
        probe.tamper_hooks.append(lambda m: {**m, "soilMoisture": 0.999})
        h.sim.run(until=2000.0)
        assert all(r["soilMoisture"] == 0.999 for r in h.telemetry("probe1"))

    def test_battery_death_stops_reports(self):
        h = Harness()
        probe = h.add_device(
            SoilMoistureProbe,
            DeviceConfig("probe1", "farmA", "soil-probe",
                         report_interval_s=600, battery_capacity_j=0.5),
            zone=h.field.zone(0, 0),
        )
        h.sim.run(until=4 * 3600.0)
        assert probe.dead
        count_at_death = len(h.telemetry("probe1"))
        assert count_at_death <= 6  # ~0.14 J per report on a 0.5 J battery
        h.sim.run(until=8 * 3600.0)
        assert len(h.telemetry("probe1")) == count_at_death

    def test_transient_failure_pauses_reports(self):
        h = Harness()
        probe = h.add_device(
            SoilMoistureProbe,
            DeviceConfig("probe1", "farmA", "soil-probe", report_interval_s=600),
            zone=h.field.zone(0, 0),
        )
        probe.failed = True
        h.sim.run(until=3600.0)
        assert h.telemetry("probe1") == []
        probe.failed = False
        h.sim.run(until=7200.0)
        assert len(h.telemetry("probe1")) >= 3


class TestDeviceLifecycle:
    """stop() must kill *every* loop the device spawned.

    Regression: start() used to discard the `_failure_loop` handle, so a
    stopped device kept flipping `failed` and emitting trace events
    forever.
    """

    def _failure_traces(self, h, device_id):
        return [
            r
            for r in h.sim.trace
            if r.category == "device"
            and r.message in ("transient failure", "repaired")
            and r.data.get("device") == device_id
        ]

    def test_stop_kills_failure_loop(self):
        h = Harness()
        probe = h.add_device(
            SoilMoistureProbe,
            DeviceConfig(
                "probe1", "farmA", "soil-probe",
                report_interval_s=600, mtbf_s=1800.0, repair_time_s=600.0,
            ),
            zone=h.field.zone(0, 0),
        )
        assert probe._failure_process is not None and probe._failure_process.alive
        h.sim.run(until=2 * 3600.0)
        probe.stop()
        assert probe._sweep_group is None and probe._failure_process is None
        failures_at_stop = len(self._failure_traces(h, "probe1"))
        reports_at_stop = len(h.telemetry("probe1"))
        probe.failed = False
        h.sim.run(until=24 * 3600.0)
        assert len(self._failure_traces(h, "probe1")) == failures_at_stop
        assert len(h.telemetry("probe1")) == reports_at_stop
        assert probe.failed is False

    def test_stop_without_failure_loop(self):
        h = Harness()
        probe = h.add_device(
            SoilMoistureProbe,
            DeviceConfig("probe1", "farmA", "soil-probe", report_interval_s=600),
            zone=h.field.zone(0, 0),
        )
        h.sim.run(until=3600.0)
        probe.stop()  # no failure loop configured: must not blow up
        count = len(h.telemetry("probe1"))
        h.sim.run(until=2 * 3600.0)
        assert len(h.telemetry("probe1")) == count

    def test_stop_is_idempotent(self):
        h = Harness()
        probe = h.add_device(
            SoilMoistureProbe,
            DeviceConfig("probe1", "farmA", "soil-probe",
                         report_interval_s=600, mtbf_s=900.0),
            zone=h.field.zone(0, 0),
        )
        h.sim.run(until=1800.0)
        probe.stop()
        probe.stop()


class TestWeatherStation:
    def test_reports_weather(self):
        h = Harness()
        station = h.add_device(
            WeatherStation,
            DeviceConfig("ws1", "farmA", "weather-station", report_interval_s=900),
        )
        gen = WeatherGenerator(EMILIA_ROMAGNA, h.sim.rng.stream("wx"))
        station.today = gen.step()
        h.sim.run(until=3600.0)
        reports = h.telemetry("ws1")
        assert reports
        for key in ("tMin", "tMax", "rh", "wind", "solar", "rain", "et0"):
            assert key in reports[0]

    def test_rh_clamped_to_physical_range(self):
        # Instrument noise on a near-saturated day must not report >100%.
        from repro.physics.weather import DailyWeather

        h = Harness()
        station = h.add_device(
            WeatherStation,
            DeviceConfig("ws1", "farmA", "weather-station", report_interval_s=300),
        )
        station.today = DailyWeather(
            day_of_year=180, day_index=0, tmin_c=22.0, tmax_c=30.0,
            rh_mean_pct=99.9, wind_ms=0.01, solar_mj_m2=0.1,
            rain_mm=12.0, et0_mm=3.1,
        )
        h.sim.run(until=24 * 3600.0)
        reports = h.telemetry("ws1")
        assert len(reports) >= 50
        assert all(0.0 <= r["rh"] <= 100.0 for r in reports)
        assert any(r["rh"] == 100.0 for r in reports)  # noise did clip
        assert all(r["wind"] >= 0.0 and r["solar"] >= 0.0 for r in reports)

    def test_no_reports_before_first_day(self):
        h = Harness()
        h.add_device(
            WeatherStation,
            DeviceConfig("ws1", "farmA", "weather-station", report_interval_s=900),
        )
        h.sim.run(until=3600.0)
        assert h.telemetry("ws1") == []


class TestFlowMeter:
    def test_totalizes_and_rates(self):
        h = Harness()
        meter = h.add_device(
            WaterFlowMeter,
            DeviceConfig("fm1", "farmA", "flow-meter", report_interval_s=600),
        )
        meter.add_flow(5.0)
        h.sim.run(until=3600.0)
        meter.add_flow(2.5)
        h.sim.run(until=7200.0)
        reports = h.telemetry("fm1")
        assert reports[-1]["totalFlow"] == pytest.approx(7.5)

    def test_negative_flow_rejected(self):
        h = Harness()
        meter = h.add_device(
            WaterFlowMeter, DeviceConfig("fm1", "farmA", "flow-meter")
        )
        with pytest.raises(ValueError):
            meter.add_flow(-1.0)


class TestValve:
    def test_open_command_applies_water(self):
        h = Harness()
        zone = h.field.zone(0, 0)
        zone.water_balance.theta = 0.20
        valve = h.add_device(
            Valve,
            DeviceConfig("v1", "farmA", "valve", report_interval_s=600),
            zone=zone, rate_mm_h=10.0,
        )
        h.sim.run(until=10.0)
        h.send_command(valve, {"cmd": "open", "duration_s": 3600})
        h.sim.run(until=2 * 3600.0)
        assert valve.total_applied_mm == pytest.approx(10.0, rel=0.05)
        assert zone.water_balance.cum_irrigation_mm == pytest.approx(10.0, rel=0.05)
        assert not valve.is_open

    def test_depth_command(self):
        h = Harness()
        zone = h.field.zone(0, 0)
        valve = h.add_device(
            Valve, DeviceConfig("v2", "farmA", "valve"), zone=zone, rate_mm_h=8.0
        )
        h.sim.run(until=10.0)
        h.send_command(valve, {"cmd": "open", "depth_mm": 4.0})
        h.sim.run(until=3 * 3600.0)
        assert valve.total_applied_mm == pytest.approx(4.0, rel=0.05)

    def test_close_command_stops_early(self):
        h = Harness()
        zone = h.field.zone(0, 0)
        valve = h.add_device(
            Valve, DeviceConfig("v3", "farmA", "valve"), zone=zone, rate_mm_h=10.0
        )
        h.sim.run(until=10.0)
        h.send_command(valve, {"cmd": "open", "duration_s": 7200})
        h.sim.run(until=1800.0)
        h.send_command(valve, {"cmd": "close"})
        h.sim.run(until=3 * 3600.0)
        assert valve.total_applied_mm < 6.0

    def test_command_ack_published(self):
        h = Harness()
        valve = h.add_device(
            Valve, DeviceConfig("v4", "farmA", "valve"), zone=h.field.zone(0, 0)
        )
        h.sim.run(until=10.0)
        h.send_command(valve, {"cmd": "open", "duration_s": 60})
        h.sim.run(until=100.0)
        acks = [m for t, m in h.messages if t.endswith("cmdexe/v4") and m]
        assert acks and acks[0]["result"] == "ok"

    def test_bad_command_rejected(self):
        h = Harness()
        valve = h.add_device(
            Valve, DeviceConfig("v5", "farmA", "valve"), zone=h.field.zone(0, 0)
        )
        h.sim.run(until=10.0)
        h.send_command(valve, {"cmd": "open"})  # no duration/depth
        h.send_command(valve, {"cmd": "explode"})
        h.sim.run(until=100.0)
        acks = [m["result"] for t, m in h.messages if t.endswith("cmdexe/v5") and m]
        assert "bad-arguments" in acks and "unknown-command" in acks

    def test_meters_pump_and_flow(self):
        h = Harness()
        zone = h.field.zone(0, 0)
        pump = h.add_device(Pump, DeviceConfig("p1", "farmA", "pump"), head_m=40.0)
        meter = h.add_device(WaterFlowMeter, DeviceConfig("fm2", "farmA", "flow-meter"))
        valve = h.add_device(
            Valve, DeviceConfig("v6", "farmA", "valve"),
            zone=zone, rate_mm_h=10.0, pump=pump, flow_meter=meter,
        )
        h.sim.run(until=10.0)
        valve.open_for(3600.0)
        h.sim.run(until=2 * 3600.0)
        # 10mm on 1 ha = 100 m3
        assert pump.total_m3 == pytest.approx(100.0, rel=0.05)
        assert meter.total_m3 == pytest.approx(100.0, rel=0.05)
        assert pump.total_kwh > 10.0  # 100 m3 * 0.002725 * 40 / 0.75 ≈ 14.5


class TestPump:
    def test_energy_model(self):
        h = Harness()
        pump = h.add_device(
            Pump, DeviceConfig("p2", "farmA", "pump"), head_m=45.0, efficiency=0.75
        )
        energy = pump.pump_volume(100.0)
        assert energy == pytest.approx(100 * 0.002725 * 45.0 / 0.75)

    def test_invalid_efficiency(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.add_device(Pump, DeviceConfig("p3", "farmA", "pump"), efficiency=0.0)

    def test_start_stop_commands(self):
        h = Harness()
        pump = h.add_device(Pump, DeviceConfig("p4", "farmA", "pump"))
        h.sim.run(until=10.0)
        h.send_command(pump, {"cmd": "start"})
        h.sim.run(until=20.0)
        assert pump.running
        h.send_command(pump, {"cmd": "stop"})
        h.sim.run(until=30.0)
        assert not pump.running


class TestCenterPivot:
    def make_pivot(self, h, depth_map=None):
        pump = h.add_device(Pump, DeviceConfig("pp", "farmA", "pump"))
        pivot = h.add_device(
            CenterPivot,
            DeviceConfig("pivot1", "farmA", "center-pivot", report_interval_s=1800),
            zones=h.field.zones, max_application_rate_mm_h=10.0, pump=pump,
        )
        return pivot, pump

    def test_uniform_pass(self):
        h = Harness()
        pivot, pump = self.make_pivot(h)
        h.sim.run(until=10.0)
        h.send_command(pivot, {"cmd": "start_pass", "depth_mm": 5.0})
        h.sim.run(until=10 * HOUR)
        assert pivot.passes_completed == 1
        for zone in h.field:
            assert zone.water_balance.cum_irrigation_mm == pytest.approx(5.0)
        assert pump.total_m3 == pytest.approx(4 * 5.0 * 10.0)

    def test_vri_prescription(self):
        h = Harness()
        pivot, pump = self.make_pivot(h)
        prescription = {z.zone_id: (8.0 if z.row == 0 else 2.0) for z in h.field}
        h.sim.run(until=10.0)
        pivot.start_pass(prescription)
        h.sim.run(until=10 * HOUR)
        for zone in h.field:
            expected = 8.0 if zone.row == 0 else 2.0
            assert zone.water_balance.cum_irrigation_mm == pytest.approx(expected)

    def test_pass_duration_scales_with_depth(self):
        h = Harness()
        pivot, _ = self.make_pivot(h)
        shallow = {z.zone_id: 2.0 for z in h.field}
        deep = {z.zone_id: 10.0 for z in h.field}
        assert pivot.pass_duration_s(deep) > pivot.pass_duration_s(shallow) * 3

    def test_stop_interrupts_pass(self):
        h = Harness()
        pivot, _ = self.make_pivot(h)
        h.sim.run(until=10.0)
        pivot.start_pass({z.zone_id: 10.0 for z in h.field})
        h.sim.run(until=1.5 * HOUR)
        pivot.stop_pass()
        h.sim.run(until=10 * HOUR)
        assert pivot.passes_completed == 0
        assert pivot.total_applied_mm < 40.0

    def test_busy_rejects_second_pass(self):
        h = Harness()
        pivot, _ = self.make_pivot(h)
        h.sim.run(until=10.0)
        pivot.start_pass({z.zone_id: 5.0 for z in h.field})
        h.sim.run(until=600.0)
        h.send_command(pivot, {"cmd": "start_pass", "depth_mm": 3.0})
        h.sim.run(until=700.0)
        acks = [m["result"] for t, m in h.messages if t.endswith("cmdexe/pivot1") and m]
        assert "busy" in acks

    def test_move_energy_accumulates(self):
        h = Harness()
        pivot, _ = self.make_pivot(h)
        h.sim.run(until=10.0)
        pivot.start_pass({z.zone_id: 2.0 for z in h.field})
        h.sim.run(until=5 * HOUR)
        assert pivot.move_energy_kwh == pytest.approx(4 * 0.6)
        assert pivot.total_energy_kwh() > pivot.move_energy_kwh

    def test_empty_zone_list_rejected(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.add_device(
                CenterPivot, DeviceConfig("pivotX", "farmA", "center-pivot"), zones=[]
            )


class TestDrone:
    def test_survey_publishes_all_zones(self):
        h = Harness()
        drone = h.add_device(
            Drone,
            DeviceConfig("drone1", "farmA", "drone", report_interval_s=3600),
            field=h.field, seconds_per_zone=10.0,
        )
        h.sim.run(until=10.0)
        h.send_command(drone, {"cmd": "survey"})
        h.sim.run(until=600.0)
        observations = [m for m in h.telemetry("drone1") if m.get("zone")]
        assert len(observations) == len(h.field)
        assert {o["zone"] for o in observations} == {z.zone_id for z in h.field}
        assert all(0.0 <= o["ndvi"] <= 1.0 for o in observations)
        assert drone.surveys_completed == 1

    def test_survey_summary_published(self):
        h = Harness()
        drone = h.add_device(
            Drone, DeviceConfig("drone2", "farmA", "drone"),
            field=h.field, seconds_per_zone=5.0,
        )
        h.sim.run(until=10.0)
        drone.start_survey()
        h.sim.run(until=600.0)
        summaries = [m for m in h.telemetry("drone2") if m.get("surveyDone")]
        assert summaries and summaries[0]["observations"] == 4

    def test_busy_while_surveying(self):
        h = Harness()
        drone = h.add_device(
            Drone, DeviceConfig("drone3", "farmA", "drone"),
            field=h.field, seconds_per_zone=30.0,
        )
        h.sim.run(until=10.0)
        drone.start_survey()
        h.sim.run(until=20.0)
        h.send_command(drone, {"cmd": "survey"})
        h.sim.run(until=60.0)
        acks = [m["result"] for t, m in h.messages if t.endswith("cmdexe/drone3") and m]
        assert "busy" in acks
