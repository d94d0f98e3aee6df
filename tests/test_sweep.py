"""Tests for sweep-driven device sampling (SweepScheduler / SweepGroup)."""

import hashlib

from repro.devices import DeviceConfig, SoilMoistureProbe, WeatherStation
from repro.devices.sweep import SweepScheduler
from repro.mqtt import MqttBroker, MqttClient
from repro.network import Network, RadioModel
from repro.physics import Field, LOAM, SOYBEAN
from repro.simkernel import Simulator


def lossless():
    return RadioModel("t", latency_s=0.01, bandwidth_bps=1e6, loss_rate=0.0)


class Harness:
    def __init__(self, seed=1):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim)
        self.broker = MqttBroker(self.sim, "broker")
        self.net.add_node(self.broker)
        self.observer = MqttClient(self.sim, "observer", "broker")
        self.net.add_node(self.observer)
        self.net.connect("observer", "broker", lossless())
        self.reports = []
        self.observer.connect()
        self.observer.subscribe(
            "swamp/#", handler=lambda t, p, q, r: self.reports.append((self.sim.now, t))
        )
        self.field = Field("f", 2, 2, LOAM, SOYBEAN, self.sim.rng.stream("field"))
        self.sweeper = SweepScheduler(self.sim, "farm")

    def add_probe(self, i, interval=600.0, batched=True, **config_kwargs):
        zone = list(self.field)[i % 4]
        probe = SoilMoistureProbe(
            self.sim, self.net,
            DeviceConfig(f"p{i}", "farm", "SoilProbe",
                         report_interval_s=interval, **config_kwargs),
            "broker", zone=zone,
        )
        self.net.connect(probe.client.address, "broker", lossless())
        if batched:
            probe.sweeper = self.sweeper
        probe.start()
        return probe

    def reports_of(self, device):
        suffix = f"attrs/{device.config.device_id}"
        return [r for r in self.reports if r[1].endswith(suffix)]


class TestSweepGroup:
    def test_devices_with_same_interval_share_a_group(self):
        h = Harness()
        p0, p1 = h.add_probe(0), h.add_probe(1)
        assert p0._sweep_group is p1._sweep_group
        assert len(p0._sweep_group) == 2
        assert p0._sweep_group is h.sweeper.group_for(600.0)

    def test_distinct_intervals_get_distinct_groups(self):
        h = Harness()
        p0 = h.add_probe(0, interval=600.0)
        p1 = h.add_probe(1, interval=1800.0)
        assert p0._sweep_group is not p1._sweep_group
        assert h.sweeper.group_for(600.0) is p0._sweep_group
        assert h.sweeper.total_enrolled() == 2

    def test_group_samples_every_enrolled_device_each_tick(self):
        h = Harness()
        probes = [h.add_probe(i) for i in range(3)]
        h.sim.run(until=3600.0)
        counts = [len(h.reports_of(p)) for p in probes]
        # One batch phase, then one report per device per interval.
        assert counts[0] == counts[1] == counts[2] >= 5

    def test_all_devices_in_a_group_report_at_the_same_tick(self):
        h = Harness()
        p0, p1 = h.add_probe(0), h.add_probe(1)
        h.sim.run(until=3600.0)
        # Both devices published the same number of reports — they ride
        # the same sweep event, not per-device timers.
        assert len(h.reports_of(p0)) == len(h.reports_of(p1)) > 0

    def test_failed_device_skips_but_stays_enrolled(self):
        h = Harness()
        probe = h.add_probe(0)
        probe.failed = True
        h.sim.run(until=1800.0)
        assert h.reports_of(probe) == []
        assert len(probe._sweep_group) == 1
        # Repair: reporting resumes on the next tick.
        probe.failed = False
        h.sim.run(until=3600.0)
        assert len(h.reports_of(probe)) >= 2

    def test_dead_device_dropped_from_group(self):
        h = Harness()
        # Tiny battery: dies after a couple of reports.
        probe = h.add_probe(0, battery_capacity_j=0.5)
        alive = h.add_probe(1)
        h.sim.run(until=7200.0)
        assert probe.dead
        assert len(probe._sweep_group) == 1  # only the healthy probe left
        assert len(h.reports_of(alive)) > len(h.reports_of(probe))

    def test_stop_removes_device_immediately(self):
        h = Harness()
        p0, p1 = h.add_probe(0), h.add_probe(1)
        h.sim.run(until=1200.0)
        seen = len(h.reports_of(p0))
        p0.stop()
        assert len(p1._sweep_group) == 1
        h.sim.run(until=4800.0)
        assert len(h.reports_of(p0)) == seen  # no reports after stop
        assert len(h.reports_of(p1)) > seen

    def test_empty_group_stops_ticking_and_restarts_on_enroll(self):
        h = Harness()
        p0 = h.add_probe(0)
        group = p0._sweep_group
        p0.stop()
        h.sim.run(until=1200.0)  # the in-flight tick fires on nothing
        assert not group._ticking
        p1 = h.add_probe(1)
        assert p1._sweep_group is group
        assert group._ticking
        h.sim.run(until=4800.0)
        assert len(h.reports_of(p1)) >= 4

    def test_remove_unknown_device_is_a_noop(self):
        h = Harness()
        p0 = h.add_probe(0)
        other = h.add_probe(1, interval=1800.0)
        assert p0._sweep_group.remove(other) is False
        assert len(p0._sweep_group) == 1

    def test_direct_constructed_device_keeps_legacy_loop(self):
        """Without a sweeper, a device samples on a one-member group
        phased like the per-device loop it replaced: one uniform draw
        from its own ``device:<id>`` stream at start()."""
        h = Harness()
        probe = h.add_probe(0, batched=False)
        assert len(probe._sweep_group) == 1
        assert h.sweeper.total_enrolled() == 0
        # The stream's draws: the probe's calibration gain at
        # construction, then the phase at start().
        stream = Simulator(seed=1).rng.stream("device:p0")
        stream.bounded_gauss(1.0, 0.02, 0.9, 1.1)
        phase = stream.uniform(0.0, 600.0)
        h.sim.run(until=phase - 1e-6)
        assert probe.sent_reports == 0
        h.sim.run(until=phase)
        assert probe.sent_reports == 1
        h.sim.run(until=3600.0)
        assert len(h.reports_of(probe)) >= 5


class TestDirectDevicesPinned:
    """Directly built devices keep their report times.

    Pinned at the last commit that sampled them with a per-device loop:
    the digest of every ``(arrival time, topic)`` the observer saw and
    each device's ``sent_reports``, on a rig with mixed intervals, an
    MTBF device, a battery death and a mid-run ``stop()``.  The kernel
    event count is not pinned: a stopped device's one-member group fires
    one no-op tick where the loop's pending timer was cancelled.
    """

    REPORTS_SHA256 = "58ee9884a50689fbc61abf523bab91691eaf8e92091df9e5bf47be168ef1adff"
    SENT_REPORTS = {"p0": 144, "p1": 96, "p2": 104, "p3": 8, "p4": 15}

    def test_reports_match_the_pinned_schedule(self):
        h = Harness(seed=23)
        probes = [
            h.add_probe(0, 600.0, batched=False),
            h.add_probe(1, 900.0, batched=False),
            h.add_probe(2, 600.0, batched=False, mtbf_s=3600.0, repair_time_s=1200.0),
            h.add_probe(3, 300.0, batched=False, battery_capacity_j=1.0),
            h.add_probe(4, 1200.0, batched=False),
        ]
        h.sim.run(until=5 * 3600.0)
        probes[4].stop()
        h.sim.run(until=24 * 3600.0)
        assert probes[3].dead
        sent = {p.config.device_id: p.sent_reports for p in probes}
        digest = hashlib.sha256(repr(h.reports).encode("utf-8")).hexdigest()
        assert sent == self.SENT_REPORTS
        assert digest == self.REPORTS_SHA256
