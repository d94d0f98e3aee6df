"""Tests for fog/cloud nodes and store-and-forward replication."""

import hashlib
import json

import pytest

from repro.context import ContextBroker, HistoryQuery
from repro.fog import CloudNode, FogNode, Replicator
from repro.fog.replication import CloudSyncTarget
from repro.network import Network, RadioModel, WAN_BACKHAUL
from repro.simkernel import Simulator
from repro.simkernel.clock import DAY, HOUR


def wan():
    return RadioModel("wan", latency_s=0.05, bandwidth_bps=8e6, loss_rate=0.0)


class ReplicationRig:
    def __init__(self, seed=1, **replicator_kwargs):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim)
        self.fog_context = ContextBroker(self.sim, "fog")
        self.cloud_context = ContextBroker(self.sim, "cloud")
        self.target = CloudSyncTarget(self.sim, self.net, "cloud:sync", self.cloud_context)
        self.replicator = Replicator(
            self.sim, self.net, "fog:sync", self.fog_context, "cloud:sync",
            sync_interval_s=10.0, **replicator_kwargs,
        )
        self.net.connect("fog:sync", "cloud:sync", wan())

    def update(self, entity_id, **attrs):
        self.fog_context.ensure_entity(entity_id, "T", attrs)


class TestReplication:
    def test_updates_reach_cloud(self):
        rig = ReplicationRig()
        rig.update("e1", soilMoisture=0.25)
        rig.sim.run(until=60.0)
        assert rig.cloud_context.get_entity("e1").get("soilMoisture") == 0.25
        assert rig.replicator.updates_synced >= 1

    def test_batching(self):
        rig = ReplicationRig(batch_size=10)
        for i in range(25):
            rig.update(f"e{i}", v=i)
        rig.sim.run(until=120.0)
        assert rig.cloud_context.entity_count() == 25
        # 25 updates in batches of <=10 -> at least 3 batches.
        assert rig.replicator.batches_acked >= 3

    def test_partition_queues_then_drains(self):
        rig = ReplicationRig()
        rig.net.partition("fog:sync", "cloud:sync")
        for i in range(20):
            rig.update(f"e{i}", v=i)
        rig.sim.run(until=120.0)
        assert rig.cloud_context.entity_count() == 0
        assert rig.replicator.backlog_depth >= 19
        rig.net.heal("fog:sync", "cloud:sync")
        rig.sim.run(until=400.0)
        assert rig.cloud_context.entity_count() == 20
        assert rig.replicator.updates_dropped_overflow == 0

    def test_overflow_drops_oldest_and_counts(self):
        rig = ReplicationRig(max_backlog=10)
        rig.net.partition("fog:sync", "cloud:sync")
        for i in range(30):
            rig.update(f"e{i}", v=i)
        rig.sim.run(until=60.0)
        assert rig.replicator.updates_dropped_overflow == 20
        rig.net.heal("fog:sync", "cloud:sync")
        rig.sim.run(until=400.0)
        # Only the newest 10 survive.
        assert rig.cloud_context.entity_count() == 10
        assert rig.cloud_context.has_entity("e29")
        assert not rig.cloud_context.has_entity("e0")

    def test_retransmission_on_lossy_wan(self):
        sim = Simulator(seed=3)
        net = Network(sim)
        fog_context = ContextBroker(sim, "fog")
        cloud_context = ContextBroker(sim, "cloud")
        CloudSyncTarget(sim, net, "cloud:sync", cloud_context)
        replicator = Replicator(
            sim, net, "fog:sync", fog_context, "cloud:sync",
            sync_interval_s=5.0, retry_timeout_s=5.0,
        )
        net.connect("fog:sync", "cloud:sync", RadioModel("wan", 0.05, 8e6, 0.35))
        for i in range(10):
            fog_context.ensure_entity(f"e{i}", "T", {"v": i})
        sim.run(until=600.0)
        assert cloud_context.entity_count() == 10
        assert replicator.batches_sent > replicator.batches_acked  # retries happened

    def test_duplicate_batches_idempotent(self):
        """If an ack is lost the batch is retransmitted; the cloud must not
        double-apply (checked via the duplicate counter)."""
        sim = Simulator(seed=7)
        net = Network(sim)
        fog_context = ContextBroker(sim, "fog")
        cloud_context = ContextBroker(sim, "cloud")
        target = CloudSyncTarget(sim, net, "cloud:sync", cloud_context)
        Replicator(sim, net, "fog:sync", fog_context, "cloud:sync",
                   sync_interval_s=5.0, retry_timeout_s=5.0)
        # Lossy only on the ack direction.
        net.connect("fog:sync", "cloud:sync", RadioModel("wan", 0.05, 8e6, 0.0),
                    bidirectional=False)
        net._make_link("cloud:sync", "fog:sync", RadioModel("wan", 0.05, 8e6, 0.6), 2.0)
        for i in range(5):
            fog_context.ensure_entity(f"e{i}", "T", {"v": i})
        sim.run(until=600.0)
        assert cloud_context.entity_count() == 5
        assert target.batches_duplicate > 0

    def test_fast_drain_after_ack(self):
        """Backlog drains batch-after-batch on ack, not one per interval."""
        rig = ReplicationRig(batch_size=5)
        for i in range(50):
            rig.update(f"e{i}", v=i)
        # 10 batches; with interval 10s a per-interval pump would need 100s.
        rig.sim.run(until=25.0)
        assert rig.cloud_context.entity_count() == 50

    def test_captures_go_out_on_the_grid_tick_a_polling_pump_gives_them(self):
        """The pump's grid is the anchor plus whole intervals (10 s here).
        A capture at the anchor waits for the 10 s tick; one at exactly a
        later grid point, queued before that tick, goes out on it; one
        just after a grid point waits for the next."""
        rig = ReplicationRig()
        sent_at = []
        transmit = rig.replicator._transmit

        def recording(batch):
            sent_at.append(rig.sim.now)
            transmit(batch)

        rig.replicator._transmit = recording
        rig.update("at-anchor", v=1)
        rig.sim.schedule_at(40.0, lambda: rig.update("on-grid", v=2))
        rig.sim.schedule_at(70.5, lambda: rig.update("off-grid", v=3))
        rig.sim.run(until=200.0)
        assert sent_at == [10.0, 40.0, 80.0]
        assert rig.cloud_context.entity_count() == 3

    def test_lost_ack_retransmit_is_counted_duplicate(self):
        """Deterministic ack-loss path: drop exactly the first _SyncAck.
        The fog retransmits the batch after retry_timeout_s, the cloud
        recognizes the replayed sequence number, counts a duplicate and
        re-acks without double-applying."""
        from repro.fog.replication import _SyncAck

        rig = ReplicationRig(retry_timeout_s=15.0)
        dropped = []

        def drop_first_ack(packet, hop_src, hop_dst):
            if isinstance(packet.payload, _SyncAck) and not dropped:
                dropped.append(packet.payload.seq)
                return False
            return True

        rig.net.add_firewall(drop_first_ack)
        rig.update("e1", v=1)
        rig.sim.run(until=120.0)
        assert dropped == [1]
        assert rig.target.batches_duplicate == 1
        assert rig.target.batches_applied == 1  # applied exactly once
        assert rig.replicator.batches_acked == 1
        assert rig.replicator.backlog_depth == 0
        assert rig.cloud_context.get_entity("e1").get("v") == 1

    def test_ack_at_exactly_retry_timeout_wins_over_retransmit(self):
        """The retry-expiry boundary is inclusive: a pump tick landing at
        *exactly* ``retry_timeout_s`` after transmission, with the ACK
        arriving at the same instant, must not retransmit.  A strict ``<``
        here double-sent the batch (a duplicate on the wire, an extra WAN
        round-trip and a spurious breaker failure) whenever the pump
        cadence divided the timeout."""
        from repro.fog.replication import _SyncAck
        from repro.network.packet import Packet

        rig = ReplicationRig(retry_timeout_s=5.0)
        # Swallow the cloud's real ACK so we control the delivery instant.
        rig.net.add_firewall(
            lambda packet, hop_src, hop_dst: not isinstance(packet.payload, _SyncAck)
        )
        rig.update("e1", v=1)
        rig.sim.run(until=10.0)  # first pump: batch 1 in flight since t=10
        assert rig.replicator.batches_sent == 1
        assert rig.replicator._in_flight is not None

        def pump_then_ack():
            # Worst-case ordering at t = 15.0 == in-flight + retry_timeout:
            # the pump fires *first*, then the ACK lands.  The inclusive
            # boundary means the pump must treat the batch as still live.
            rig.replicator.flush_now()
            rig.replicator._on_packet(Packet(
                src="cloud:sync", dst="fog:sync",
                payload=_SyncAck(seq=1, source=rig.replicator.node.address),
                size_bytes=16, created_at=rig.sim.now,
            ))

        rig.sim.schedule(5.0, pump_then_ack)
        rig.sim.run(until=30.0)
        assert rig.replicator.batches_sent == 1  # no double-send
        assert rig.replicator.batches_acked == 1
        assert rig.replicator._in_flight is None
        assert rig.replicator.backlog_depth == 0

    def test_gap_after_lost_batches_accepts_and_advances(self):
        """Deterministic gap path: when whole batches are lost on the fog
        side (the overflow/log-truncation scenario the protocol anticipates)
        the cloud sees seq jump past last+1.  It must accept the batch,
        advance its per-source cursor and ack — a cursor that waited for
        the missing seq would deadlock the stream forever."""
        rig = ReplicationRig()
        rig.update("first", v=1)
        rig.sim.run(until=30.0)
        source = rig.replicator.node.address
        assert rig.target._applied_seq[source] == 1
        # Model batches 2-4 lost wholesale before transmission.
        rig.replicator._next_seq = 5
        rig.update("late", v=2)
        rig.sim.run(until=60.0)
        assert rig.target._applied_seq[source] == 5  # advanced past the gap
        assert rig.target.batches_applied == 2
        assert rig.target.batches_duplicate == 0
        assert rig.cloud_context.has_entity("late")
        assert rig.replicator.backlog_depth == 0  # the gap batch was acked


class TestReplicatorCrashRestart:
    def test_crash_keeps_backlog_and_restart_drains_it(self):
        rig = ReplicationRig()
        rig.update("before", v=1)
        rig.sim.run(until=30.0)
        assert rig.cloud_context.has_entity("before")
        rig.replicator.crash()
        assert not rig.replicator.running
        # Captures continue into the durable backlog while the daemon is down.
        for i in range(8):
            rig.update(f"down{i}", v=i)
        rig.sim.run(until=120.0)
        assert not rig.cloud_context.has_entity("down0")
        assert rig.replicator.backlog_depth == 8
        rig.replicator.restart()
        assert rig.replicator.running
        rig.sim.run(until=240.0)
        assert rig.cloud_context.entity_count() == 9
        assert rig.replicator.backlog_depth == 0

    def test_restart_retransmits_the_in_flight_batch(self):
        """A batch stuck in flight across a crash must go out again via the
        retry path once the loop is re-armed."""
        rig = ReplicationRig(retry_timeout_s=15.0)
        rig.net.partition("fog:sync", "cloud:sync")
        rig.update("e1", v=1)
        rig.sim.run(until=11.0)  # pumped once: batch 1 in flight, unacked
        assert rig.replicator.backlog_depth == 1
        rig.replicator.crash()
        rig.net.heal("fog:sync", "cloud:sync")
        rig.sim.run(until=60.0)
        assert not rig.cloud_context.has_entity("e1")  # daemon still down
        rig.replicator.restart()
        rig.sim.run(until=200.0)
        assert rig.cloud_context.has_entity("e1")
        assert rig.replicator.backlog_depth == 0

    def test_crashed_replicator_stops_draining(self):
        """A crash right after the first of three batches is sent: the
        dead daemon ignores that batch's ack and sends nothing more, even
        when flushed.  After the restart the retained batch goes out
        again (the cloud counts one duplicate) and the backlog drains."""
        rig = ReplicationRig(batch_size=5)
        for i in range(15):
            rig.update(f"e{i}", v=i)
        rig.sim.run(until=10.0)  # the 10 s tick sends batch 1
        assert rig.replicator.batches_sent == 1
        rig.replicator.crash()
        rig.sim.run(until=60.0)
        rig.replicator.flush_now()
        rig.sim.run(until=100.0)
        assert rig.replicator.batches_sent == 1
        assert rig.replicator.batches_acked == 0
        assert rig.replicator.updates_synced == 0
        assert rig.target.batches_applied == 1  # the cloud got batch 1
        assert rig.replicator.backlog_depth == 15
        rig.replicator.restart()
        rig.sim.run(until=200.0)
        assert rig.replicator.updates_synced == 15
        assert rig.replicator.backlog_depth == 0
        assert rig.cloud_context.entity_count() == 15
        assert rig.target.batches_duplicate == 1

    def test_crash_and_restart_are_idempotent(self):
        rig = ReplicationRig()
        rig.update("e1", v=1)  # a backlog, so a restart arms the pump
        rig.replicator.crash()
        rig.replicator.crash()  # second kill is a no-op
        rig.replicator.restart()
        first = rig.replicator._timer.event
        queued = len(rig.sim.queue)
        rig.replicator.restart()  # already running: no second timer
        assert rig.replicator._timer.event is first is not None
        assert len(rig.sim.queue) == queued


class TestNodes:
    def test_fog_node_composition(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        fog = FogNode(sim, net, "fog1", "farmA")
        fog.start()
        assert fog.mqtt_address == "fog1:mqtt"
        assert fog.context.name == "fog1:context"
        assert fog.agent.farm == "farmA"

    def test_cloud_node_optional_mqtt(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        plain = CloudNode(sim, net, "cloud1")
        assert plain.mqtt is None
        with_mqtt = CloudNode(sim, net, "cloud2", with_mqtt=True)
        assert with_mqtt.mqtt is not None

    def test_end_to_end_fog_pipeline(self):
        """Device -> fog MQTT -> fog IoT agent -> fog context -> cloud."""
        from repro.agents import DeviceProvision
        from repro.devices import DeviceConfig, SoilMoistureProbe
        from repro.physics import Field, LOAM, SOYBEAN

        sim = Simulator(seed=2)
        net = Network(sim)
        fog = FogNode(sim, net, "fog1", "farmA")
        cloud = CloudNode(sim, net, "cloud")
        net.connect("fog1:iota", "fog1:mqtt", wan())
        fog.start()
        CloudSyncTarget(sim, net, "cloud:sync", cloud.context)
        Replicator(sim, net, "fog1:sync", fog.context, "cloud:sync", sync_interval_s=10.0)
        net.connect("fog1:sync", "cloud:sync", wan())
        field = Field("f", 1, 1, LOAM, SOYBEAN, sim.rng.stream("field"))
        probe = SoilMoistureProbe(
            sim, net, DeviceConfig("p1", "farmA", "SoilProbe", report_interval_s=300),
            "fog1:mqtt", zone=field.zone(0, 0),
        )
        net.connect(probe.client.address, "fog1:mqtt", wan())
        fog.agent.provision(DeviceProvision("p1", "", "urn:soil:p1", "SoilProbe"))
        probe.start()
        sim.run(until=1800.0)
        assert fog.context.get_entity("urn:soil:p1").get("soilMoisture") is not None
        assert cloud.context.get_entity("urn:soil:p1").get("soilMoisture") is not None
        # History captured on the fog tier.
        assert len(fog.history.read(
            HistoryQuery("urn:soil:p1", "soilMoisture")).rows) >= 3


def _record_transmissions(replicator, sim):
    """Log ``(sim time, seq, update count)`` for every SyncBatch sent."""
    log = []
    transmit = replicator._transmit

    def recording(batch):
        log.append((sim.now, batch.seq, len(batch.updates)))
        transmit(batch)

    replicator._transmit = recording
    return log


def _log_digest(log):
    return hashlib.sha256(json.dumps(log).encode("utf-8")).hexdigest()


class TestSyncTransmissionLog:
    """Pinned send logs: when each batch went out, which one, how full.

    ``PilotReport`` carries no sync counts, so a pump that sends a batch
    one tick late, or merges two batches, leaves every report digest
    equal.  These pins see it.
    """

    def test_secured_matopiba_season(self):
        from repro.core.pilots import build_matopiba_pilot
        from repro.core.security_profile import SecurityConfig

        runner = build_matopiba_pilot(
            seed=42, security=SecurityConfig(auth=True, encryption=True))
        log = _record_transmissions(runner.replicator, runner.sim)
        runner.run_until(10 * DAY)
        assert len(log) == 874
        assert _log_digest(log) == (
            "e099e16eecc62a730b734c273332735bd0aabe26be85dc9fcbcbbeda48b46315"
        )

    def test_fog_pilot_through_a_wan_partition(self):
        from repro.core.pilot import PilotConfig, PilotRunner
        from repro.faults import FaultPlan
        from tests.test_pilot_pinned import BASE

        plan = FaultPlan("wan-outage").add(
            "link_partition", "wan", at_s=1 * DAY, duration_s=6 * HOUR)
        runner = PilotRunner(PilotConfig(**dict(BASE, season_days=3), fault_plan=plan))
        log = _record_transmissions(runner.replicator, runner.sim)
        runner.run_season()
        seqs = [seq for _, seq, _ in log]
        # The outage forced retransmissions, and the healed link drained
        # the backlog.
        assert len(seqs) > len(set(seqs))
        assert runner.replicator.backlog_depth == 0
        assert len(log) == 580
        assert _log_digest(log) == (
            "cfb1b24b91cca705a497bf1c0bd944a1303fe685b11a6b8764bdb6cf851bbc5c"
        )
