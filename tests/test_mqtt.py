"""Integration tests for the MQTT broker and client over the network substrate."""

import pytest

from repro.mqtt import Connect, ConnectReturnCode, MqttBroker, MqttClient
from repro.network import Network, RadioModel
from repro.network.link import LinkState
from repro.simkernel import Simulator


def lossless(latency=0.005):
    return RadioModel("test", latency_s=latency, bandwidth_bps=10e6, loss_rate=0.0)


def lossy(rate, latency=0.005):
    return RadioModel("lossy", latency_s=latency, bandwidth_bps=10e6, loss_rate=rate)


def build(sim, n_clients=2, model=None, **client_kwargs):
    net = Network(sim)
    broker = MqttBroker(sim, "broker")
    net.add_node(broker)
    clients = []
    for i in range(n_clients):
        c = MqttClient(sim, f"c{i}", "broker", **client_kwargs)
        net.add_node(c)
        net.connect(f"c{i}", "broker", model or lossless())
        clients.append(c)
    return net, broker, clients


class TestConnect:
    def test_connect_handshake(self):
        sim = Simulator(seed=1)
        net, broker, (c,) = build(sim, 1)
        c.connect()
        sim.run(until=1.0)
        assert c.connected
        assert broker.connected_clients() == ["c0"]

    def test_on_connect_callback(self):
        sim = Simulator(seed=1)
        net, broker, (c,) = build(sim, 1)
        results = []
        c.on_connect = results.append
        c.connect()
        sim.run(until=1.0)
        assert results == [True]

    def test_empty_client_id_rejected(self):
        sim = Simulator(seed=1)
        net, broker, (c,) = build(sim, 1)
        c.client_id = ""
        c.auto_reconnect = False
        c.connect()
        sim.run(until=1.0)
        assert not c.connected
        assert broker.stats.rejected_connects == 1

    def test_authenticator_rejects(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        broker = MqttBroker(
            sim,
            "broker",
            authenticator=lambda c: (
                ConnectReturnCode.ACCEPTED if c.password == "secret" else ConnectReturnCode.BAD_CREDENTIALS
            ),
        )
        net.add_node(broker)
        good = MqttClient(sim, "good", "broker", password="secret")
        bad = MqttClient(sim, "bad", "broker", password="wrong", auto_reconnect=False)
        for c in (good, bad):
            net.add_node(c)
            net.connect(c.address, "broker", lossless())
            c.connect()
        sim.run(until=1.0)
        assert good.connected
        assert not bad.connected

    def test_session_takeover(self):
        sim = Simulator(seed=1)
        net, broker, clients = build(sim, 2)
        a, b = clients
        b.client_id = a.client_id = "same-id"
        a.connect()
        sim.run(until=0.5)
        b.connect()
        sim.run(until=1.0)
        session = broker.sessions["same-id"]
        assert session.address == "c1"

    def test_reconnect_after_timeout(self):
        sim = Simulator(seed=1)
        net, broker, (c,) = build(sim, 1)
        net.partition("c0", "broker")
        c.connect()
        sim.run(until=5.0)
        assert not c.connected
        net.heal("c0", "broker")
        sim.run(until=30.0)
        assert c.connected  # auto-reconnect with backoff found the healed link


class TestPubSub:
    def test_qos0_roundtrip(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim, 2)
        got = []
        pub.connect()
        sub.connect()
        sim.run(until=0.5)
        sub.subscribe("farm/soil/#", qos=0, handler=lambda t, p, q, r: got.append((t, p)))
        sim.run(until=1.0)
        pub.publish("farm/soil/p1", b"0.23")
        sim.run(until=2.0)
        assert got == [("farm/soil/p1", b"0.23")]

    def test_no_delivery_without_subscription(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim, 2)
        got = []
        pub.connect()
        sub.connect()
        sim.run(until=0.5)
        sub.subscribe("other/#", handler=lambda t, p, q, r: got.append(p))
        sim.run(until=1.0)
        pub.publish("farm/soil/p1", b"x")
        sim.run(until=2.0)
        assert got == []

    def test_multiple_subscribers_fanout(self):
        sim = Simulator(seed=1)
        net, broker, clients = build(sim, 4)
        got = {c.address: [] for c in clients[1:]}
        for c in clients:
            c.connect()
        sim.run(until=0.5)
        for c in clients[1:]:
            c.subscribe("t/#", handler=lambda t, p, q, r, addr=c.address: got[addr].append(p))
        sim.run(until=1.0)
        clients[0].publish("t/x", b"v")
        sim.run(until=2.0)
        assert all(v == [b"v"] for v in got.values())

    def test_qos1_delivery_on_lossy_link(self):
        sim = Simulator(seed=11)
        net, broker, (pub, sub) = build(sim, 2, model=lossy(0.3))
        got = []
        pub.outbox.retry_interval_s = 0.5
        pub.outbox.max_retries = 30
        sub.subscribe_retry_s = 1.0
        pub.connect()
        sub.connect()
        while not (pub.connected and sub.connected):
            sim.run(until=sim.now + 5.0)
        sub.subscribe("t", qos=1, handler=lambda t, p, q, r: got.append(p))
        sim.run(until=sim.now + 10.0)
        broker.sessions["c1"].outbox.max_retries = 30
        broker.sessions["c1"].outbox.retry_interval_s = 0.5
        for i in range(20):
            while not pub.publish("t", bytes([i]), qos=1):
                sim.run(until=sim.now + 2.0)
            sim.run(until=sim.now + 1.0)
        sim.run(until=sim.now + 120.0)
        # At-least-once: nothing missing (duplicates possible).
        assert set(got) == {bytes([i]) for i in range(20)}

    def test_qos2_exactly_once_on_lossy_link(self):
        sim = Simulator(seed=5)
        net, broker, (pub, sub) = build(sim, 2, model=lossy(0.3))
        got = []
        pub.outbox.retry_interval_s = 0.5
        pub.outbox.max_retries = 30
        sub.subscribe_retry_s = 1.0
        pub.connect()
        sub.connect()
        while not (pub.connected and sub.connected):
            sim.run(until=sim.now + 5.0)
        sub.subscribe("t", qos=2, handler=lambda t, p, q, r: got.append(p))
        sim.run(until=sim.now + 10.0)
        broker.sessions["c1"].outbox.max_retries = 30
        broker.sessions["c1"].outbox.retry_interval_s = 0.5
        for i in range(10):
            while not pub.publish("t", bytes([i]), qos=2):
                sim.run(until=sim.now + 2.0)
            sim.run(until=sim.now + 2.0)
        sim.run(until=sim.now + 300.0)
        # Exactly once end-to-end: no duplicates, nothing missing.
        assert sorted(got) == [bytes([i]) for i in range(10)]

    def test_publish_while_disconnected_returns_false(self):
        sim = Simulator(seed=1)
        net, broker, (c,) = build(sim, 1)
        assert c.publish("t", b"x") is False

    def test_qos_downgrade_to_subscription(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim, 2)
        got = []
        pub.connect()
        sub.connect()
        sim.run(until=0.5)
        sub.subscribe("t", qos=0, handler=lambda t, p, q, r: got.append(q))
        sim.run(until=1.0)
        pub.publish("t", b"x", qos=2)
        sim.run(until=5.0)
        assert got == [0]  # delivered at min(sub_qos, pub_qos)


class TestRetained:
    def test_retained_delivered_on_subscribe(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim, 2)
        got = []
        pub.connect()
        sim.run(until=0.5)
        pub.publish("cfg/pivot", b"speed=3", retain=True)
        sim.run(until=1.0)
        sub.connect()
        sim.run(until=1.5)
        sub.subscribe("cfg/#", handler=lambda t, p, q, r: got.append((t, p, r)))
        sim.run(until=2.0)
        assert got == [("cfg/pivot", b"speed=3", True)]

    def test_retained_overwritten(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim, 2)
        got = []
        pub.connect()
        sim.run(until=0.5)
        pub.publish("cfg", b"v1", retain=True)
        pub.publish("cfg", b"v2", retain=True)
        sim.run(until=1.0)
        sub.connect()
        sim.run(until=1.5)
        sub.subscribe("cfg", handler=lambda t, p, q, r: got.append(p))
        sim.run(until=2.0)
        assert got == [b"v2"]

    def test_retained_cleared_by_empty_payload(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim, 2)
        got = []
        pub.connect()
        sim.run(until=0.5)
        pub.publish("cfg", b"v1", retain=True)
        pub.publish("cfg", b"", retain=True)
        sim.run(until=1.0)
        sub.connect()
        sim.run(until=1.5)
        sub.subscribe("cfg", handler=lambda t, p, q, r: got.append(p))
        sim.run(until=2.0)
        assert got == []


class TestKeepaliveAndWill:
    def test_will_published_on_session_expiry(self):
        sim = Simulator(seed=1)
        net, broker, clients = build(
            sim, 2, keepalive_s=5.0,
        )
        dead, watcher = clients
        dead.will = ("status/dead", b"offline", 0, False)
        got = []
        dead.connect()
        watcher.connect()
        sim.run(until=0.5)
        watcher.subscribe("status/#", handler=lambda t, p, q, r: got.append((t, p)))
        sim.run(until=1.0)
        # Sever the dead client's link; its pings stop reaching the broker.
        net.partition("c0", "broker")
        sim.run(until=60.0)
        assert ("status/dead", b"offline") in got
        assert broker.stats.session_expirations >= 1

    def test_clean_disconnect_suppresses_will(self):
        sim = Simulator(seed=1)
        net, broker, clients = build(sim, 2, keepalive_s=5.0)
        leaver, watcher = clients
        leaver.will = ("status/leaver", b"offline", 0, False)
        got = []
        leaver.connect()
        watcher.connect()
        sim.run(until=0.5)
        watcher.subscribe("status/#", handler=lambda t, p, q, r: got.append(p))
        sim.run(until=1.0)
        leaver.disconnect()
        sim.run(until=60.0)
        assert got == []

    def test_silent_clients_expire_on_the_pinned_tick_in_session_order(self):
        """Two clients fall silent and lapse inside one 10 s sweep window.

        ``slow`` (keepalive 20 s, last heard at ~1.0 s) lapses at ~31.0 s
        and ``fast`` (keepalive 10 s, last ping at ~16.5 s) at ~31.5 s,
        so both expire on the 40 s tick.  Their wills go out in session
        order (``fast`` connected first), not in deadline order.  The
        watcher's 60 s keepalive is the first deadline the broker learns.
        """
        sim = Simulator(seed=1)
        net = Network(sim)
        broker = MqttBroker(sim, "broker")
        net.add_node(broker)

        def client(client_id, keepalive_s):
            c = MqttClient(sim, client_id, "broker", keepalive_s=keepalive_s)
            net.add_node(c)
            net.connect(client_id, "broker", lossless())
            return c

        watcher, fast, slow = client("watcher", 60.0), client("fast", 10.0), client("slow", 20.0)
        fast.will = ("status/fast", b"offline", 0, False)
        slow.will = ("status/slow", b"offline", 0, False)
        wills = []
        watcher.connect()
        sim.run(until=0.5)
        watcher.subscribe("status/#", handler=lambda t, p, q, r: wills.append(t))
        fast.connect()
        sim.run(until=1.0)
        slow.connect()
        sim.run(until=2.0)
        net.partition("slow", "broker")
        sim.run(until=17.0)
        net.partition("fast", "broker")
        sim.run(until=120.0)
        expired = [(r.time, r.data["client"]) for r in sim.trace.select("mqtt")
                   if r.message == "session expired"]
        assert expired == [(40.0, "fast"), (40.0, "slow")]
        assert wills == ["status/fast", "status/slow"]
        assert list(broker.sessions) == ["watcher"]

    def test_sweep_is_queued_only_while_a_session_can_lapse(self):
        sim = Simulator(seed=1)
        net, broker, (c,) = build(sim, 1, keepalive_s=5.0)

        def sweeps_queued():
            return [entry for entry in sim.queue.signature() if entry[3] == "broker:sweep"]

        assert sweeps_queued() == [] and broker.sweep_armed()
        sim.run(until=30.0)
        assert sweeps_queued() == []  # no session, no sweep
        c.connect()
        sim.run(until=30.1)
        # The CONNECT arms the grid point at or after its 7.5 s deadline.
        assert [entry[0] for entry in sweeps_queued()] == [40.0]
        assert broker.sweep_armed()
        broker.restart()
        assert sweeps_queued() == [] and broker.sweep_armed()

    def test_pings_keep_session_alive(self):
        sim = Simulator(seed=1)
        net, broker, (c,) = build(sim, 1, keepalive_s=5.0)
        c.connect()
        sim.run(until=120.0)
        assert c.connected
        assert broker.stats.session_expirations == 0
        assert c.stats.pings > 10


class TestPersistentSession:
    def test_offline_queue_flushed_on_resume(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim, 2, clean_session=False, keepalive_s=0)
        got = []
        pub.connect()
        sub.connect()
        sim.run(until=0.5)
        sub.subscribe("t", qos=1, handler=lambda t, p, q, r: got.append(p))
        sim.run(until=1.0)
        sub.disconnect()
        # Mark the broker session as still present but disconnected.
        sim.run(until=2.0)
        pub.publish("t", b"while-away", qos=1)
        sim.run(until=3.0)
        assert got == []
        sub.connect()
        sim.run(until=10.0)
        assert got == [b"while-away"]

    def test_qos0_not_queued_offline(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim, 2, clean_session=False, keepalive_s=0)
        got = []
        pub.connect()
        sub.connect()
        sim.run(until=0.5)
        sub.subscribe("t", qos=1, handler=lambda t, p, q, r: got.append(p))
        sim.run(until=1.0)
        sub.disconnect()
        sim.run(until=2.0)
        pub.publish("t", b"qos0-lost", qos=0)
        sim.run(until=3.0)
        sub.connect()
        sim.run(until=10.0)
        assert got == []


class TestAuthorization:
    def make_acl_broker(self, sim):
        def authorizer(session, action, topic):
            # Clients may only touch topics under their own farm prefix.
            farm = session.username or ""
            return topic.startswith(f"{farm}/")

        net = Network(sim)
        broker = MqttBroker(sim, "broker", authorizer=authorizer)
        net.add_node(broker)
        return net, broker

    def test_cross_farm_publish_denied(self):
        sim = Simulator(seed=1)
        net, broker = self.make_acl_broker(sim)
        attacker = MqttClient(sim, "atk", "broker", username="farmB")
        victim = MqttClient(sim, "vic", "broker", username="farmA")
        for c in (attacker, victim):
            net.add_node(c)
            net.connect(c.address, "broker", lossless())
            c.connect()
        sim.run(until=0.5)
        got = []
        victim.subscribe("farmA/commands", handler=lambda t, p, q, r: got.append(p))
        sim.run(until=1.0)
        attacker.publish("farmA/commands", b"open-valve")
        victim.publish("farmA/commands", b"legit")
        sim.run(until=2.0)
        assert got == [b"legit"]
        assert broker.stats.denied_publish == 1

    def test_cross_farm_subscribe_denied(self):
        sim = Simulator(seed=1)
        net, broker = self.make_acl_broker(sim)
        spy = MqttClient(sim, "spy", "broker", username="farmB")
        farmer = MqttClient(sim, "farmer", "broker", username="farmA")
        for c in (spy, farmer):
            net.add_node(c)
            net.connect(c.address, "broker", lossless())
            c.connect()
        sim.run(until=0.5)
        leaked = []
        spy.subscribe("farmA/yield", handler=lambda t, p, q, r: leaked.append(p))
        sim.run(until=1.0)
        farmer.publish("farmA/yield", b"4.2t/ha")
        sim.run(until=2.0)
        assert leaked == []
        assert broker.stats.denied_subscribe == 1
        assert "farmA/yield" not in spy.granted


class TestBrokerRestart:
    def test_restart_drops_sessions_and_counts_abandoned_flights(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim)
        got = []
        pub.connect()
        sub.connect()
        sub.subscribe("t/#", qos=1, handler=lambda *a: got.append(a))
        sim.run(until=2.0)
        # Partition the subscriber so a QoS 1 flight to it stays unacked.
        net.partition("c1", "broker")
        pub.publish("t/x", b"hello", qos=1)
        sim.run(until=3.0)
        session = broker.sessions["c1"]
        assert session.outbox.in_flight_count == 1
        broker.restart()
        assert broker.stats.restarts == 1
        assert broker.sessions == {}
        assert broker.connected_clients() == []
        # The abandoned flight landed in the outbox's expired count.
        assert session.outbox.expired == 1

    def test_restart_preserves_retained_messages(self):
        sim = Simulator(seed=1)
        net, broker, (pub, sub) = build(sim)
        pub.connect()
        sim.run(until=1.0)
        pub.publish("t/state", b"42", retain=True)
        sim.run(until=2.0)
        broker.restart()
        got = []
        sub.connect()
        sub.subscribe("t/#", handler=lambda t, p, q, r: got.append(p))
        sim.run(until=4.0)
        assert got == [b"42"]

    def test_client_learns_of_restart_from_disconnect_and_reconnects(self):
        """The broker answers packets from unknown peers with a DISCONNECT
        (the TCP RST of the model); the client must tear down, back off and
        re-establish its session — including its subscriptions."""
        sim = Simulator(seed=1)
        net, broker, (c, other) = build(sim)
        got = []
        c.connect()
        c.subscribe("t/#", handler=lambda t, p, q, r: got.append(p))
        sim.run(until=2.0)
        assert c.connected
        broker.restart()
        # The client's next keepalive ping hits an unknown-peer DISCONNECT.
        c._ping()
        sim.run(until=120.0)
        assert c.connected
        assert c.stats.connects == 2
        assert broker.connected_clients() == ["c0"]
        # Subscriptions were re-established on the fresh session.
        other.connect()
        sim.run(until=125.0)
        other.publish("t/y", b"post-restart")
        sim.run(until=130.0)
        assert got == [b"post-restart"]


class TestReconnectBackoff:
    def test_backoff_grows_and_is_jittered(self):
        sim = Simulator(seed=1)
        net, broker, (c,) = build(sim, 1)
        delays = []
        original_schedule = sim.schedule

        def spy(delay, callback, args=(), **kwargs):
            if kwargs.get("label") == "c0:reconnect":
                delays.append(delay)
            return original_schedule(delay, callback, args, **kwargs)

        sim.schedule = spy
        net.partition("c0", "broker")  # every CONNECT times out
        c.connect()
        sim.run(until=300.0)
        assert len(delays) >= 4
        # Base doubles 1 → 2 → 4 → 8...; jitter adds up to +25% on top.
        for i, delay in enumerate(delays):
            base = min(2.0 ** i, c.reconnect_backoff_max_s)
            assert base <= delay <= base * 1.25
        # Jitter actually engaged (a plain doubling would sit on the base).
        assert any(delay > min(2.0 ** i, 60.0) for i, delay in enumerate(delays))

    def test_backoff_caps_at_maximum(self):
        sim = Simulator(seed=2)
        net, broker, (c,) = build(sim, 1)
        net.partition("c0", "broker")
        c.connect()
        sim.run(until=1200.0)
        assert c._reconnect_backoff_s <= c.reconnect_backoff_max_s

    def test_backoff_resets_after_successful_connect(self):
        sim = Simulator(seed=3)
        net, broker, (c,) = build(sim, 1)
        net.partition("c0", "broker")
        c.connect()
        sim.run(until=100.0)
        assert c._reconnect_backoff_s > c.reconnect_backoff_initial_s
        net.heal("c0", "broker")
        sim.run(until=300.0)
        assert c.connected
        assert c._reconnect_backoff_s == c.reconnect_backoff_initial_s

    def test_two_clients_draw_independent_jitter(self):
        """Backoff jitter comes from per-client streams: a shared outage
        must not produce lockstep reconnect storms."""
        sim = Simulator(seed=4)
        net, broker, clients = build(sim)
        delays = {"c0": [], "c1": []}
        original_schedule = sim.schedule

        def spy(delay, callback, args=(), **kwargs):
            label = kwargs.get("label", "")
            if label.endswith(":reconnect"):
                delays[label.split(":")[0]].append(delay)
            return original_schedule(delay, callback, args, **kwargs)

        sim.schedule = spy
        net.partition("c0", "broker")
        net.partition("c1", "broker")
        for c in clients:
            c.connect()
        sim.run(until=200.0)
        assert delays["c0"] and delays["c1"]
        assert delays["c0"] != delays["c1"]

    def test_delay_sequence_restarts_from_initial_after_connack(self):
        """Pin the escalation across two outages: the CONNACK between them
        resets the whole sequence (1, 2, 4, ... twice over), it does not
        resume where the first outage left off (..., 8, 16)."""
        sim = Simulator(seed=5)
        net, broker, (c,) = build(sim, 1)
        delays = []
        original_schedule = sim.schedule

        def spy(delay, callback, args=(), **kwargs):
            if kwargs.get("label") == "c0:reconnect":
                delays.append(delay)
            return original_schedule(delay, callback, args, **kwargs)

        sim.schedule = spy
        net.partition("c0", "broker")
        c.connect()
        sim.run(until=60.0)  # CONNECT timeouts are 10 s: ~3 retries escalate
        assert len(delays) >= 2
        net.heal("c0", "broker")
        sim.run(until=120.0)
        assert c.connected
        # Everything scheduled before the session came back (including the
        # in-flight retry that straddled the heal) belongs to chain #1.
        first_outage = len(delays)
        net.partition("c0", "broker")
        sim.run(until=300.0)
        second = delays[first_outage:]
        assert len(second) >= 2
        # Both sequences follow base-2^i × jitter from delay #0 again.
        for sequence in (delays[:first_outage], second):
            for i, delay in enumerate(sequence):
                base = min(2.0 ** i, c.reconnect_backoff_max_s)
                assert base <= delay <= base * 1.25, (sequence, i)

    def test_concurrent_triggers_do_not_fork_reconnect_chains(self):
        """A CONNACK timeout racing a broker Disconnect must leave exactly
        one pending reconnect chain — duplicates double-escalate the
        backoff and double the CONNECT load on a struggling broker."""
        sim = Simulator(seed=6)
        net, broker, (c,) = build(sim, 1)
        fired = []
        original_schedule = sim.schedule

        def spy(delay, callback, args=(), **kwargs):
            if kwargs.get("label") == "c0:reconnect":
                fired.append((sim.now, delay))
            return original_schedule(delay, callback, args, **kwargs)

        sim.schedule = spy
        net.partition("c0", "broker")
        c.connect()
        sim.run(until=5.0)
        # Simulate the race: a second failure signal lands while the first
        # retry is already pending.
        c._schedule_reconnect()
        c._schedule_reconnect()
        sim.run(until=100.0)
        # Never two live timers: consecutive schedules are spaced by at
        # least the earlier delay (a forked chain would interleave).
        for (t0, d0), (t1, _) in zip(fired, fired[1:]):
            assert t1 >= t0 + d0
        # And the escalation stayed single-chain (2^i, not 4^i).
        for i, (_, delay) in enumerate(fired):
            base = min(2.0 ** i, c.reconnect_backoff_max_s)
            assert base <= delay <= base * 1.25


class TestWireSizes:
    def test_publish_size_scales_with_payload(self):
        from repro.mqtt.packets import Publish

        small = Publish(topic="t", payload=b"x")
        large = Publish(topic="t", payload=b"x" * 100)
        assert large.wire_size() - small.wire_size() == 99

    def test_qos_adds_packet_id_bytes(self):
        from repro.mqtt.packets import Publish

        q0 = Publish(topic="t", payload=b"x", qos=0)
        q1 = Publish(topic="t", payload=b"x", qos=1)
        assert q1.wire_size() == q0.wire_size() + 2

    def test_connect_size_includes_will(self):
        plain = Connect(client_id="c")
        with_will = Connect(client_id="c", will_topic="w", will_payload=b"gone")
        assert with_will.wire_size() > plain.wire_size()
