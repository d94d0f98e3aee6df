"""Tests for the simulation-grade crypto: KDF, DH, AEAD, replay, channels."""

import hashlib
import hmac

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.security.crypto import (
    AeadError,
    DhKeyPair,
    MODP_PRIME,
    ReplayWindow,
    SecureChannel,
    SecureChannelPair,
    hkdf,
    open_payload,
    seal_payload,
    shared_secret,
)
from repro.security.crypto import dh
from repro.security.crypto.aead import AeadKey, HmacKey
from repro.simkernel.rng import RngRegistry


def streams(seed=0):
    reg = RngRegistry(seed)
    return reg.stream("a"), reg.stream("b")


class TestHkdf:
    def test_deterministic(self):
        assert hkdf(b"ikm", 32, b"salt", b"info") == hkdf(b"ikm", 32, b"salt", b"info")

    def test_different_info_different_keys(self):
        assert hkdf(b"ikm", 32, b"s", b"a") != hkdf(b"ikm", 32, b"s", b"b")

    def test_length_control(self):
        for n in (1, 16, 32, 33, 64, 100):
            assert len(hkdf(b"ikm", n)) == n

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            hkdf(b"ikm", 0)
        with pytest.raises(ValueError):
            hkdf(b"ikm", 256 * 32)

    def test_rfc5869_test_vector_1(self):
        # RFC 5869 A.1 (SHA-256).
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = hkdf(ikm, 42, salt, info)
        assert okm == bytes.fromhex(
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )


class TestDh:
    def test_shared_secret_agrees(self):
        a, b = streams()
        alice, bob = DhKeyPair(a), DhKeyPair(b)
        assert alice.shared_with(bob.public) == bob.shared_with(alice.public)

    def test_different_pairs_different_secrets(self):
        a, b = streams(1)
        c, d = streams(2)
        s1 = DhKeyPair(a).shared_with(DhKeyPair(b).public)
        s2 = DhKeyPair(c).shared_with(DhKeyPair(d).public)
        assert s1 != s2

    def test_invalid_public_rejected(self):
        a, _ = streams()
        key = DhKeyPair(a)
        for bad in (0, 1, MODP_PRIME - 1, MODP_PRIME):
            with pytest.raises(ValueError):
                shared_secret(key.private, bad)

    def test_secret_fixed_width(self):
        a, b = streams()
        assert len(DhKeyPair(a).shared_with(DhKeyPair(b).public)) == 256

    @given(st.binary(min_size=32, max_size=32).map(lambda raw: int.from_bytes(raw, "big")))
    @example(0)
    @example(1)
    @example(2**255)
    @example(2**256 - 1)
    @settings(max_examples=100, deadline=None)
    def test_generator_comb_equals_pow(self, exponent):
        """Exponents from 32 drawn bytes set every row's bits alike, so each
        column reads a table entry at random; ``st.integers`` favours small
        exponents, which read only the first few entries."""
        assert dh.generator_power(exponent) == pow(dh.GENERATOR, exponent, MODP_PRIME)

    def test_every_comb_entry_equals_pow(self):
        """Exponent ``sum(2**(32*r) for each set bit r of i)`` reads entry ``i`` alone."""
        for entry in range(256):
            exponent = sum(1 << (32 * row) for row in range(8) if entry >> row & 1)
            assert dh.generator_power(exponent) == pow(dh.GENERATOR, exponent, MODP_PRIME), entry

    @pytest.mark.parametrize("exponent", [-1, 2**256, 2**300 + 5])
    def test_exponent_outside_the_comb_goes_to_pow(self, exponent):
        assert dh.generator_power(exponent) == pow(dh.GENERATOR, exponent, MODP_PRIME)

    def test_wrong_public_key_fails_the_pair(self, monkeypatch):
        real = dh.generator_power
        monkeypatch.setattr(dh, "generator_power", lambda x: real(x) * 3 % MODP_PRIME)
        a, b = streams()
        with pytest.raises(RuntimeError, match="probe-07"):
            SecureChannelPair(a, b, context=b"probe-07")

    def test_public_key_known_answer(self):
        """One seeded public key, pinned from ``pow(GENERATOR, x, MODP_PRIME)``."""
        key = DhKeyPair(RngRegistry(7).stream("a"))
        assert hashlib.sha256(key.public.to_bytes(256, "big")).hexdigest() == (
            "3496ca2de4dfb67d99848ba6e09b667c62c77f12619f553f83d790970b0039c1"
        )


class TestAead:
    KEYS = (b"e" * 32, b"m" * 32)
    NONCE = b"n" * 12

    def test_roundtrip(self):
        sealed = seal_payload(*self.KEYS, self.NONCE, b"hello", b"ad")
        assert open_payload(*self.KEYS, sealed, b"ad") == b"hello"

    def test_ciphertext_differs_from_plaintext(self):
        sealed = seal_payload(*self.KEYS, self.NONCE, b"hello world")
        assert b"hello world" not in sealed

    def test_wrong_key_pair_fails(self):
        sealed = seal_payload(*self.KEYS, self.NONCE, b"secret")
        with pytest.raises(AeadError):
            open_payload(b"x" * 32, b"y" * 32, sealed)

    def test_wrong_enc_key_with_right_mac_yields_garbage(self):
        # Encrypt-then-MAC authenticates the ciphertext, not the enc key;
        # a wrong enc key passes the MAC but decrypts to noise.  Channel
        # keys are always derived together, so this cannot happen in use.
        sealed = seal_payload(*self.KEYS, self.NONCE, b"secret")
        assert open_payload(b"x" * 32, self.KEYS[1], sealed) != b"secret"

    def test_wrong_mac_key_fails(self):
        sealed = seal_payload(*self.KEYS, self.NONCE, b"secret")
        with pytest.raises(AeadError):
            open_payload(self.KEYS[0], b"x" * 32, sealed)

    def test_bitflip_detected(self):
        sealed = bytearray(seal_payload(*self.KEYS, self.NONCE, b"secret"))
        sealed[14] ^= 0x01
        with pytest.raises(AeadError):
            open_payload(*self.KEYS, bytes(sealed))

    def test_wrong_ad_fails(self):
        sealed = seal_payload(*self.KEYS, self.NONCE, b"secret", b"topic-a")
        with pytest.raises(AeadError):
            open_payload(*self.KEYS, sealed, b"topic-b")

    def test_truncated_fails(self):
        sealed = seal_payload(*self.KEYS, self.NONCE, b"secret")
        with pytest.raises(AeadError):
            open_payload(*self.KEYS, sealed[:10])

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            seal_payload(*self.KEYS, b"short", b"x")

    def test_empty_plaintext(self):
        sealed = seal_payload(*self.KEYS, self.NONCE, b"")
        assert open_payload(*self.KEYS, sealed) == b""

    @given(st.binary(max_size=300), st.binary(max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_property_roundtrip(self, plaintext, ad):
        sealed = seal_payload(*self.KEYS, self.NONCE, plaintext, ad)
        assert open_payload(*self.KEYS, sealed, ad) == plaintext


def _reference_keystream(enc_key, nonce, length):
    blocks = (
        hmac.new(enc_key, nonce + counter.to_bytes(4, "big"), hashlib.sha256).digest()
        for counter in range(-(-length // 32))
    )
    return b"".join(blocks)[:length]


def _reference_seal(enc_key, mac_key, nonce, plaintext, ad=b""):
    """Encrypt-then-MAC with a fresh ``hmac.new`` for every HMAC: the
    construction the keyed-once classes must reproduce byte for byte."""
    keystream = _reference_keystream(enc_key, nonce, len(plaintext))
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, keystream))
    tag = hmac.new(mac_key, nonce + ad + ciphertext, hashlib.sha256).digest()[:16]
    return nonce + ciphertext + tag


class TestAeadKnownAnswers:
    """Bytes pinned from the per-call ``hmac.new`` construction."""

    ENC = bytes(range(32))
    MAC = bytes(range(32, 64))
    NONCE = bytes(range(100, 112))
    TOPIC = b"swamp/matopiba/attrs/probe-07"
    LENGTHS = list(range(101)) + [255, 1000]
    WIRES = (
        "0000000000000000a805683a3671aaada9276cb8109575d1aed50723358b952a08f000448fd2c25710f22ab2818fa6d6",
        "0000000000000001c36c8b8e7297ee5b8989d80f602eda0814d9b2b67e1292a226560b1d5eb8fdd6e7a8e1d8c3d65758",
        "0000000000000002b0d62d5c1d6c07db3950710e4fdcb3d0a5b773205edd5c5edb0ee04d3c2320d9a4b4e226cb43824b",
        "00000000000000039da2a16a3a578eab74d8ee29c6d1bf24b0c0cd1ad91d65e8e92400c986288fe02bc0803a7267fcc6",
        "0000000000000004ffb0c7d0fc9188969de45aaab0517e6ae848244f29287b6ce6a08417e4128a5309a12e05019135f7",
    )

    @staticmethod
    def plaintext(n):
        return bytes((7 * i + 3) % 256 for i in range(n))

    def topic_ad(self, n):
        return self.TOPIC + n.to_bytes(8, "big")

    def test_grid_digest(self):
        digest = hashlib.sha256()
        for n in self.LENGTHS:
            for ad in (b"", self.topic_ad(n)):
                sealed = seal_payload(self.ENC, self.MAC, self.NONCE, self.plaintext(n), ad)
                assert open_payload(self.ENC, self.MAC, sealed, ad) == self.plaintext(n)
                digest.update(sealed)
        assert digest.hexdigest() == (
            "da5b6089a569793fae54cbe23fd7933128fdab52ef82ac9dc86c2ce26623f8e9"
        )

    @pytest.mark.parametrize("n, with_topic, expected", [
        (0, False, "6465666768696a6b6c6d6e6f659dcdeb5f28a24f72479ea4b37ccb2f"),
        (33, True,
         "6465666768696a6b6c6d6e6f3ce754add61ba52f9715141d6f591b2045311434e798805640"
         "200b09d8414e2ceecee68cfef0a03cf7ac4513570ea44f07"),
        (64, True,
         "6465666768696a6b6c6d6e6f3ce754add61ba52f9715141d6f591b2045311434e798805640"
         "200b09d8414e2ceef75f7b4088345fede8b4b388105c4c3e822f993722f03a718b9480b9dc"
         "2cecbed0613c0134a8cff10f1078b0423d10"),
    ])
    def test_vectors(self, n, with_topic, expected):
        ad = self.topic_ad(n) if with_topic else b""
        sealed = seal_payload(self.ENC, self.MAC, self.NONCE, self.plaintext(n), ad)
        assert sealed.hex() == expected
        assert AeadKey(self.ENC, self.MAC).open(sealed, ad) == self.plaintext(n)

    def test_channel_wire_bytes(self):
        pair = SecureChannelPair(*streams(7))
        topic = "swamp/matopiba/attrs/probe-07"
        for i, expected in enumerate(self.WIRES):
            payload = b'{"soil_moisture": %d.25}' % (20 + i)
            _, wire = pair.endpoint_a.mqtt_encoder(topic, payload)
            assert wire.hex() == expected
            assert pair.endpoint_b.mqtt_decoder_from_wire(topic, wire) == payload


class TestKeyedOnce:
    """``HmacKey``/``AeadKey`` against per-call ``hmac.new``."""

    @pytest.mark.parametrize("key_len", [0, 1, 32, 63, 64, 65, 131])
    def test_hmac_key_equals_stdlib(self, key_len):
        key = bytes((5 * i + 1) % 256 for i in range(key_len))
        mac = HmacKey(key)
        for message in (b"", b"m", bytes(range(256)) * 3):
            assert mac.digest(message) == hmac.new(key, message, hashlib.sha256).digest()

    @given(
        st.binary(max_size=80), st.binary(max_size=80), st.binary(min_size=12, max_size=12),
        st.binary(max_size=300), st.binary(max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_equals_reference(self, enc_key, mac_key, nonce, plaintext, ad):
        expected = _reference_seal(enc_key, mac_key, nonce, plaintext, ad)
        key = AeadKey(enc_key, mac_key)
        assert key.seal(nonce, plaintext, ad) == expected
        assert seal_payload(enc_key, mac_key, nonce, plaintext, ad) == expected
        assert key.open(expected, ad) == plaintext
        assert open_payload(enc_key, mac_key, expected, ad) == plaintext
        forged = expected[:-1] + bytes([expected[-1] ^ 1])
        with pytest.raises(AeadError):
            key.open(forged, ad)

    @given(st.lists(st.tuples(st.binary(max_size=120), st.binary(max_size=30)), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_property_channel_equals_reference(self, messages):
        enc_key, mac_key = b"e" * 32, b"m" * 32
        channel = SecureChannel(send_keys=(enc_key, mac_key), recv_keys=(enc_key, mac_key))
        for seq, (plaintext, ad) in enumerate(messages):
            seq_bytes = seq.to_bytes(8, "big")
            nonce = b"\x00" * 4 + seq_bytes
            reference = _reference_seal(enc_key, mac_key, nonce, plaintext, ad + seq_bytes)
            wire = channel.seal(plaintext, ad)
            assert wire == seq_bytes + reference[12:]
            assert channel.open(wire, ad) == plaintext

    def test_argument_errors_kept(self):
        key = AeadKey(b"e" * 32, b"m" * 32)
        with pytest.raises(ValueError):
            key.seal(b"short", b"x")
        with pytest.raises(AeadError, match="too short"):
            key.open(b"\x00" * 27)


class TestReplayWindow:
    def test_in_order_accepted(self):
        window = ReplayWindow()
        assert all(window.check_and_update(i) for i in range(10))

    def test_duplicate_rejected(self):
        window = ReplayWindow()
        assert window.check_and_update(5)
        assert not window.check_and_update(5)
        assert window.rejected == 1

    def test_out_of_order_within_window(self):
        window = ReplayWindow(window_size=8)
        assert window.check_and_update(10)
        assert window.check_and_update(7)
        assert not window.check_and_update(7)

    def test_too_old_rejected(self):
        window = ReplayWindow(window_size=8)
        assert window.check_and_update(100)
        assert not window.check_and_update(91)  # offset 9 >= 8

    def test_negative_rejected(self):
        assert not ReplayWindow().check_and_update(-1)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ReplayWindow(0)

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_property_no_sequence_accepted_twice(self, sequence):
        window = ReplayWindow()
        accepted = []
        for seq in sequence:
            if window.check_and_update(seq):
                accepted.append(seq)
        assert len(accepted) == len(set(accepted))

    @given(
        st.integers(min_value=1, max_value=70),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                           st.integers(min_value=-80, max_value=80)),
                 min_size=1, max_size=120),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_verdicts_equal_a_set_reference(self, window_size, anchors, picks):
        """Any 8-byte sequence numbers, duplicates and near-duplicates included."""
        window = ReplayWindow(window_size)
        seen, highest = set(), -1
        for which, delta in picks:
            seq = min(max(anchors[which % len(anchors)] + delta, 0), 2**64 - 1)
            fresh = seq > highest or (highest - seq < window_size and seq not in seen)
            assert window.check_and_update(seq) == fresh, seq
            if fresh:
                seen.add(seq)
                highest = max(highest, seq)


class TestSecureChannel:
    def make_pair(self, seed=0):
        a, b = streams(seed)
        return SecureChannelPair(a, b)

    def test_roundtrip_between_endpoints(self):
        pair = self.make_pair()
        wire = pair.endpoint_a.seal(b"telemetry", b"topic")
        assert pair.endpoint_b.open(wire, b"topic") == b"telemetry"

    def test_replayed_message_rejected(self):
        pair = self.make_pair()
        wire = pair.endpoint_a.seal(b"cmd:open-valve", b"t")
        assert pair.endpoint_b.open(wire, b"t") == b"cmd:open-valve"
        assert pair.endpoint_b.open(wire, b"t") is None
        assert pair.endpoint_b.stats.replays_rejected == 1

    def test_forward_jump_is_accepted_and_older_frames_refused(self):
        pair = self.make_pair()
        assert pair.endpoint_b.open(pair.endpoint_a.seal(b"first", b"t"), b"t") == b"first"
        pair.endpoint_a._send_seq = 2**62
        wire = pair.endpoint_a.seal(b"jump", b"t")
        assert pair.endpoint_b.open(wire, b"t") == b"jump"
        pair.endpoint_a._send_seq = 5
        assert pair.endpoint_b.open(pair.endpoint_a.seal(b"old", b"t"), b"t") is None
        assert pair.endpoint_b.stats.replays_rejected == 1

    def test_cross_channel_isolation(self):
        pair1 = self.make_pair(seed=1)
        pair2 = self.make_pair(seed=2)
        wire = pair1.endpoint_a.seal(b"secret", b"t")
        assert pair2.endpoint_b.open(wire, b"t") is None
        assert pair2.endpoint_b.stats.auth_failures == 1

    def test_directional_keys(self):
        """a->b traffic cannot be decrypted as if it were b->a traffic."""
        pair = self.make_pair()
        wire = pair.endpoint_a.seal(b"x", b"t")
        assert pair.endpoint_a.open(wire, b"t") is None

    def test_topic_binding(self):
        pair = self.make_pair()
        wire = pair.endpoint_a.seal(b"x", b"swamp/farmA/attrs/p1")
        assert pair.endpoint_b.open(wire, b"swamp/farmB/attrs/p1") is None

    def test_garbage_rejected(self):
        pair = self.make_pair()
        assert pair.endpoint_b.open(b"short", b"t") is None
        assert pair.endpoint_b.open(b"\x00" * 100, b"t") is None

    def test_mqtt_hooks(self):
        pair = self.make_pair()
        payload, wire = pair.endpoint_a.mqtt_encoder("t/x", b"data")
        assert payload == wire  # ciphertext is the payload: end-to-end
        assert b"data" not in wire
        assert pair.endpoint_b.mqtt_decoder_from_wire("t/x", wire) == b"data"

    def test_energy_cost_positive_and_linear(self):
        small = SecureChannel.energy_cost_j(10)
        large = SecureChannel.energy_cost_j(1000)
        assert 0 < small < large

    def test_overhead_constant(self):
        pair = self.make_pair()
        wire = pair.endpoint_a.seal(b"x" * 50, b"t")
        assert len(wire) == 50 + SecureChannel.overhead_bytes()


class TestEndToEndMqttEncryption:
    def test_eavesdropper_sees_only_ciphertext(self):
        from repro.mqtt import MqttBroker, MqttClient
        from repro.network import Network, RadioModel
        from repro.simkernel import Simulator

        sim = Simulator(seed=5)
        net = Network(sim)
        broker = MqttBroker(sim, "broker")
        net.add_node(broker)
        model = RadioModel("t", 0.01, 1e6, 0.0)
        publisher = MqttClient(sim, "pub", "broker")
        subscriber = MqttClient(sim, "sub", "broker")
        for client in (publisher, subscriber):
            net.add_node(client)
            net.connect(client.address, "broker", model)

        pair = SecureChannelPair(sim.rng.stream("dev"), sim.rng.stream("plat"))
        publisher.payload_encoder = pair.endpoint_a.mqtt_encoder
        subscriber.payload_decoder = pair.endpoint_b.mqtt_decoder_from_wire

        tapped = []
        net.link("pub", "broker").add_tap(lambda p: tapped.append(p.observable()))

        received = []
        publisher.connect()
        subscriber.connect()
        sim.run(until=1.0)
        subscriber.subscribe("farm/yield", handler=lambda t, p, q, r: received.append(p))
        sim.run(until=2.0)
        publisher.publish("farm/yield", b"4.2 t/ha")
        sim.run(until=3.0)

        assert received == [b"4.2 t/ha"]
        wire_frames = [t for t in tapped if isinstance(t, bytes)]
        assert wire_frames, "tap should have seen the publish wire bytes"
        assert all(b"4.2" not in frame for frame in wire_frames)


class TestEnrolledChannels:
    def test_matopiba_device_channels_seal_the_pinned_frame(self):
        """Every key a secured pilot derives, pinned through one sealed frame.

        Each of the 41 devices of the secured MATOPIBA pilot seals the same
        frame on its fresh channel, in device-id order; the platform side
        opens each one.  The digest was taken with every public key from
        ``pow(GENERATOR, x, MODP_PRIME)``.
        """
        from repro.core.pilots import build_matopiba_pilot
        from repro.core.security_profile import SecurityConfig

        runner = build_matopiba_pilot(
            seed=42, security=SecurityConfig(auth=True, encryption=True))
        devices = [
            runner.pump, runner.flow_meter, runner.weather_station, runner.pivot,
            runner.drone, *runner.probes.values(), *runner.valves.values(),
        ]
        frame = b'{"soilMoisture": 0.25}'
        digest = hashlib.sha256()
        for device in sorted(devices, key=lambda d: d.config.device_id):
            topic = f"swamp/matopiba/attrs/{device.config.device_id}"
            _, wire = device.client.payload_encoder(topic, frame)
            assert runner.security.channels.decoder(topic, wire) == frame
            digest.update(wire)
        assert len(devices) == 41
        assert digest.hexdigest() == (
            "a636382a93375a136f93b6c77cb2baeb114aa9e695e6ea1ea4bbf835bedeec22"
        )
