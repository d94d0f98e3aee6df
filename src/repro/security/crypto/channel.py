"""Secure channel: the glue between crypto and the MQTT clients.

A :class:`SecureChannelPair` holds the shared session keys (derived from a
DH exchange via HKDF) for a device↔platform relationship.  Each side gets
a :class:`SecureChannel` that plugs into
:attr:`repro.mqtt.client.MqttClient.payload_encoder` / ``payload_decoder``:

* outbound payloads are sealed; the MQTT publish carries the *plaintext*
  object for the simulator's benefit but tags the network packet with the
  ciphertext as ``wire_bytes``, so wire taps (eavesdroppers, E7) observe
  only ciphertext;
* inbound payloads are opened, with sequence-number replay protection;
  failures are counted and dropped.

The channel also prices its own energy: per-byte crypto cost plus a fixed
per-message cost, which devices charge to their battery (E13).
"""

from typing import Optional, Tuple

from repro.security.crypto.aead import AeadError, AeadKey, NONCE_LEN, TAG_LEN
from repro.security.crypto.dh import DhKeyPair
from repro.security.crypto.kdf import hkdf
from repro.security.crypto.replay import ReplayWindow
from repro.simkernel.rng import SeededStream

# Representative software-crypto cost on a Cortex-M-class MCU.
CRYPTO_ENERGY_J_PER_BYTE = 0.00000085
CRYPTO_ENERGY_J_PER_MSG = 0.00045
SEQ_LEN = 8


class ChannelStats:
    __slots__ = ("sealed", "opened", "auth_failures", "replays_rejected", "bytes_sealed")

    def __init__(self) -> None:
        self.sealed = 0
        self.opened = 0
        self.auth_failures = 0
        self.replays_rejected = 0
        self.bytes_sealed = 0


class SecureChannel:
    """One direction-agnostic endpoint of a paired channel."""

    def __init__(self, send_keys: Tuple[bytes, bytes], recv_keys: Tuple[bytes, bytes]) -> None:
        # Keyed once per direction: each seal/open only copies hash states.
        self._send = AeadKey(*send_keys)
        self._recv = AeadKey(*recv_keys)
        self._send_seq = 0
        self._replay = ReplayWindow()
        self.stats = ChannelStats()

    # -- raw seal/open -----------------------------------------------------------
    #
    # The nonce is derived from the sequence number (zero-padded to 12
    # bytes) rather than transmitted: sequence numbers never repeat within
    # a direction and each direction has its own keys, so nonces are
    # unique per key.  This shaves 12 bytes off every frame — material on
    # LoRa-class radio where per-byte TX energy dominates the security
    # overhead (experiment E13).

    @staticmethod
    def _nonce_from_seq(seq_bytes: bytes) -> bytes:
        return b"\x00" * (NONCE_LEN - SEQ_LEN) + seq_bytes

    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        seq_bytes = self._send_seq.to_bytes(SEQ_LEN, "big")
        self._send_seq += 1
        nonce = self._nonce_from_seq(seq_bytes)
        sealed = self._send.seal(nonce, plaintext, associated_data + seq_bytes)
        self.stats.sealed += 1
        self.stats.bytes_sealed += len(plaintext)
        # Strip the nonce from the wire image: the receiver reconstructs
        # it from the sequence number.
        return seq_bytes + sealed[NONCE_LEN:]

    def open(self, wire: bytes, associated_data: bytes = b"") -> Optional[bytes]:
        """Returns the plaintext, or None (counted) on any failure."""
        if len(wire) < SEQ_LEN + TAG_LEN:
            self.stats.auth_failures += 1
            return None
        seq_bytes = wire[:SEQ_LEN]
        seq = int.from_bytes(seq_bytes, "big")
        sealed = self._nonce_from_seq(seq_bytes) + wire[SEQ_LEN:]
        try:
            plaintext = self._recv.open(sealed, associated_data + seq_bytes)
        except AeadError:
            self.stats.auth_failures += 1
            return None
        if not self._replay.check_and_update(seq):
            self.stats.replays_rejected += 1
            return None
        self.stats.opened += 1
        return plaintext

    # -- MQTT integration -----------------------------------------------------------

    def mqtt_encoder(self, topic: str, payload: bytes) -> Tuple[bytes, bytes]:
        """payload_encoder hook: returns (payload, wire_bytes).

        The ciphertext *is* the MQTT payload — encryption is end-to-end
        through the broker, which cannot read device data (the paper's
        per-farm confidentiality requirement).  It is also tagged as the
        packet's wire bytes so link taps observe ciphertext.
        """
        wire = self.seal(payload, associated_data=topic.encode("utf-8"))
        return wire, wire

    def mqtt_decoder_from_wire(self, topic: str, wire: bytes) -> Optional[bytes]:
        return self.open(wire, associated_data=topic.encode("utf-8"))

    # -- cost model -----------------------------------------------------------

    @staticmethod
    def energy_cost_j(payload_bytes: int) -> float:
        return CRYPTO_ENERGY_J_PER_MSG + payload_bytes * CRYPTO_ENERGY_J_PER_BYTE

    @staticmethod
    def overhead_bytes() -> int:
        return SEQ_LEN + TAG_LEN


class SecureChannelPair:
    """Derives both endpoints' keys from a DH handshake."""

    def __init__(self, rng_a: SeededStream, rng_b: SeededStream, context: bytes = b"swamp") -> None:
        key_a = DhKeyPair(rng_a)
        key_b = DhKeyPair(rng_b)
        secret_a = key_a.shared_with(key_b.public)
        secret_b = key_b.shared_with(key_a.public)
        # Checks each side's public key (the generator's comb) through the
        # peer's ``pow``, and holds under ``python -O`` too.
        if secret_a != secret_b:
            raise RuntimeError(f"DH key agreement failed for channel {context!r}")
        material = hkdf(secret_a, 4 * 32, salt=b"swamp-channel", info=context)
        a_to_b = (material[0:32], material[32:64])
        b_to_a = (material[64:96], material[96:128])
        self.endpoint_a = SecureChannel(send_keys=a_to_b, recv_keys=b_to_a)
        self.endpoint_b = SecureChannel(send_keys=b_to_a, recv_keys=a_to_b)
