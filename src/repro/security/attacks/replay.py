"""Packet replay: capture MQTT publishes off a link and re-inject them.

Captured frames are re-published later from the attacker's own node —
stale soil-moisture readings replayed during a dry-down make the platform
believe the field is still wet (a tamper effect achieved without touching
any device).  Against a :class:`~repro.security.crypto.SecureChannel`, the
sequence-number replay window rejects every re-injected frame.
"""

from typing import List, Optional, Tuple

from repro.mqtt.client import MqttClient
from repro.mqtt.packets import Publish
from repro.network.topology import Network
from repro.simkernel.simulator import Simulator


class PacketReplayer:
    def __init__(
        self,
        sim: Simulator,
        network: Network,
        capture_pairs: List[Tuple[str, str]],
        broker_address: str,
        link_model,
        topic_prefix: str = "swamp/",
        password: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.capture_pairs = list(capture_pairs)
        self.topic_prefix = topic_prefix
        self.captured: List[Publish] = []
        self.replayed = 0
        self._taps = []
        self.client = MqttClient(
            sim, "atk:replayer", broker_address, client_id="replayer", password=password
        )
        network.add_node(self.client)
        network.connect(self.client.address, broker_address, link_model)

    def start_capture(self) -> None:
        self.client.connect()
        for a, b in self.capture_pairs:
            for link in self.network.links_between(a, b):
                tap = self._make_tap()
                link.add_tap(tap)
                self._taps.append((link, tap))

    def stop_capture(self) -> None:
        for link, tap in self._taps:
            link.remove_tap(tap)
        self._taps.clear()

    def _make_tap(self):
        def tap(packet):
            publish = packet.payload
            if isinstance(publish, Publish) and publish.topic.startswith(self.topic_prefix):
                self.captured.append(
                    Publish(topic=publish.topic, payload=publish.payload, qos=0)
                )

        return tap

    def replay_all(self) -> int:
        """Re-inject every captured frame now; returns count sent."""
        sent = 0
        for publish in self.captured:
            if self.client.publish(publish.topic, publish.payload, qos=0):
                sent += 1
        self.replayed += sent
        return sent
