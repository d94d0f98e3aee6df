"""Switchable security wiring for a pilot.

One :class:`SecurityConfig` per pilot decides which of the paper's
mechanisms are active, so every experiment can run the same pilot with a
mechanism on and off:

* ``auth`` — Keyrock/OAuth2/PEP on the MQTT broker: devices CONNECT with a
  bearer token as password; per-farm topic ACLs through the PDP (E10);
* ``encryption`` — a per-device :class:`SecureChannel` (telemetry
  confidentiality end-to-end; E7) plus its energy cost on the device (E13);
* ``detection`` — the behavioral DetectionEngine with quarantine wired to
  IoT-agent deprovisioning (E5/E8).
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.agents.iot_agent import IoTAgent
from repro.context.broker import ContextBroker
from repro.devices.base import Device
from repro.security.auth.identity import IdentityManager
from repro.security.auth.oauth import OAuthServer
from repro.security.auth.pdp import Policy, PolicyDecisionPoint
from repro.security.auth.pep import PepProxy
from repro.security.crypto.channel import SecureChannel, SecureChannelPair
from repro.security.detection.engine import AlertManager, DetectionEngine
from repro.security.detection.sequence import CommandRhythmMonitor
from repro.security.ledger.blockchain import Blockchain, LifecycleEvent
from repro.security.ledger.contracts import AuthorizationContract
from repro.security.ledger.registry import DeviceLifecycleRegistry
from repro.simkernel.simulator import Simulator


@dataclass
class SecurityConfig:
    auth: bool = False
    encryption: bool = False
    detection: bool = False
    # Blockchain device-lifecycle ledger: device enrolments and
    # quarantines are committed on-chain, and every actuator command is
    # gated by the authorization smart contract (paper §III).
    ledger: bool = False
    # Command-rhythm monitor: learns each actuator's command sequence and
    # flags off-pattern commands ("the expected sequence of events").
    command_rhythm: bool = False
    detection_training_s: float = 7 * 86400.0
    # Alerts per device per day-window before quarantine.  Calibrated to
    # the alert rates the detectors actually produce: a clean device on a
    # thin baseline emits isolated alerts (~3/day at worst — the paper's
    # partial-profile caveat), while a tampered device re-alarms every few
    # samples (13+/day for a moderate bias at 30-min sampling).
    quarantine_threshold: int = 10
    # Sensor attributes the detection engine profiles.  Monotone counters
    # (pump totals, applied depth) are excluded by construction — a counter
    # always "drifts" — and so are the weather station's attributes, which
    # repeat one daily value hourly (23 identical samples then a step:
    # a false-positive machine for stuck/jump detectors).  Weather sanity
    # is cross-checked against the profile builder instead.
    watched_attributes: tuple = ("soilMoisture", "ndvi")


class ChannelRegistry:
    """Per-device secure channels, routed by the device id in the topic."""

    def __init__(self) -> None:
        self._platform_endpoints: Dict[str, SecureChannel] = {}
        self.decode_failures = 0

    def register(self, device_id: str, platform_endpoint: SecureChannel) -> None:
        self._platform_endpoints[device_id] = platform_endpoint

    def decoder(self, topic: str, payload: bytes) -> Optional[bytes]:
        """payload_decoder for the IoT agent's MQTT client."""
        device_id = topic.rsplit("/", 1)[-1]
        endpoint = self._platform_endpoints.get(device_id)
        if endpoint is None:
            # Not an encrypted device (or unknown): pass through so that
            # plaintext devices coexist with encrypted ones.
            return payload
        plaintext = endpoint.mqtt_decoder_from_wire(topic, payload)
        if plaintext is None:
            self.decode_failures += 1
        return plaintext


class SecurityStack:
    """The instantiated mechanisms for one pilot."""

    def __init__(self, sim: Simulator, farm: str, config: SecurityConfig) -> None:
        self.sim = sim
        self.farm = farm
        self.config = config
        self.identity = IdentityManager(sim.rng.stream(f"idm:{farm}"))
        self.oauth = OAuthServer(sim, self.identity, sim.rng.stream(f"oauth:{farm}"),
                                 access_token_ttl_s=14 * 86400.0)
        self.pdp = PolicyDecisionPoint()
        self.pep = PepProxy(sim, self.oauth, self.pdp)
        self.channels = ChannelRegistry()
        self.detection_engine: Optional[DetectionEngine] = None
        self.alert_manager: Optional[AlertManager] = None
        self.chain: Optional[Blockchain] = None
        self.lifecycle_registry: Optional[DeviceLifecycleRegistry] = None
        self.contract: Optional[AuthorizationContract] = None
        self.rhythm_monitor: Optional[CommandRhythmMonitor] = None
        if config.ledger:
            self.chain = Blockchain(validators=[f"{farm}-coop", "platform", "ag-authority"])
            self.lifecycle_registry = DeviceLifecycleRegistry(self.chain)
            self.contract = AuthorizationContract(self.lifecycle_registry)
        if config.command_rhythm:
            import re as _re

            # Pool rhythm models by device class: "farm-valve-0-1" and
            # "farm-valve-1-0" share one model (commands are too sparse
            # per device to train within a season).
            def device_class(device_id: str) -> str:
                return _re.sub(r"(-\d+)+$", "", device_id)

            self.rhythm_monitor = CommandRhythmMonitor(
                training_window_s=config.detection_training_s,
                group_of=device_class,
            )
        if config.auth:
            self._install_default_policies()

    def _install_default_policies(self) -> None:
        # Devices and services touch only their own farm's topic tree.
        self.pdp.add_policy(
            Policy("own-farm-mqtt", "permit", {"publish", "subscribe"},
                   r"^swamp/", same_farm=True)
        )

    # -- broker hooks -----------------------------------------------------------

    def broker_hooks(self) -> dict:
        if not self.config.auth:
            return {"authenticator": None, "authorizer": None}
        return {
            "authenticator": self.pep.mqtt_authenticator,
            "authorizer": self.pep.mqtt_authorizer,
        }

    # -- device enrolment -----------------------------------------------------------

    def enroll_device(self, device: Device, device_key: str) -> None:
        """Register identity, issue token and (optionally) set up crypto."""
        if self.chain is not None:
            device_id = device.config.device_id
            now = self.sim.now
            self.chain.submit(LifecycleEvent(device_id, "manufactured", "vendor", now))
            self.chain.submit(
                LifecycleEvent(device_id, "provisioned", self.farm, now, {"owner": self.farm})
            )
            self.chain.submit(LifecycleEvent(device_id, "activated", self.farm, now))
            self.chain.seal_block(now)
        if self.config.auth:
            self.identity.register(
                device.config.device_id, device_key, kind="device", farm=self.farm
            )
            token = self.oauth.device_grant(device.config.device_id, device_key)
            device.client.password = token.access_token
        if self.config.encryption:
            pair = SecureChannelPair(
                self.sim.rng.stream(f"chan:dev:{device.config.device_id}"),
                self.sim.rng.stream(f"chan:plat:{device.config.device_id}"),
                context=device.config.device_id.encode("utf-8"),
            )
            device.client.payload_encoder = pair.endpoint_a.mqtt_encoder
            self.channels.register(device.config.device_id, pair.endpoint_b)
            # Per-message security cost = crypto CPU + radio TX of the
            # ciphertext expansion (seq + tag bytes on the air).
            device.security_energy_j_per_msg = (
                SecureChannel.energy_cost_j(96)
                + SecureChannel.overhead_bytes() * 0.0012
            )

    # -- agent + detection wiring -----------------------------------------------------

    def wire_agent(self, agent: IoTAgent) -> None:
        if self.config.encryption:
            agent.client.payload_decoder = self.channels.decoder
        if self.contract is not None:
            agent.command_gate = lambda device_id, command: self.contract.authorize(
                device_id, {"farm": self.farm}
            )
        # Command-rhythm observation happens at the *broker* via
        # wire_command_tap (covers insider-injected commands too); wiring
        # an agent-side observer as well would double-count every command.
        if self.config.auth:
            # The agent itself must be allowed on the broker.
            if self.identity.get(agent.client.client_id) is None:
                self.identity.register(
                    agent.client.client_id, "agent-secret", kind="service", farm=self.farm
                )
            token = self.oauth.client_credentials_grant(agent.client.client_id, "agent-secret")
            agent.client.password = token.access_token

    def wire_command_tap(self, network, broker_address: str) -> None:
        """Subscribe the rhythm monitor to the farm's command topics.

        The agent-side observer only sees commands the platform itself
        dispatched; this tap watches the *broker*, so commands injected by
        an insider with valid credentials (or any PEP bypass) are scored
        against the learned rhythm too.
        """
        if self.rhythm_monitor is None:
            return
        from repro.devices.codec import decode_payload
        from repro.mqtt.client import MqttClient
        from repro.network.radio import ETHERNET_LAN

        tap_client = MqttClient(
            self.sim, f"{self.farm}:cmd-tap", broker_address,
            client_id=f"cmd-tap-{self.farm}", username=self.farm,
        )
        network.add_node(tap_client)
        network.connect(tap_client.address, broker_address, ETHERNET_LAN)
        if self.config.auth:
            self.identity.register(
                tap_client.client_id, "tap-secret", kind="service", farm=self.farm
            )
            token = self.oauth.client_credentials_grant(tap_client.client_id, "tap-secret")
            tap_client.password = token.access_token
        tap_client.connect()

        def on_command(topic: str, payload: bytes, qos: int, retain: bool) -> None:
            command = decode_payload(payload)
            if command is None:
                return
            device_id = topic.rsplit("/", 1)[-1]
            self.rhythm_monitor.observe(device_id, command.get("cmd", "?"), self.sim.now)

        tap_client.subscribe(f"swamp/{self.farm}/cmd/+", qos=0, handler=on_command)
        self._command_tap_client = tap_client

    def wire_detection(self, context: ContextBroker, agent: IoTAgent) -> None:
        if not self.config.detection:
            return
        self.alert_manager = AlertManager(
            quarantine_threshold=self.config.quarantine_threshold,
            on_quarantine=lambda device_id: self._quarantine(agent, device_id),
        )
        self.detection_engine = DetectionEngine(
            self.sim, context,
            alert_manager=self.alert_manager,
            training_window_s=self.config.detection_training_s,
            watched_attributes=list(self.config.watched_attributes),
        )

    def _quarantine(self, agent: IoTAgent, device_id: str) -> None:
        agent.deprovision(device_id)
        self.oauth.revoke_principal(device_id)
        if self.chain is not None:
            # The incident becomes part of the device's on-chain history;
            # the contract then fails closed for it ("suspended" state).
            self.chain.submit(
                LifecycleEvent(device_id, "suspended", f"{self.farm}-detector", self.sim.now)
            )
            self.chain.seal_block(self.sim.now)
        self.sim.trace.emit(
            self.sim.now, "security", "device quarantined", device=device_id, farm=self.farm
        )
