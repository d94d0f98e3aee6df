"""The IoT agent.

Bridges the device-facing MQTT south port to the context broker's NGSI
north port, exactly as FIWARE's IoT Agents do:

* devices are *provisioned* (device id, API key, target entity, attribute
  mapping) before their traffic is accepted — unprovisioned senders are
  dropped and counted, the platform's first line of defence against Sybil
  identities (E6);
* inbound measures become entity attribute updates;
* commands flow the other way: a service calls :meth:`send_command`, the
  agent publishes on the device's command topic at QoS 1, marks the
  command ``PENDING`` on the entity and flips it to the device-reported
  result when the ``cmdexe`` ack arrives.
"""

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.context.broker import ContextBroker
from repro.devices.codec import decode_payload, encode_payload
from repro.mqtt.client import MqttClient
from repro.network.topology import Network
from repro.simkernel.simulator import Simulator


@dataclass
class DeviceProvision:
    device_id: str
    api_key: str
    entity_id: str
    entity_type: str
    # device attribute name -> entity attribute name (identity if omitted)
    attribute_map: Dict[str, str] = field(default_factory=dict)
    commands: tuple = ()

    def entity_attr(self, device_attr: str) -> str:
        return self.attribute_map.get(device_attr, device_attr)


class AgentStats:
    __slots__ = (
        "measures_processed",
        "measures_dropped_unprovisioned",
        "measures_dropped_bad_key",
        "decode_failures",
        "commands_sent",
        "commands_gated",
        "command_acks",
    )

    def __init__(self) -> None:
        self.measures_processed = 0
        self.measures_dropped_unprovisioned = 0
        self.measures_dropped_bad_key = 0
        self.decode_failures = 0
        self.commands_sent = 0
        self.commands_gated = 0
        self.command_acks = 0


class IoTAgent:
    """One agent instance per farm per deployment tier."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        mqtt_broker_address: str,
        context_broker: ContextBroker,
        farm: str,
    ) -> None:
        self.sim = sim
        self.farm = farm
        self.context_broker = context_broker
        self.stats = AgentStats()
        self.provisions: Dict[str, DeviceProvision] = {}
        self.client = MqttClient(
            sim, address, mqtt_broker_address, client_id=f"iota-{farm}-{address}", username=farm
        )
        network.add_node(self.client)
        # Optional policy hook evaluated before any command leaves the
        # agent: ``command_gate(device_id, command) -> bool``.  The ledger
        # smart contract and the command-rhythm monitor attach here.
        self.command_gate = None
        # Observers notified of every dispatched command (device_id,
        # command, sim-time) — rhythm learning taps this.
        self.command_observers = []
        labels = {"agent": address}
        registry = sim.metrics
        stats = self.stats
        registry.register_counter(
            "iota.measures_processed", lambda: stats.measures_processed, labels)
        registry.register_counter(
            "iota.measures_dropped_unprovisioned",
            lambda: stats.measures_dropped_unprovisioned, labels)
        registry.register_counter("iota.commands_sent", lambda: stats.commands_sent, labels)
        registry.register_counter("iota.command_acks", lambda: stats.command_acks, labels)

    def start(self) -> None:
        self.client.connect()
        self.client.subscribe(f"swamp/{self.farm}/attrs/+", qos=0, handler=self._on_measure)
        self.client.subscribe(f"swamp/{self.farm}/cmdexe/+", qos=1, handler=self._on_command_ack)

    # -- provisioning -----------------------------------------------------------

    def provision(self, provision: DeviceProvision) -> None:
        """Register a device and materialize its entity."""
        self.provisions[provision.device_id] = provision
        entity = self.context_broker.ensure_entity(provision.entity_id, provision.entity_type)
        entity.set_attribute("deviceId", provision.device_id, "Text", timestamp=self.sim.now)
        for command in provision.commands:
            entity.set_attribute(f"{command}_status", "UNKNOWN", "commandStatus", timestamp=self.sim.now)

    def deprovision(self, device_id: str) -> None:
        self.provisions.pop(device_id, None)

    # -- south -> north (measures) ---------------------------------------------

    def _device_id_from_topic(self, topic: str) -> str:
        return topic.rsplit("/", 1)[-1]

    def _on_measure(self, topic: str, payload: bytes, qos: int, retain: bool) -> None:
        device_id = self._device_id_from_topic(topic)
        provision = self.provisions.get(device_id)
        if provision is None:
            self.stats.measures_dropped_unprovisioned += 1
            self.sim.trace.emit(
                self.sim.now, "iota", "unprovisioned device dropped",
                farm=self.farm, device=device_id,
            )
            return
        measures = decode_payload(payload)
        if measures is None:
            self.stats.decode_failures += 1
            return
        timestamp = measures.pop("ts", self.sim.clock.now)
        attrs: Dict[str, Any] = {}
        metadata: Dict[str, Dict[str, Any]] = {}
        for device_attr, value in measures.items():
            entity_attr = provision.entity_attr(device_attr)
            attrs[entity_attr] = value
            metadata[entity_attr] = {"sourceDevice": device_id, "measuredAt": timestamp}
        if attrs:
            self.stats.measures_processed += 1
            tracer = self.sim.tracer
            if tracer.enabled:
                with tracer.span(
                    "iota.measure", "iota", farm=self.farm, device=device_id
                ):
                    self.context_broker.ensure_entity(provision.entity_id, provision.entity_type)
                    self.context_broker.update_attributes(provision.entity_id, attrs, metadata=metadata)
            else:
                # Fast path: span() allocates a generator context manager
                # even when tracing is off, once per measure.
                self.context_broker.ensure_entity(provision.entity_id, provision.entity_type)
                self.context_broker.update_attributes(provision.entity_id, attrs, metadata=metadata)

    # -- north -> south (commands) ---------------------------------------------

    def send_command(self, device_id: str, command: Dict[str, Any]) -> bool:
        """Dispatch a command to a provisioned device; False if unknown/offline."""
        provision = self.provisions.get(device_id)
        if provision is None:
            return False
        if self.command_gate is not None and not self.command_gate(device_id, command):
            self.stats.commands_gated += 1
            self.sim.trace.emit(
                self.sim.now, "iota", "command gated",
                farm=self.farm, device=device_id, cmd=command.get("cmd"),
            )
            return False
        name = command.get("cmd", "cmd")
        with self.sim.tracer.span(
            "iota.command", "iota", farm=self.farm, device=device_id, cmd=name
        ):
            sent = self.client.publish(
                f"swamp/{self.farm}/cmd/{device_id}", encode_payload(command), qos=1
            )
            if sent:
                self.stats.commands_sent += 1
                for observer in self.command_observers:
                    observer(device_id, command, self.sim.now)
                self.context_broker.ensure_entity(provision.entity_id, provision.entity_type)
                self.context_broker.update_attributes(
                    provision.entity_id, {f"{name}_status": "PENDING"},
                    attr_types={f"{name}_status": "commandStatus"},
                )
        return sent

    def _on_command_ack(self, topic: str, payload: bytes, qos: int, retain: bool) -> None:
        device_id = self._device_id_from_topic(topic)
        provision = self.provisions.get(device_id)
        if provision is None:
            return
        ack = decode_payload(payload)
        if ack is None:
            self.stats.decode_failures += 1
            return
        self.stats.command_acks += 1
        name = ack.get("cmd", "cmd")
        result = ack.get("result", "OK")
        with self.sim.tracer.span(
            "iota.command_ack", "iota", farm=self.farm, device=device_id, cmd=name
        ):
            self.context_broker.ensure_entity(provision.entity_id, provision.entity_type)
            self.context_broker.update_attributes(
                provision.entity_id,
                {f"{name}_status": "OK" if result == "ok" else str(result)},
                attr_types={f"{name}_status": "commandStatus"},
            )
