"""Device base class: sweep-driven sampling, energy, failure and tamper hooks."""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.devices.battery import Battery
from repro.devices.codec import decode_payload, encode_payload
from repro.devices.sweep import SweepGroup
from repro.mqtt.client import MqttClient
from repro.network.topology import Network
from repro.simkernel.simulator import Simulator

# Energy costs per operation, representative of a class-1 constrained node.
SENSE_ENERGY_J = 0.010
CPU_ENERGY_J_PER_BYTE = 0.0000015  # baseline processing per payload byte


@dataclass
class DeviceConfig:
    device_id: str
    farm: str
    device_type: str
    report_interval_s: float = 900.0  # 15 min default sampling
    qos: int = 0
    battery_capacity_j: float = 25_000.0
    # Mean time between transient failures (0 disables failure injection).
    mtbf_s: float = 0.0
    repair_time_s: float = 3600.0
    api_key: str = ""  # provisioning credential checked by the IoT agent
    extra: Dict[str, Any] = field(default_factory=dict)


class Device:
    """Base class for sensors/actuators.

    Subclasses implement :meth:`read_measures` (returning the attribute
    dict to report) and may override :meth:`on_command`.

    Sampling always runs on a :class:`~repro.devices.sweep.SweepGroup`.
    When :attr:`sweeper` is set (a
    :class:`~repro.devices.sweep.SweepScheduler`) before :meth:`start`,
    the device enrolls in its farm's group for its report interval: one
    kernel event drives every same-interval device on the farm.  A
    device started without one samples on a one-member group phased
    from its own ``device:<id>`` stream.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: DeviceConfig,
        broker_address: str,
        gateway_model=None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.battery = Battery(config.battery_capacity_j)
        self.failed = False
        self.dead = False  # battery exhausted: permanent
        self.sent_reports = 0
        self.commands_handled = 0
        # Attack hook: functions mutating the measure dict before encoding
        # (sensor tampering, E5).  Kept as a list so attacks stack.
        self.tamper_hooks: list = []
        # Security hook: per-message extra CPU cost (crypto, E13).
        self.security_energy_j_per_msg = 0.0

        # Topic strings are fixed for the device's lifetime; build them
        # once instead of re-formatting on every publish.
        farm, device_id = config.farm, config.device_id
        self.attrs_topic = f"swamp/{farm}/attrs/{device_id}"
        self.command_topic = f"swamp/{farm}/cmd/{device_id}"
        self.command_ack_topic = f"swamp/{farm}/cmdexe/{device_id}"
        self.status_topic = f"swamp/{farm}/status/{device_id}"

        address = f"dev:{config.device_id}"
        self.client = MqttClient(
            sim,
            address,
            broker_address,
            client_id=config.device_id,
            username=config.farm,
            password=config.api_key,
            keepalive_s=max(60.0, config.report_interval_s * 2),
            will=(self.status_topic, b"offline", 0, False),
        )
        network.add_node(self.client)
        self._rng = sim.rng.stream(f"device:{config.device_id}")
        self.client.add_handler(self.command_topic, self._handle_command)
        self._failure_process = None
        # The builder stage sets ``sweeper`` before start() to enroll the
        # device in its farm's shared sweep group.
        self.sweeper = None
        self._sweep_group = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Connect and start sampling on the farm's or a one-member sweep group."""
        self.client.connect()
        self.client.subscribe(self.command_topic, qos=1)
        if self.sweeper is not None:
            self._sweep_group = self.sweeper.enroll(self)
        else:
            # A group of its own, phased from the device's own stream, so
            # a directly built device's report times depend on nothing
            # else in the run.
            self._sweep_group = SweepGroup(
                self.sim, self.config.farm, self.config.report_interval_s, self._rng
            )
            self._sweep_group.add(self)
        if self.config.mtbf_s > 0:
            self._failure_process = self.sim.spawn(
                self._failure_loop(), f"fail:{self.config.device_id}"
            )

    def stop(self) -> None:
        """Stop sampling and the failure clock, then disconnect.

        Leaves the sweep group *and* kills the failure process: a stopped
        device must neither report nor keep flipping ``failed`` state
        from a leaked failure process.
        """
        if self._failure_process is not None:
            self._failure_process.kill("stopped")
            self._failure_process = None
        if self._sweep_group is not None:
            self._sweep_group.remove(self)
            self._sweep_group = None
        self.client.disconnect()

    def _failure_loop(self):
        while True:
            yield self._rng.expovariate(1.0 / self.config.mtbf_s)
            self.failed = True
            self.sim.trace.emit(
                self.sim.now, "device", "transient failure", device=self.config.device_id
            )
            yield self.config.repair_time_s
            self.failed = False
            self.sim.trace.emit(
                self.sim.now, "device", "repaired", device=self.config.device_id
            )

    # -- telemetry -----------------------------------------------------------

    def read_measures(self) -> Optional[Dict[str, Any]]:
        """Subclass hook: return the attribute dict to report, or None."""
        raise NotImplementedError

    def report_once(self) -> bool:
        """Take one sample and publish it; returns True when sent."""
        if self.dead or self.failed:
            return False
        battery = self.battery
        if not battery.draw(SENSE_ENERGY_J, "sensing"):
            self._die()
            return False
        measures = self.read_measures()
        if measures is None:
            return False
        for hook in self.tamper_hooks:
            measures = hook(measures)
            if measures is None:
                return False
        measures = dict(measures)
        measures["ts"] = round(self.sim.clock.now, 3)
        payload = encode_payload(measures)
        energy = (
            len(payload) * CPU_ENERGY_J_PER_BYTE
            + self.security_energy_j_per_msg
            + self._radio_energy(len(payload))
        )
        if not battery.draw(energy, "radio+cpu"):
            self._die()
            return False
        if self.security_energy_j_per_msg:
            battery.draw(0.0, "crypto")  # category registration only
        # Each report starts a new causal chain: the trace root every
        # downstream hop (publish, route, context update, decision) hangs
        # from.  Head sampling happens here, once per reading.
        tracer = self.sim.tracer
        if tracer.enabled:
            with tracer.span(
                "device.report",
                "device",
                root=True,
                device=self.config.device_id,
                topic=self.attrs_topic,
            ):
                sent = self.client.publish(self.attrs_topic, payload, qos=self.config.qos)
        else:
            sent = self.client.publish(self.attrs_topic, payload, qos=self.config.qos)
        if sent:
            self.sent_reports += 1
        return sent

    def _radio_energy(self, payload_bytes: int) -> float:
        # LoRa-class per-byte TX cost plus a fixed wakeup cost.
        return 0.05 + payload_bytes * 0.0012

    def _die(self) -> None:
        if not self.dead:
            self.dead = True
            self.sim.trace.emit(
                self.sim.now, "device", "battery exhausted", device=self.config.device_id
            )

    # -- commands -----------------------------------------------------------

    def _handle_command(self, topic: str, payload: bytes, qos: int, retain: bool) -> None:
        if self.dead or self.failed:
            return
        command = decode_payload(payload)
        if command is None:
            return
        self.commands_handled += 1
        with self.sim.tracer.span(
            "device.command",
            "device",
            device=self.config.device_id,
            cmd=command.get("cmd", "?"),
        ):
            result = self.on_command(command)
            ack = {"cmd": command.get("cmd", "?"), "result": result, "ts": round(self.sim.now, 3)}
            self.client.publish(self.command_ack_topic, encode_payload(ack), qos=1)

    def on_command(self, command: Dict[str, Any]) -> str:
        """Subclass hook; return a result string for the ack."""
        return "ignored"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.config.device_id!r})"
