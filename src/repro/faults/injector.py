"""The fault injector: binds a :class:`FaultPlan` to live platform objects.

A pilot with a fault plan builds the injector in the assembly step
``repro.core.stages.build_fault_injector``, which registers the pilot's
links, brokers, replicator and device fleet as named targets, then calls
:meth:`FaultInjector.apply` with the configured plan.  Every injection and
recovery is executed by plain scheduled events on the sim clock — never
wall time, never un-seeded randomness — so a fault scenario is exactly as
reproducible as the fault-free run it perturbs.

Telemetry: ``faults.injected`` / ``faults.recovered`` counters (labeled by
kind), a ``faults.active`` gauge, and a per-kind ``faults.recovery_time_s``
histogram measuring injection→recovery spans.
"""

from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError
from repro.network.link import LinkState
from repro.network.topology import Network
from repro.simkernel.simulator import Simulator

_RECOVERY_BUCKETS = (1.0, 10.0, 60.0, 300.0, 900.0, 3600.0, 6 * 3600.0, 24 * 3600.0)


class _FogTarget:
    """Everything a fog-node crash touches: broker, sync daemon, links."""

    __slots__ = ("broker", "replicator", "addresses")

    def __init__(self, broker, replicator, addresses: List[str]) -> None:
        self.broker = broker
        self.replicator = replicator
        self.addresses = list(addresses)


class FaultInjector:
    """Executes fault plans against registered targets."""

    def __init__(self, sim: Simulator, network: Optional[Network] = None) -> None:
        self.sim = sim
        self.network = network
        self._pairs: Dict[str, Tuple[str, str]] = {}
        self._brokers: Dict[str, object] = {}
        self._replicators: Dict[str, object] = {}
        self._devices: Dict[str, object] = {}
        self._fogs: Dict[str, _FogTarget] = {}
        self._stores: Dict[str, object] = {}
        self._endpoints: Dict[str, object] = {}
        self.injected = 0
        self.recovered = 0
        # fault kind -> count, behind the faults.injected/recovered{kind}
        # views (each registered when its kind first occurs).
        self.injected_by_kind: Dict[str, int] = {}
        self.recovered_by_kind: Dict[str, int] = {}
        self.plans_applied: List[str] = []
        # event identity -> injection sim time, while the fault is active.
        self._active: Dict[int, float] = {}
        # device id -> installed stuck-at tamper hook, while active.
        self._stuck_hooks: Dict[str, object] = {}
        registry = sim.metrics
        self._registry = registry
        self._m_recovery: Dict[str, object] = {}
        registry.register_callback("faults.active", lambda: float(len(self._active)))

    # -- target registration -----------------------------------------------------

    def register_pair(self, alias: str, a: str, b: str) -> None:
        """Name a node pair so plans can say e.g. ``"wan"`` for the backhaul."""
        self._pairs[alias] = (a, b)

    def register_broker(self, alias: str, broker) -> None:
        self._brokers[alias] = broker

    def register_replicator(self, alias: str, replicator) -> None:
        self._replicators[alias] = replicator

    def register_device(self, device) -> None:
        self._devices[device.config.device_id] = device

    def register_fog(self, alias: str, broker, replicator, addresses: List[str]) -> None:
        self._fogs[alias] = _FogTarget(broker, replicator, addresses)

    def register_store(self, alias: str, durability) -> None:
        """Name a :class:`~repro.store.durable.DurabilityService` for
        ``disk_*`` / ``fsync_lost`` / ``process_kill`` faults."""
        self._stores[alias] = durability

    def register_endpoint(self, alias: str, endpoint) -> None:
        """Name a delivery :class:`SimulatedEndpoint` for ``endpoint_outage``."""
        self._endpoints[alias] = endpoint

    # -- plan execution -----------------------------------------------------------

    def apply(self, plan: FaultPlan) -> None:
        """Validate ``plan`` against the registered targets and schedule it."""
        plan.validate()
        for event in plan.sorted_events():
            self._check_target(event)
        for event in plan.sorted_events():
            self.sim.schedule_at(
                event.at_s, self._inject, (event,), label=f"fault:{event.kind}:{event.target}"
            )
            if event.recovers:
                self.sim.schedule_at(
                    event.at_s + event.duration_s,
                    self._recover,
                    (event,),
                    label=f"recover:{event.kind}:{event.target}",
                )
        self.plans_applied.append(plan.name)
        self.sim.trace.emit(
            self.sim.now, "faults", "plan applied", plan=plan.name, events=len(plan.events)
        )

    def _check_target(self, event: FaultEvent) -> None:
        """Fail at schedule time, not mid-run, when a target is unknown."""
        kind = event.kind
        if kind in ("link_partition", "radio_jam"):
            self._resolve_pair(event.target)
            if self.network is None:
                raise FaultPlanError(f"fault {kind!r} needs a network")
        elif kind == "broker_restart":
            if event.target not in self._brokers:
                raise FaultPlanError(
                    f"unknown broker {event.target!r}; registered: {sorted(self._brokers)}"
                )
        elif kind == "fog_crash":
            if event.target not in self._fogs:
                raise FaultPlanError(
                    f"unknown fog target {event.target!r}; registered: {sorted(self._fogs)}"
                )
        elif kind in ("disk_torn_write", "disk_stall", "fsync_lost", "process_kill"):
            if event.target not in self._stores:
                raise FaultPlanError(
                    f"unknown store {event.target!r}; registered: {sorted(self._stores)}"
                )
        elif kind == "endpoint_outage":
            if event.target not in self._endpoints:
                raise FaultPlanError(
                    f"unknown endpoint {event.target!r}; registered: {sorted(self._endpoints)}"
                )
        else:  # device faults
            if event.target not in self._devices:
                raise FaultPlanError(
                    f"unknown device {event.target!r}; registered: {sorted(self._devices)}"
                )

    def _resolve_pair(self, target: str) -> Tuple[str, str]:
        if "|" in target:
            a, _, b = target.partition("|")
            if not a or not b:
                raise FaultPlanError(f"bad link target {target!r}; expected 'a|b'")
            return a, b
        if target in self._pairs:
            return self._pairs[target]
        raise FaultPlanError(
            f"unknown link target {target!r}; registered aliases: {sorted(self._pairs)}"
        )

    # -- telemetry -----------------------------------------------------------

    def _count(self, table: Dict[str, int], name: str, kind: str) -> None:
        if kind not in table:
            table[kind] = 0
            self._registry.register_counter(name, lambda: table[kind], {"kind": kind})
        table[kind] += 1

    def _note_injected(self, event: FaultEvent) -> None:
        self.injected += 1
        self._count(self.injected_by_kind, "faults.injected", event.kind)
        self._active[id(event)] = self.sim.now
        self.sim.trace.emit(
            self.sim.now, "faults", "fault injected",
            kind=event.kind, target=event.target,
        )

    def _note_recovered(self, event: FaultEvent) -> None:
        started = self._active.pop(id(event), None)
        self.recovered += 1
        self._count(self.recovered_by_kind, "faults.recovered", event.kind)
        if started is not None:
            if event.kind not in self._m_recovery:
                self._m_recovery[event.kind] = self._registry.histogram(
                    "faults.recovery_time_s", {"kind": event.kind},
                    buckets=_RECOVERY_BUCKETS,
                )
            self._m_recovery[event.kind].observe(self.sim.now - started)
        self.sim.trace.emit(
            self.sim.now, "faults", "fault recovered",
            kind=event.kind, target=event.target,
        )

    # -- injection / recovery dispatch --------------------------------------------

    def _inject(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_inject_{event.kind}")
        handler(event)
        self._note_injected(event)
        if not event.recovers:
            # One-shot or never-healing faults stay out of the active gauge:
            # nothing in this run will ever recover them.
            self._active.pop(id(event), None)

    def _recover(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_recover_{event.kind}", None)
        if handler is not None:
            handler(event)
        self._note_recovered(event)

    # link partition --------------------------------------------------------------

    def _inject_link_partition(self, event: FaultEvent) -> None:
        a, b = self._resolve_pair(event.target)
        self.network.partition(a, b)

    def _recover_link_partition(self, event: FaultEvent) -> None:
        a, b = self._resolve_pair(event.target)
        self.network.heal(a, b)

    # radio jam -------------------------------------------------------------------

    def _inject_radio_jam(self, event: FaultEvent) -> None:
        a, b = self._resolve_pair(event.target)
        self.network.jam(a, b, loss=float(event.params.get("loss", 0.9)))

    def _recover_radio_jam(self, event: FaultEvent) -> None:
        a, b = self._resolve_pair(event.target)
        self.network.unjam(a, b)

    # broker restart --------------------------------------------------------------

    def _set_incident_links(self, address: str, state: LinkState) -> None:
        if self.network is None:
            return
        for (src, dst), link in self.network.links.items():
            if address in (src, dst):
                link.set_state(state)
        self.network._routes.clear()

    def _inject_broker_restart(self, event: FaultEvent) -> None:
        broker = self._brokers[event.target]
        broker.restart()
        if event.recovers:
            # An outage window: the broker host is unreachable until recovery.
            self._set_incident_links(broker.address, LinkState.DOWN)

    def _recover_broker_restart(self, event: FaultEvent) -> None:
        broker = self._brokers[event.target]
        self._set_incident_links(broker.address, LinkState.UP)

    # fog crash -------------------------------------------------------------------

    def _inject_fog_crash(self, event: FaultEvent) -> None:
        fog = self._fogs[event.target]
        if fog.broker is not None:
            fog.broker.restart()
        if fog.replicator is not None:
            fog.replicator.crash()
        if event.recovers:
            for address in fog.addresses:
                self._set_incident_links(address, LinkState.DOWN)

    def _recover_fog_crash(self, event: FaultEvent) -> None:
        fog = self._fogs[event.target]
        for address in fog.addresses:
            self._set_incident_links(address, LinkState.UP)
        if fog.replicator is not None:
            fog.replicator.restart()

    # sensor dropout --------------------------------------------------------------

    def _inject_sensor_dropout(self, event: FaultEvent) -> None:
        self._devices[event.target].failed = True

    def _recover_sensor_dropout(self, event: FaultEvent) -> None:
        self._devices[event.target].failed = False

    # sensor stuck-at -------------------------------------------------------------

    def _inject_sensor_stuck(self, event: FaultEvent) -> None:
        device = self._devices[event.target]
        state: Dict[str, dict] = {}

        def hook(measures):
            # Freeze at the first post-fault reading; timestamps stay live
            # because the device stamps ``ts`` after tamper hooks run —
            # exactly the hard-to-detect failure mode of a fouled probe.
            if "frozen" not in state:
                state["frozen"] = dict(measures)
            return dict(state["frozen"])

        self._stuck_hooks[event.target] = hook
        device.tamper_hooks.append(hook)

    def _recover_sensor_stuck(self, event: FaultEvent) -> None:
        device = self._devices[event.target]
        hook = self._stuck_hooks.pop(event.target, None)
        if hook is not None and hook in device.tamper_hooks:
            device.tamper_hooks.remove(hook)

    # battery brownout ------------------------------------------------------------

    def _inject_battery_brownout(self, event: FaultEvent) -> None:
        device = self._devices[event.target]
        fraction = float(event.params.get("fraction", 0.5))
        fraction = min(max(fraction, 0.0), 1.0)
        device.battery.draw(fraction * device.battery.remaining_j, "brownout")

    # storage faults --------------------------------------------------------------

    def _inject_disk_torn_write(self, event: FaultEvent) -> None:
        durability = self._stores[event.target]
        durability.store.faults.arm_torn_write(
            float(event.params.get("fraction", 0.5))
        )

    def _inject_disk_stall(self, event: FaultEvent) -> None:
        self._stores[event.target].store.faults.stalled = True

    def _recover_disk_stall(self, event: FaultEvent) -> None:
        self._stores[event.target].store.faults.stalled = False

    def _inject_fsync_lost(self, event: FaultEvent) -> None:
        self._stores[event.target].store.faults.fsync_lost = True

    def _recover_fsync_lost(self, event: FaultEvent) -> None:
        self._stores[event.target].store.faults.fsync_lost = False

    def _inject_process_kill(self, event: FaultEvent) -> None:
        durability = self._stores[event.target]
        durability.crash_and_recover(
            int(event.params.get("surviving_tail_bytes", 0))
        )

    # endpoint outage --------------------------------------------------------------

    def _inject_endpoint_outage(self, event: FaultEvent) -> None:
        self._endpoints[event.target].down = True

    def _recover_endpoint_outage(self, event: FaultEvent) -> None:
        self._endpoints[event.target].down = False

    # -- inspection -----------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)
