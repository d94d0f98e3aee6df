"""Platform-integrated irrigation scheduler.

This is the component the whole pipeline exists to feed: it reads zone
state *from the context broker* (i.e. from sensed data, not ground truth),
runs the decision policy, and actuates through the IoT agent.  Sensor
tampering (E5) therefore corrupts its view exactly as it would in the real
platform, and a DoS that delays telemetry (E4) delays or starves its
decisions.

The scheduler wakes on a fixed cadence (default daily at 06:00 farm time).
For valve-per-zone farms it opens valves; for pivot farms it builds a VRI
prescription and starts a pass.
"""

from typing import Callable, Dict, List, Optional

from repro.agents.iot_agent import IoTAgent
from repro.context.broker import ContextBroker
from repro.irrigation.policy import IrrigationDecision, SoilMoisturePolicy
from repro.simkernel.clock import DAY, HOUR
from repro.simkernel.simulator import Simulator


class SchedulerStats:
    __slots__ = ("cycles", "decisions", "commands_sent", "skipped_no_data", "skipped_stale",
                 "actuation_depth_mm", "actuation_volume_m3")

    def __init__(self) -> None:
        self.cycles = 0
        self.decisions = 0
        self.commands_sent = 0
        self.skipped_no_data = 0
        self.skipped_stale = 0
        # Actuation actually commanded (post supply-gate scaling).
        self.actuation_depth_mm = 0.0
        self.actuation_volume_m3 = 0.0


class PlatformScheduler:
    """Daily decision loop over context-broker state.

    ``zone_bindings`` maps a zone entity id to the actuator that serves it:
    ``{"entity_id": ..., "device_id": ..., "taw_mm": ..., "raw_mm": ...}``.
    For pivots, use :meth:`bind_pivot` instead and per-zone entities are
    read for the prescription.
    """

    def __init__(
        self,
        sim: Simulator,
        context: ContextBroker,
        agent: IoTAgent,
        policy: Optional[SoilMoisturePolicy] = None,
        cycle_interval_s: float = DAY,
        first_cycle_at_s: float = 6 * HOUR,
        max_data_age_s: float = 6 * HOUR,
        forecast_provider: Optional[Callable[[], float]] = None,
        valve_rate_mm_h: float = 8.0,
        supply_gate: Optional[Callable[[float], float]] = None,
        uniform_pivot: bool = False,
    ) -> None:
        self.sim = sim
        self.context = context
        self.agent = agent
        self.policy = policy or SoilMoisturePolicy()
        self.cycle_interval_s = cycle_interval_s
        self.first_cycle_at_s = first_cycle_at_s
        self.max_data_age_s = max_data_age_s
        self.forecast_provider = forecast_provider
        self.valve_rate_mm_h = valve_rate_mm_h
        # Water-source constraint: given the cycle's total requested volume
        # (m³), returns the grantable fraction in [0, 1].  CBEC's canal
        # allocation and Intercrop's source mix plug in here.
        self.supply_gate = supply_gate
        # Uniform-rate mode: the pivot applies the *max* per-zone need
        # everywhere (worst-case sizing, what a risk-averse operator does
        # without VRI) — the comparison arm of experiments E1/E2.
        self.uniform_pivot = uniform_pivot
        self.stats = SchedulerStats()
        self._valve_bindings: List[dict] = []
        self._pivot_bindings: List[dict] = []
        self.decision_log: List[dict] = []
        # Called with every decision-log entry as it is appended; the
        # resilience layer journals degraded-mode decisions through this.
        self.on_decision: List[Callable[[dict], None]] = []
        # Optional supervisor heartbeat, called once per cycle.
        self.heartbeat: Optional[Callable[[], None]] = None
        # The crop's current growth stage, passed to the policy; the
        # pilot's daily loop sets it with the bindings' root depth.
        self.crop_stage: Optional[str] = None
        # Trace context of the last context attribute read (see
        # _sensed_depletion); None when tracing is off or data missing.
        self._last_reading_ctx = None
        self._process = None
        registry = sim.metrics
        stats = self.stats
        registry.register_counter("scheduler.cycles", lambda: stats.cycles)
        registry.register_counter("scheduler.decisions", lambda: stats.decisions)
        registry.register_counter("scheduler.commands_sent", lambda: stats.commands_sent)
        registry.register_counter("scheduler.skipped_no_data", lambda: stats.skipped_no_data)
        registry.register_counter("scheduler.skipped_stale", lambda: stats.skipped_stale)
        registry.register_counter("scheduler.actuation_depth_mm", lambda: stats.actuation_depth_mm)
        registry.register_counter(
            "scheduler.actuation_volume_m3", lambda: stats.actuation_volume_m3)

    # -- wiring -----------------------------------------------------------

    def bind_valve(
        self,
        zone_entity_id: str,
        valve_device_id: str,
        theta_fc: float,
        theta_wp: float,
        root_depth_m: float,
        depletion_fraction_p: float = 0.5,
        area_ha: float = 1.0,
    ) -> None:
        self._valve_bindings.append(
            {
                "entity_id": zone_entity_id,
                "device_id": valve_device_id,
                "theta_fc": theta_fc,
                "theta_wp": theta_wp,
                "root_depth_m": root_depth_m,
                "p": depletion_fraction_p,
                "area_ha": area_ha,
            }
        )

    def bind_pivot(
        self,
        pivot_device_id: str,
        zone_entities: List[dict],
    ) -> None:
        """``zone_entities``: list of dicts like bind_valve's zones plus
        ``zone_id`` (the pivot's prescription key)."""
        self._pivot_bindings.append({"device_id": pivot_device_id, "zones": zone_entities})

    def start(self) -> None:
        self._process = self.sim.spawn(self._loop(), "scheduler")

    # -- loop -----------------------------------------------------------

    def _loop(self):
        yield self.first_cycle_at_s
        while True:
            self.run_cycle()
            yield self.cycle_interval_s

    def run_cycle(self) -> None:
        self.stats.cycles += 1
        if self.heartbeat is not None:
            self.heartbeat()
        # Each cycle is its own trace root; per-zone decision spans hang
        # from it and *link* to the sensor-reading traces whose context
        # attributes fed the decision (cross-trace causality).
        with self.sim.tracer.span(
            "scheduler.cycle", "scheduler", root=True, cycle=self.stats.cycles
        ):
            forecast = self.forecast_provider() if self.forecast_provider else 0.0
            valve_plans = [
                plan for plan in
                (self._plan_valve(binding, forecast) for binding in self._valve_bindings)
                if plan is not None
            ]
            pivot_plans = [
                plan for plan in
                (self._plan_pivot(binding, forecast) for binding in self._pivot_bindings)
                if plan is not None
            ]
            fraction = self._granted_fraction(valve_plans, pivot_plans)
            for binding, depth, span in valve_plans:
                self._send_valve(binding, depth * fraction, span)
            for binding, prescription, span in pivot_plans:
                if fraction < 1.0:
                    prescription = {k: v * fraction for k, v in prescription.items()}
                self._send_pivot(binding, prescription, span)

    def _granted_fraction(self, valve_plans, pivot_plans) -> float:
        if self.supply_gate is None:
            return 1.0
        total_m3 = sum(
            depth * binding["area_ha"] * 10.0 for binding, depth, _span in valve_plans
        )
        for binding, prescription, _span in pivot_plans:
            areas = {z["zone_id"]: z.get("area_ha", 1.0) for z in binding["zones"]}
            total_m3 += sum(
                depth * areas.get(zone_id, 1.0) * 10.0
                for zone_id, depth in prescription.items()
            )
        if total_m3 <= 0:
            return 1.0
        return max(0.0, min(1.0, self.supply_gate(total_m3)))

    # -- sensed-state helpers -----------------------------------------------------

    def _sensed_depletion(self, binding: dict) -> Optional[float]:
        """Depletion (mm) from the context broker's view, or None if the
        data is missing/stale.

        Side channel for tracing: ``_last_reading_ctx`` holds the trace
        context the context broker stamped on the attribute it read —
        the link from "this decision" back to "that sensor reading".
        """
        self._last_reading_ctx = None
        try:
            entity = self.context.get_entity(binding["entity_id"])
        except Exception:
            self.stats.skipped_no_data += 1
            return None
        attribute = entity.attribute("soilMoisture")
        if attribute is None or not isinstance(attribute.value, (int, float)):
            self.stats.skipped_no_data += 1
            return None
        if self.sim.now - attribute.timestamp > self.max_data_age_s:
            self.stats.skipped_stale += 1
            return None
        self._last_reading_ctx = attribute.trace_ctx
        theta = float(attribute.value)
        depletion = max(0.0, (binding["theta_fc"] - theta) * binding["root_depth_m"] * 1000.0)
        return depletion

    def _raw_mm(self, binding: dict) -> float:
        taw = (binding["theta_fc"] - binding["theta_wp"]) * binding["root_depth_m"] * 1000.0
        return binding["p"] * taw

    # -- actuation -----------------------------------------------------------

    def _plan_valve(self, binding: dict, forecast: float):
        """Decide one valve zone; returns (binding, depth, span) or None."""
        tracer = self.sim.tracer
        depletion = self._sensed_depletion(binding)
        if depletion is None:
            return None
        decision = self.policy.decide(
            depletion, self._raw_mm(binding), forecast, self.crop_stage)
        span = tracer.start_span(
            "scheduler.decision", "scheduler", entity=binding["entity_id"],
            irrigate=decision.irrigate, reason=decision.reason,
        )
        if span is not None:
            span.add_link(self._last_reading_ctx)
        self.stats.decisions += 1
        entry = {
            "t": self.sim.now,
            "entity": binding["entity_id"],
            "depth_mm": decision.depth_mm,
            "reason": decision.reason,
        }
        self.decision_log.append(entry)
        for hook in self.on_decision:
            hook(entry)
        if not decision.irrigate:
            tracer.end_span(span)
            return None
        # The open span rides to the send phase so the actuator command
        # nests under the decision that caused it.
        return (binding, decision.depth_mm, span)

    def _send_valve(self, binding: dict, depth_mm: float, span=None) -> None:
        tracer = self.sim.tracer
        try:
            if depth_mm <= 0:
                return
            with tracer.activate(span):
                sent = self.agent.send_command(
                    binding["device_id"], {"cmd": "open", "depth_mm": round(depth_mm, 2)}
                )
            if sent:
                self.stats.commands_sent += 1
                self.stats.actuation_depth_mm += depth_mm
                self.stats.actuation_volume_m3 += depth_mm * binding.get("area_ha", 1.0) * 10.0
        finally:
            tracer.end_span(span)

    def _plan_pivot(self, binding: dict, forecast: float):
        """Decide one pivot's prescription; returns (binding, map, span) or None."""
        tracer = self.sim.tracer
        span = tracer.start_span(
            "scheduler.decision", "scheduler", pivot=binding["device_id"]
        )
        prescription: Dict[str, float] = {}
        any_data = False
        for zone_binding in binding["zones"]:
            depletion = self._sensed_depletion(zone_binding)
            if depletion is None:
                continue
            if span is not None:
                span.add_link(self._last_reading_ctx)
            any_data = True
            decision = self.policy.decide(
                depletion, self._raw_mm(zone_binding), forecast, self.crop_stage)
            self.stats.decisions += 1
            if decision.irrigate:
                prescription[zone_binding["zone_id"]] = round(decision.depth_mm, 2)
        if not any_data:
            tracer.end_span(span)
            return None
        entry = {
            "t": self.sim.now, "pivot": binding["device_id"], "prescription": dict(prescription)
        }
        self.decision_log.append(entry)
        for hook in self.on_decision:
            hook(entry)
        if not prescription:
            tracer.end_span(span)
            return None
        if self.uniform_pivot:
            worst = max(prescription.values())
            prescription = {z["zone_id"]: worst for z in binding["zones"]}
        return (binding, prescription, span)

    def _send_pivot(self, binding: dict, prescription: Dict[str, float], span=None) -> None:
        tracer = self.sim.tracer
        try:
            prescription = {k: round(v, 2) for k, v in prescription.items() if v > 0}
            if not prescription:
                return
            with tracer.activate(span):
                sent = self.agent.send_command(
                    binding["device_id"], {"cmd": "start_pass", "prescription": prescription}
                )
            if sent:
                self.stats.commands_sent += 1
                areas = {z["zone_id"]: z.get("area_ha", 1.0) for z in binding["zones"]}
                for zone_id, depth in prescription.items():
                    self.stats.actuation_depth_mm += depth
                    self.stats.actuation_volume_m3 += depth * areas.get(zone_id, 1.0) * 10.0
        finally:
            tracer.end_span(span)
