"""Pure irrigation decision logic.

Kept free of platform dependencies so the same policy drives both the
platform-integrated scheduler (commands over MQTT) and the tight-loop
benchmark harness.  All quantities are in mm of water depth.
"""

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class IrrigationDecision:
    """What to do for one zone today."""

    depth_mm: float
    reason: str

    @property
    def irrigate(self) -> bool:
        return self.depth_mm > 0.0


class SoilMoisturePolicy:
    """Sensor-feedback deficit irrigation (the SWAMP smart policy).

    Irrigate when root-zone depletion exceeds ``trigger_fraction`` of
    readily available water; refill to ``refill_fraction`` of the deficit
    (slightly under field capacity leaves room for rain).  Skip when the
    rain forecast covers the deficit.  ``stage_name``, the crop's current
    growth stage, is for stage-aware subclasses; this policy ignores it.
    """

    def __init__(
        self,
        trigger_fraction: float = 0.9,
        refill_fraction: float = 0.9,
        forecast_discount: float = 0.75,
        min_application_mm: float = 2.0,
        max_application_mm: float = 30.0,
    ) -> None:
        if not 0.0 < trigger_fraction <= 1.5:
            raise ValueError("trigger_fraction out of range")
        if not 0.0 < refill_fraction <= 1.0:
            raise ValueError("refill_fraction out of range")
        self.trigger_fraction = trigger_fraction
        self.refill_fraction = refill_fraction
        self.forecast_discount = forecast_discount
        self.min_application_mm = min_application_mm
        self.max_application_mm = max_application_mm

    def decide(
        self,
        depletion_mm: float,
        raw_mm: float,
        forecast_rain_mm: float = 0.0,
        stage_name: Optional[str] = None,
    ) -> IrrigationDecision:
        if raw_mm <= 0:
            return IrrigationDecision(0.0, "no-capacity")
        trigger_level = self.trigger_fraction * raw_mm
        if depletion_mm < trigger_level:
            return IrrigationDecision(0.0, "moist-enough")
        effective_rain = forecast_rain_mm * self.forecast_discount
        net_deficit = depletion_mm * self.refill_fraction - effective_rain
        if net_deficit < self.min_application_mm:
            return IrrigationDecision(0.0, "rain-expected")
        depth = min(net_deficit, self.max_application_mm)
        return IrrigationDecision(depth, "deficit-refill")


class DeficitPolicy(SoilMoisturePolicy):
    """Regulated deficit irrigation (the Guaspari wine-quality strategy).

    Refills only to ``deficit_target`` of RAW during configured stages —
    controlled stress concentrates berry flavour.  Stages not listed, and
    a ``stage_name`` of None, get the full-refill behaviour.
    """

    def __init__(self, deficit_stages=("veraison", "ripening"), deficit_target: float = 0.6, **kwargs):
        super().__init__(**kwargs)
        self.deficit_stages = set(deficit_stages)
        self.deficit_target = deficit_target

    def decide(
        self,
        depletion_mm: float,
        raw_mm: float,
        forecast_rain_mm: float = 0.0,
        stage_name: Optional[str] = None,
    ) -> IrrigationDecision:
        decision = super().decide(depletion_mm, raw_mm, forecast_rain_mm)
        if stage_name in self.deficit_stages and decision.irrigate:
            return IrrigationDecision(decision.depth_mm * self.deficit_target, "deficit-regulated")
        return decision
