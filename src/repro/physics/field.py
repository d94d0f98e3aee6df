"""Spatial field model: a grid of management zones.

Spatial variability of water-holding capacity is what makes Variable Rate
Irrigation pay off (experiment E2): with a uniform field, uniform-rate
irrigation is already optimal; with variable soils, the uniform rate
over-waters some zones and stresses others.  Zones get soil properties
scaled by a spatially *correlated* random factor — neighbouring zones are
similar, as in a real field — produced by smoothing white noise with its
grid neighbours.
"""

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.physics.crop import Crop, YieldTracker
from repro.physics.soil import SoilProperties, SoilWaterBalance
from repro.simkernel.rng import SeededStream


@dataclass
class FieldZone:
    """One management zone: soil water balance + crop yield tracking."""

    zone_id: str
    row: int
    col: int
    area_ha: float
    water_balance: SoilWaterBalance
    crop: Crop
    yield_tracker: YieldTracker = dataclass_field(init=False)
    season_day: int = 0
    capacity_factor: float = 1.0

    def __post_init__(self) -> None:
        self.yield_tracker = YieldTracker(self.crop)

    @property
    def theta(self) -> float:
        return self.water_balance.theta

    def advance_day(self, et0_mm: float, rain_mm: float) -> dict:
        """One day of crop water dynamics (rain applied before extraction)."""
        day = self.season_day
        kc = self.crop.kc_at(day)
        stage = self.crop.stage_at(day)
        self.water_balance.depletion_fraction_p = stage.depletion_fraction_p
        self.water_balance.set_root_depth(self.crop.root_depth_at(day))
        if rain_mm > 0:
            self.water_balance.rain(rain_mm)
        result = self.water_balance.step(et0_mm * kc)
        self.yield_tracker.record_day(day, result["et_actual_mm"], et0_mm * kc)
        self.season_day += 1
        return result

    def irrigate(self, mm: float) -> dict:
        return self.water_balance.irrigate(mm)


class Field:
    """A rows×cols grid of zones with correlated soil variability."""

    def __init__(
        self,
        name: str,
        rows: int,
        cols: int,
        base_soil: SoilProperties,
        crop: Crop,
        rng: SeededStream,
        zone_area_ha: float = 1.0,
        spatial_cv: float = 0.0,
        initial_theta: Optional[float] = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if spatial_cv < 0:
            raise ValueError("spatial_cv must be non-negative")
        self.name = name
        self.rows = rows
        self.cols = cols
        self.crop = crop
        self.base_soil = base_soil
        self.zone_area_ha = zone_area_ha
        self.spatial_cv = spatial_cv
        factors = self._correlated_factors(rows, cols, spatial_cv, rng)
        self.zones: List[FieldZone] = []
        self._by_position: Dict[Tuple[int, int], FieldZone] = {}
        for r in range(rows):
            for c in range(cols):
                factor = factors[r][c]
                soil = base_soil.scaled(factor) if spatial_cv > 0 else base_soil
                balance = SoilWaterBalance(
                    soil,
                    root_depth_m=crop.root_depth_at(0),
                    depletion_fraction_p=crop.stages[0].depletion_fraction_p,
                    initial_theta=initial_theta,
                )
                zone = FieldZone(
                    zone_id=f"{name}/z{r}-{c}",
                    row=r,
                    col=c,
                    area_ha=zone_area_ha,
                    water_balance=balance,
                    crop=crop,
                    capacity_factor=factor,
                )
                self.zones.append(zone)
                self._by_position[(r, c)] = zone

    @staticmethod
    def _correlated_factors(
        rows: int, cols: int, cv: float, rng: SeededStream
    ) -> List[List[float]]:
        """Spatially smoothed multiplicative capacity factors (mean ≈ 1)."""
        noise = [[rng.gauss(0.0, 1.0) for _ in range(cols)] for _ in range(rows)]
        if cv == 0.0:
            return [[1.0] * cols for _ in range(rows)]
        smoothed = [[0.0] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                total, count = 0.0, 0
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < rows and 0 <= cc < cols:
                            total += noise[rr][cc]
                            count += 1
                smoothed[r][c] = total / count
        # Smoothing shrinks the variance; rescale to hit the requested CV.
        flat = [v for row in smoothed for v in row]
        mean = sum(flat) / len(flat)
        var = sum((v - mean) ** 2 for v in flat) / len(flat)
        std = var ** 0.5 or 1.0
        return [
            [max(0.4, 1.0 + (v - mean) / std * cv) for v in row]
            for row in smoothed
        ]

    # -- access -----------------------------------------------------------

    def zone(self, row: int, col: int) -> FieldZone:
        return self._by_position[(row, col)]

    def zone_by_id(self, zone_id: str) -> FieldZone:
        for zone in self.zones:
            if zone.zone_id == zone_id:
                return zone
        raise KeyError(zone_id)

    def __iter__(self) -> Iterator[FieldZone]:
        return iter(self.zones)

    def __len__(self) -> int:
        return len(self.zones)

    @property
    def area_ha(self) -> float:
        return sum(z.area_ha for z in self.zones)

    # -- bulk dynamics -----------------------------------------------------------

    def advance_day(self, et0_mm: float, rain_mm: float) -> None:
        """Advance every zone one day.

        Fast path: all zones share the field's crop and (normally) the same
        season clock, so the per-day crop lookups — Kc, growth stage, root
        depth — are hoisted out of the zone loop.  The per-zone arithmetic
        is exactly :meth:`FieldZone.advance_day`'s, so results are
        bit-identical to the per-zone path, which remains as the fallback
        for zones whose clocks were advanced individually.
        """
        zones = self.zones
        if not zones:
            return
        crop = self.crop
        day = zones[0].season_day
        if any(z.season_day != day or z.crop is not crop for z in zones):
            for zone in zones:
                zone.advance_day(et0_mm, rain_mm)
            return
        etc_mm = et0_mm * crop.kc_at(day)
        p = crop.stage_at(day).depletion_fraction_p
        root_depth = crop.root_depth_at(day)
        next_day = day + 1
        for zone in zones:
            balance = zone.water_balance
            balance.depletion_fraction_p = p
            balance.set_root_depth(root_depth)
            if rain_mm > 0:
                balance.rain(rain_mm)
            result = balance.step(etc_mm)
            zone.yield_tracker.record_day(day, result["et_actual_mm"], etc_mm)
            zone.season_day = next_day

    # -- aggregate accounting -----------------------------------------------------

    def total_irrigation_m3(self) -> float:
        """Total irrigation applied over the season, in m³ (1 mm·ha = 10 m³)."""
        return sum(z.water_balance.cum_irrigation_mm * z.area_ha * 10.0 for z in self.zones)

    def mean_relative_yield(self) -> float:
        return sum(z.yield_tracker.relative_yield for z in self.zones) / len(self.zones)

    def total_yield_t(self) -> float:
        return sum(z.yield_tracker.yield_t_ha * z.area_ha for z in self.zones)

    def capacity_cv(self) -> float:
        """Realized coefficient of variation of the capacity factors."""
        factors = [z.capacity_factor for z in self.zones]
        mean = sum(factors) / len(factors)
        var = sum((f - mean) ** 2 for f in factors) / len(factors)
        return (var ** 0.5) / mean if mean else 0.0
