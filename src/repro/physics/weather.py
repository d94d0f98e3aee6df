"""Synthetic daily weather for the four SWAMP pilot climates.

The generator is a standard stochastic weather model:

* temperature follows a seasonal sinusoid with AR(1) day-to-day anomalies;
* precipitation occurrence is a two-state (wet/dry) Markov chain with
  seasonally varying transition probabilities; wet-day amounts are drawn
  from an exponential distribution with a seasonal mean;
* solar radiation is the clear-sky value scaled by a cloudiness factor that
  correlates with wet days;
* relative humidity and wind get seasonal means with noise.

Parameters are representative of each pilot's climate class (Köppen), which
is all the experiments rely on: the MATOPIBA dry season must actually be
dry, the Po valley summer must have occasional rain, Cartagena must be
water-scarce.  Southern-hemisphere profiles phase-shift the seasonality.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional

from repro.physics.et0 import (
    clear_sky_radiation,
    et0_penman_monteith,
    extraterrestrial_radiation,
)
from repro.simkernel.rng import SeededStream

import math


@dataclass(frozen=True)
class ClimateProfile:
    """Parameters of one pilot site's climate."""

    name: str
    latitude_deg: float
    altitude_m: float
    # Annual mean and half-amplitude of daily-mean temperature (°C); the
    # warmest day is mid-year for the northern hemisphere profiles and
    # year-start/end for southern ones (phase_shift_days).
    temp_mean_c: float
    temp_amplitude_c: float
    phase_shift_days: float
    diurnal_range_c: float
    temp_anomaly_sigma_c: float
    # Markov-chain rain: P(wet|dry) and P(wet|wet), each (winter, summer)
    # endpoints interpolated sinusoidally across the year.
    p_wet_dry: tuple
    p_wet_wet: tuple
    rain_mean_mm: tuple  # mean wet-day rainfall (winter, summer)
    rh_mean_pct: tuple  # (winter, summer)
    wind_mean_ms: float


# Northern-hemisphere day-of-year where summer peaks.
_NORTH_PEAK_DOY = 197.0


@lru_cache(maxsize=8192)
def _seasonal(day_of_year: int, winter_value: float, summer_value: float, phase_shift: float) -> float:
    """Interpolate between winter and summer endpoints with a sinusoid.

    Memoized on the full argument tuple: a season revisits the same
    (day-of-year, profile endpoints) combinations constantly, and the
    function is pure, so cached values match recomputation bit-for-bit.
    """
    angle = 2.0 * math.pi * (day_of_year - _NORTH_PEAK_DOY - phase_shift) / 365.0
    # cos(angle)=1 at the summer peak.
    weight = (1.0 + math.cos(angle)) / 2.0
    return winter_value + (summer_value - winter_value) * weight


EMILIA_ROMAGNA = ClimateProfile(
    name="emilia-romagna",
    latitude_deg=44.7,
    altitude_m=30.0,
    temp_mean_c=14.0,
    temp_amplitude_c=10.5,
    phase_shift_days=0.0,
    diurnal_range_c=9.0,
    temp_anomaly_sigma_c=1.8,
    p_wet_dry=(0.22, 0.12),
    p_wet_wet=(0.55, 0.35),
    rain_mean_mm=(6.5, 9.0),
    rh_mean_pct=(82.0, 62.0),
    wind_mean_ms=2.2,
)

CARTAGENA = ClimateProfile(
    name="cartagena",
    latitude_deg=37.6,
    altitude_m=10.0,
    temp_mean_c=18.5,
    temp_amplitude_c=7.5,
    phase_shift_days=0.0,
    diurnal_range_c=8.0,
    temp_anomaly_sigma_c=1.5,
    p_wet_dry=(0.08, 0.03),
    p_wet_wet=(0.35, 0.20),
    rain_mean_mm=(7.0, 5.0),
    rh_mean_pct=(72.0, 60.0),
    wind_mean_ms=3.0,
)

# Southern hemisphere: phase shift half a year.
PINHAL = ClimateProfile(
    name="espirito-santo-do-pinhal",
    latitude_deg=-22.2,
    altitude_m=870.0,
    temp_mean_c=19.5,
    temp_amplitude_c=4.5,
    phase_shift_days=182.5,
    diurnal_range_c=11.0,
    temp_anomaly_sigma_c=1.4,
    p_wet_dry=(0.10, 0.45),  # dry winter (Jun-Aug), wet summer
    p_wet_wet=(0.35, 0.70),
    rain_mean_mm=(5.0, 12.0),
    rh_mean_pct=(62.0, 78.0),
    wind_mean_ms=2.0,
)

BARREIRAS_MATOPIBA = ClimateProfile(
    name="barreiras-matopiba",
    latitude_deg=-12.15,
    altitude_m=720.0,
    temp_mean_c=24.5,
    temp_amplitude_c=2.5,
    phase_shift_days=182.5,
    diurnal_range_c=12.5,
    temp_anomaly_sigma_c=1.2,
    p_wet_dry=(0.04, 0.50),  # pronounced dry winter season
    p_wet_wet=(0.25, 0.72),
    rain_mean_mm=(4.0, 13.0),
    rh_mean_pct=(45.0, 78.0),
    wind_mean_ms=2.4,
)


@dataclass
class DailyWeather:
    """One day of weather at a site."""

    day_of_year: int
    day_index: int
    tmin_c: float
    tmax_c: float
    rh_mean_pct: float
    wind_ms: float
    solar_mj_m2: float
    rain_mm: float
    et0_mm: float

    @property
    def tmean_c(self) -> float:
        return (self.tmin_c + self.tmax_c) / 2.0


class WeatherGenerator:
    """Stateful daily weather generator for one site."""

    def __init__(
        self,
        profile: ClimateProfile,
        rng: SeededStream,
        start_day_of_year: int = 1,
    ) -> None:
        self.profile = profile
        self.rng = rng
        self.day_of_year = start_day_of_year
        self.day_index = 0
        self._anomaly = 0.0
        self._wet_yesterday = False

    def step(self) -> DailyWeather:
        """Generate the next day."""
        p = self.profile
        doy = self.day_of_year

        # Temperature: seasonal mean + AR(1) anomaly.
        seasonal_mean = _seasonal(
            doy, p.temp_mean_c - p.temp_amplitude_c, p.temp_mean_c + p.temp_amplitude_c, p.phase_shift_days
        )
        self._anomaly = 0.7 * self._anomaly + self.rng.gauss(0.0, p.temp_anomaly_sigma_c)
        tmean = seasonal_mean + self._anomaly
        half_range = p.diurnal_range_c / 2.0 * self.rng.uniform(0.85, 1.15)
        tmin = tmean - half_range
        tmax = tmean + half_range

        # Rain: Markov occurrence, exponential amount.
        p_wet = _seasonal(
            doy,
            p.p_wet_wet[0] if self._wet_yesterday else p.p_wet_dry[0],
            p.p_wet_wet[1] if self._wet_yesterday else p.p_wet_dry[1],
            p.phase_shift_days,
        )
        wet = self.rng.bernoulli(p_wet)
        rain = 0.0
        if wet:
            mean_amount = _seasonal(doy, p.rain_mean_mm[0], p.rain_mean_mm[1], p.phase_shift_days)
            rain = self.rng.expovariate(1.0 / mean_amount)
        self._wet_yesterday = wet

        # Solar: clear-sky scaled by cloudiness (wet days are cloudier).
        ra = extraterrestrial_radiation(p.latitude_deg, doy)
        rso = clear_sky_radiation(ra, p.altitude_m)
        cloud_fraction = self.rng.bounded_gauss(0.65 if wet else 0.25, 0.12, 0.05, 0.95)
        solar = rso * (1.0 - cloud_fraction * 0.75)

        # Humidity & wind.
        rh = _seasonal(doy, p.rh_mean_pct[0], p.rh_mean_pct[1], p.phase_shift_days)
        rh = self.rng.bounded_gauss(rh + (8.0 if wet else 0.0), 5.0, 20.0, 100.0)
        wind = max(0.3, self.rng.gauss(p.wind_mean_ms, 0.7))

        et0 = et0_penman_monteith(
            tmin, tmax, rh, wind, solar, p.latitude_deg, doy, p.altitude_m
        )

        day = DailyWeather(
            day_of_year=doy,
            day_index=self.day_index,
            tmin_c=tmin,
            tmax_c=tmax,
            rh_mean_pct=rh,
            wind_ms=wind,
            solar_mj_m2=solar,
            rain_mm=rain,
            et0_mm=et0,
        )
        self.day_of_year = doy % 365 + 1
        self.day_index += 1
        return day

    def generate(self, days: int) -> List[DailyWeather]:
        return [self.step() for _ in range(days)]

    def __iter__(self) -> Iterator[DailyWeather]:  # pragma: no cover - convenience
        while True:
            yield self.step()


PROFILES = {
    p.name: p for p in (EMILIA_ROMAGNA, CARTAGENA, PINHAL, BARREIRAS_MATOPIBA)
}
