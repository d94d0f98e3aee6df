"""Tests for irrigation policies, VRI, distribution and source mix."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.irrigation import (
    Canal,
    DesalinationPlant,
    DistributionNetwork,
    FarmOfftake,
    FixedCalendarPolicy,
    Reservoir,
    SoilMoisturePolicy,
    SourceMixOptimizer,
    WaterSource,
    build_prescription,
    uniform_prescription,
)
from repro.irrigation.baselines import RainBlindEtPolicy
from repro.irrigation.policy import DeficitPolicy
from repro.irrigation.vri import prescription_volume_m3
from repro.physics import Field, LOAM, SOYBEAN
from repro.simkernel.rng import RngRegistry


class TestSoilMoisturePolicy:
    def test_no_irrigation_when_moist(self):
        policy = SoilMoisturePolicy()
        decision = policy.decide(depletion_mm=10.0, raw_mm=40.0)
        assert not decision.irrigate
        assert decision.reason == "moist-enough"

    def test_irrigates_at_trigger(self):
        policy = SoilMoisturePolicy(trigger_fraction=0.9)
        decision = policy.decide(depletion_mm=37.0, raw_mm=40.0)
        assert decision.irrigate
        assert decision.depth_mm == pytest.approx(min(37.0 * 0.9, policy.max_application_mm))

    def test_rain_forecast_skips(self):
        policy = SoilMoisturePolicy()
        decision = policy.decide(depletion_mm=38.0, raw_mm=40.0, forecast_rain_mm=50.0)
        assert not decision.irrigate
        assert decision.reason == "rain-expected"

    def test_rain_forecast_reduces(self):
        policy = SoilMoisturePolicy()
        with_rain = policy.decide(40.0, 40.0, forecast_rain_mm=10.0)
        without = policy.decide(40.0, 40.0)
        assert 0 < with_rain.depth_mm < without.depth_mm

    def test_max_application_cap(self):
        policy = SoilMoisturePolicy(max_application_mm=20.0)
        decision = policy.decide(depletion_mm=100.0, raw_mm=50.0)
        assert decision.depth_mm == 20.0

    def test_zero_capacity_never_irrigates(self):
        assert not SoilMoisturePolicy().decide(50.0, 0.0).irrigate

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SoilMoisturePolicy(trigger_fraction=0.0)
        with pytest.raises(ValueError):
            SoilMoisturePolicy(refill_fraction=1.5)

    @given(
        depletion=st.floats(min_value=0, max_value=200),
        raw=st.floats(min_value=1, max_value=100),
        rain=st.floats(min_value=0, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_depth_bounded(self, depletion, raw, rain):
        policy = SoilMoisturePolicy()
        decision = policy.decide(depletion, raw, rain)
        assert 0.0 <= decision.depth_mm <= policy.max_application_mm


class TestDeficitPolicy:
    def test_deficit_stage_reduces_depth(self):
        policy = DeficitPolicy(deficit_stages=("ripening",), deficit_target=0.5)
        normal = policy.decide(40.0, 40.0, stage_name="flowering")
        deficit = policy.decide(40.0, 40.0, stage_name="ripening")
        assert deficit.depth_mm == pytest.approx(normal.depth_mm * 0.5)
        assert deficit.reason == "deficit-regulated"

    def test_non_deficit_stage_unchanged(self):
        policy = DeficitPolicy(deficit_stages=("ripening",))
        assert policy.decide(40.0, 40.0, stage_name="initial").reason == "deficit-refill"
        assert policy.decide(40.0, 40.0).reason == "deficit-refill"


class TestBaselines:
    def test_fixed_calendar_fires_on_interval(self):
        policy = FixedCalendarPolicy(interval_days=3, depth_mm=25.0)
        fired = [d for d in range(12) if policy.decide(d).irrigate]
        assert fired == [0, 3, 6, 9]

    def test_fixed_calendar_validation(self):
        with pytest.raises(ValueError):
            FixedCalendarPolicy(interval_days=0)
        with pytest.raises(ValueError):
            FixedCalendarPolicy(depth_mm=0)

    def test_rain_blind_replaces_et(self):
        policy = RainBlindEtPolicy()
        assert policy.decide(6.0).depth_mm == pytest.approx(6.0)
        assert policy.decide(6.0, kc=0.5).depth_mm == pytest.approx(3.0)
        assert not policy.decide(0.2).irrigate


class TestVri:
    def make_field(self, cv=0.3):
        return Field("f", 4, 4, LOAM, SOYBEAN, RngRegistry(7).stream("field"), spatial_cv=cv)

    def dry_down(self, field, days=8):
        for _ in range(days):
            field.advance_day(et0_mm=6.0, rain_mm=0.0)

    def test_prescription_tracks_depletion(self):
        field = self.make_field()
        self.dry_down(field, days=10)
        prescription = build_prescription(field.zones)
        assert any(v > 0 for v in prescription.values())
        # Zones with lower capacity deplete their RAW sooner; at least the
        # prescription must not be uniform on a variable field.
        depths = set(round(v, 3) for v in prescription.values())
        assert len(depths) > 1

    def test_uniform_sized_by_worst_zone(self):
        field = self.make_field()
        self.dry_down(field, days=10)
        uniform = uniform_prescription(field.zones)
        vri = build_prescription(field.zones)
        worst = max(vri.values())
        assert all(v == pytest.approx(max(worst, max(vri.values()))) for v in uniform.values())

    def test_vri_uses_less_water_on_variable_field(self):
        field = self.make_field(cv=0.3)
        self.dry_down(field, days=10)
        vri_volume = prescription_volume_m3(build_prescription(field.zones), field.zones)
        uniform_volume = prescription_volume_m3(uniform_prescription(field.zones), field.zones)
        assert vri_volume < uniform_volume

    def test_vri_equals_uniform_on_homogeneous_field(self):
        field = self.make_field(cv=0.0)
        self.dry_down(field, days=10)
        vri_volume = prescription_volume_m3(build_prescription(field.zones), field.zones)
        uniform_volume = prescription_volume_m3(uniform_prescription(field.zones), field.zones)
        assert vri_volume == pytest.approx(uniform_volume, rel=0.01)

    def test_depletion_reader_override(self):
        """A tampered reader changes the prescription (the E5 mechanism)."""
        field = self.make_field(cv=0.0)
        self.dry_down(field, days=10)
        honest = build_prescription(field.zones)
        lying = build_prescription(field.zones, depletion_reader=lambda z: 0.0)
        assert sum(lying.values()) == 0.0
        assert sum(honest.values()) > 0.0


class TestDistribution:
    def make_network(self):
        reservoir = Reservoir("res", capacity_m3=100_000.0)
        network = DistributionNetwork(reservoir)
        network.add_canal(Canal("main", None, capacity_m3_day=50_000.0, loss_fraction=0.1))
        network.add_canal(Canal("north", "main", capacity_m3_day=20_000.0, loss_fraction=0.05))
        network.add_canal(Canal("south", "main", capacity_m3_day=20_000.0, loss_fraction=0.05))
        network.add_farm(FarmOfftake("farm-n1", "north", priority=1))
        network.add_farm(FarmOfftake("farm-n2", "north", priority=2))
        network.add_farm(FarmOfftake("farm-s1", "south", priority=1))
        return network

    def test_full_allocation_when_plentiful(self):
        network = self.make_network()
        network.set_demand("farm-n1", 1000.0)
        network.set_demand("farm-s1", 2000.0)
        allocations = network.allocate()
        assert allocations["farm-n1"] == pytest.approx(1000.0, rel=1e-6)
        assert allocations["farm-s1"] == pytest.approx(2000.0, rel=1e-6)

    def test_losses_accounted(self):
        network = self.make_network()
        network.set_demand("farm-n1", 1000.0)
        network.allocate()
        # Gross = 1000 / (0.9 * 0.95) ≈ 1169.6; loss ≈ 169.6
        assert network.total_losses_m3 == pytest.approx(169.59, rel=0.01)
        assert 0.8 < network.efficiency() < 0.9

    def test_priority_order_under_scarcity(self):
        reservoir = Reservoir("res", capacity_m3=1200.0)
        network = DistributionNetwork(reservoir)
        network.add_canal(Canal("main", None, capacity_m3_day=10_000.0, loss_fraction=0.0))
        network.add_farm(FarmOfftake("vip", "main", priority=1))
        network.add_farm(FarmOfftake("std", "main", priority=2))
        network.set_demand("vip", 1000.0)
        network.set_demand("std", 1000.0)
        allocations = network.allocate()
        assert allocations["vip"] == pytest.approx(1000.0)
        assert allocations["std"] == pytest.approx(200.0)

    def test_proportional_rationing_within_class(self):
        reservoir = Reservoir("res", capacity_m3=900.0)
        network = DistributionNetwork(reservoir)
        network.add_canal(Canal("main", None, capacity_m3_day=10_000.0, loss_fraction=0.0))
        network.add_farm(FarmOfftake("a", "main", priority=1))
        network.add_farm(FarmOfftake("b", "main", priority=1))
        network.set_demand("a", 600.0)
        network.set_demand("b", 1200.0)
        allocations = network.allocate()
        # 900 available for 1800 requested -> 50% each.
        assert allocations["a"] == pytest.approx(300.0)
        assert allocations["b"] == pytest.approx(600.0)

    def test_canal_capacity_caps_delivery(self):
        reservoir = Reservoir("res", capacity_m3=100_000.0)
        network = DistributionNetwork(reservoir)
        network.add_canal(Canal("tiny", None, capacity_m3_day=500.0, loss_fraction=0.0))
        network.add_farm(FarmOfftake("a", "tiny"))
        network.set_demand("a", 5000.0)
        allocations = network.allocate()
        assert allocations["a"] <= 500.0

    def test_satisfaction_metric(self):
        network = self.make_network()
        network.reservoir.stock_m3 = 500.0
        network.set_demand("farm-n1", 1000.0)
        network.allocate()
        farm = network.farms["farm-n1"]
        assert 0.0 < farm.satisfaction < 1.0

    def test_unknown_canal_parent_rejected(self):
        network = DistributionNetwork(Reservoir("r", 100.0))
        with pytest.raises(KeyError):
            network.add_canal(Canal("x", "ghost", 100.0))
        network.add_canal(Canal("main", None, 100.0))
        with pytest.raises(KeyError):
            network.add_farm(FarmOfftake("f", "ghost"))

    def test_negative_demand_rejected(self):
        network = self.make_network()
        with pytest.raises(ValueError):
            network.set_demand("farm-n1", -5.0)

    def test_reservoir_depletes_across_days(self):
        reservoir = Reservoir("res", capacity_m3=3000.0)
        network = DistributionNetwork(reservoir)
        network.add_canal(Canal("main", None, 10_000.0, loss_fraction=0.0))
        network.add_farm(FarmOfftake("a", "main"))
        for _ in range(3):
            network.set_demand("a", 1500.0)
            network.allocate()
        assert reservoir.stock_m3 == 0.0
        assert network.farms["a"].cum_allocated_m3 == pytest.approx(3000.0)


class TestSources:
    def test_greedy_prefers_cheapest(self):
        well = WaterSource("well", 500.0, cost_eur_m3=0.08, energy_kwh_m3=0.5)
        desal = DesalinationPlant(capacity_m3_day=2000.0)
        optimizer = SourceMixOptimizer([desal, well])
        result = optimizer.allocate_day(800.0)
        assert result.by_source["well"] == 500.0
        assert result.by_source["desalination"] == 300.0
        assert result.shortfall_m3 == 0.0

    def test_cost_and_energy_computed(self):
        well = WaterSource("well", 500.0, cost_eur_m3=0.10, energy_kwh_m3=0.5)
        optimizer = SourceMixOptimizer([well])
        result = optimizer.allocate_day(400.0)
        assert result.cost_eur == pytest.approx(40.0)
        assert result.energy_kwh == pytest.approx(200.0)

    def test_shortfall_when_capacity_exceeded(self):
        well = WaterSource("well", 100.0, 0.1, 0.5)
        optimizer = SourceMixOptimizer([well])
        result = optimizer.allocate_day(250.0)
        assert result.shortfall_m3 == pytest.approx(150.0)
        assert optimizer.cum_shortfall_m3 == pytest.approx(150.0)

    def test_daily_reset(self):
        well = WaterSource("well", 100.0, 0.1, 0.5)
        optimizer = SourceMixOptimizer([well])
        optimizer.allocate_day(100.0)
        result = optimizer.allocate_day(100.0)
        assert result.supplied_m3 == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WaterSource("bad", 0.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            WaterSource("bad", 10.0, -0.1, 0.5)
        with pytest.raises(ValueError):
            SourceMixOptimizer([])
        with pytest.raises(ValueError):
            SourceMixOptimizer([WaterSource("w", 1, 0, 0)]).allocate_day(-1)

    def test_demand_reduction_saves_desal_cost_first(self):
        """Marginal savings come off the expensive source — the Intercrop
        rationale for smart irrigation."""
        well = WaterSource("well", 500.0, 0.08, 0.5)
        desal = DesalinationPlant(capacity_m3_day=2000.0)
        optimizer = SourceMixOptimizer([well, desal])
        high = optimizer.allocate_day(1000.0)
        low = optimizer.allocate_day(700.0)
        saved = high.cost_eur - low.cost_eur
        assert saved == pytest.approx(300.0 * 0.65)
