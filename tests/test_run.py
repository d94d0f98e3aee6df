"""``RunOptions`` and ``run()``: the run fields keep ``PilotConfig``'s names.

``RunOptions`` has two groups of fields: how to drive the run, and the
run-level ``PilotConfig`` fields (``RUN_FIELDS``) under their own names
and types.  ``run()`` puts the set ones into an explicit config or the
named pilot's builder kwargs alike, and refuses what it would otherwise
ignore or shadow.
"""

import dataclasses

import pytest

from repro.core.deployment import DeploymentKind
from repro.core.pilot import PilotConfig
from repro.core.pilots import RUN_FIELDS
from repro.core.run import RunOptions, run
from repro.core.security_profile import SecurityConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.physics.crop import SOYBEAN
from repro.physics.soil import LOAM
from repro.physics.weather import BARREIRAS_MATOPIBA
from repro.resilience import ResilienceConfig
from repro.store import StoreConfig
from repro.telemetry.tracing import TraceConfig

DRIVE_FIELDS = ("pilot", "config", "pilot_kwargs", "days", "checkpoint",
                "checkpoint_every_s", "restore")


def _smoke_config(seed=5):
    return PilotConfig(
        name="run-smoke", farm="f", climate=BARREIRAS_MATOPIBA,
        crop=SOYBEAN, soil=LOAM, rows=1, cols=1, season_days=2,
        start_day_of_year=150, deployment=DeploymentKind.CLOUD_ONLY,
        irrigation_kind="valves", scheduler_kind="smart", seed=seed,
    )


class TestFields:
    def test_run_fields_are_the_pilot_config_fields(self):
        names = [f.name for f in dataclasses.fields(RunOptions)]
        assert len(names) == 15
        assert tuple(names) == DRIVE_FIELDS + RUN_FIELDS
        config_fields = {f.name for f in dataclasses.fields(PilotConfig)}
        assert set(RUN_FIELDS) <= config_fields

    def test_every_run_field_defaults_to_none(self):
        options = RunOptions()
        assert all(getattr(options, name) is None for name in RUN_FIELDS)

    @pytest.mark.parametrize("old", [
        {"faults": FaultPlan("p", [])},
        {"trace": True},
        {"trace_sample_rate": 0.5},
        {"store_dir": "wal"},
        {"store_flush_s": 30.0},
    ])
    def test_old_field_names_fail_loudly(self, old):
        with pytest.raises(TypeError):
            RunOptions(**old)


class TestExplicitConfig:
    def test_unset_fields_build_exactly_the_config(self):
        config = _smoke_config()
        result = run(RunOptions(config=config))
        assert result.runner.config is config

    def test_seed_and_security_take_effect(self):
        result = run(RunOptions(config=_smoke_config(seed=5), days=0.5, seed=9,
                                security=SecurityConfig(auth=True)))
        config = result.runner.config
        assert config.seed == 9 and config.security.auth
        assert result.runner.sim.rng.master_seed == 9
        assert result.runner.security.config.auth

    def test_fault_plan_and_resilience_take_effect(self):
        plan = FaultPlan("wan", [FaultEvent("link_partition", "wan", at_s=3600.0,
                                            duration_s=600.0)])
        result = run(RunOptions(config=_smoke_config(), days=0.5, fault_plan=plan,
                                resilience=ResilienceConfig()))
        assert result.runner.fault_injector.injected == 1
        assert result.runner.supervisor is not None

    def test_tracing_and_profile_take_effect(self):
        result = run(RunOptions(config=_smoke_config(), days=0.2,
                                tracing=TraceConfig(), profile=True))
        assert result.runner.tracer.enabled
        assert result.runner.profiler is not None


class TestRefusals:
    def test_pilot_kwargs_with_config(self):
        with pytest.raises(ValueError, match="pilot_kwargs"):
            run(RunOptions(config=_smoke_config(), pilot_kwargs={"rows": 1}))

    @pytest.mark.parametrize("name", RUN_FIELDS)
    def test_run_field_inside_pilot_kwargs(self, name):
        with pytest.raises(ValueError, match=f"run field\\(s\\) {name};"):
            run(RunOptions(pilot="matopiba", pilot_kwargs={name: None}))

    @pytest.mark.parametrize("mode", ["checkpoint", "restore"])
    def test_store_with_checkpoint_or_restore(self, mode, tmp_path):
        store = tmp_path / "wal"
        with pytest.raises(ValueError, match="durable store is not supported"):
            run(RunOptions(config=_smoke_config(), store=StoreConfig(root=str(store)),
                           **{mode: str(tmp_path / "c.ck")}))
        assert not store.exists()
