"""The ``repro.api`` façade: stable names, docs lockstep, deprecations."""

import pytest

import repro.api as api
from repro.api import (
    BARREIRAS_MATOPIBA,
    LOAM,
    SOYBEAN,
    DeploymentKind,
    PilotConfig,
    ReproError,
    RunOptions,
    run,
)


def _smoke_config(seed=5):
    return PilotConfig(
        name="facade-smoke", farm="f", climate=BARREIRAS_MATOPIBA,
        crop=SOYBEAN, soil=LOAM, rows=1, cols=1, season_days=2,
        start_day_of_year=150, deployment=DeploymentKind.CLOUD_ONLY,
        irrigation_kind="valves", scheduler_kind="smart", seed=seed,
    )


class TestFacadeSurface:
    def test_every_exported_name_resolves(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_all_is_sorted_and_unique(self):
        assert list(api.__all__) == sorted(set(api.__all__))

    def test_docs_cover_exactly_the_exports(self):
        # Every export has a one-line doc and no doc is stale.
        assert set(api.DOCS) == set(api.__all__)
        for name, doc in api.DOCS.items():
            assert isinstance(doc, str) and doc.strip(), name

    def test_resilience_and_chaos_surface_is_exported(self):
        for name in (
            "Supervisor", "CircuitBreaker", "DegradedModePolicy",
            "ResilienceConfig", "BreakerState", "ServiceHealth",
            "BoundedQueue", "RateLimiter", "DropPolicy", "BackpressureError",
            "ChaosPlanGenerator", "ChaosTargets", "ChaosRunResult",
            "check_invariants",
        ):
            assert name in api.__all__, name
        plan = api.ChaosPlanGenerator(seed=0).generate()
        assert plan.events  # generator usable straight off the façade

    def test_tracing_and_run_surface_is_exported(self):
        for name in (
            "RunOptions", "RunResult", "run", "Tracer", "TraceConfig",
            "TraceContext", "Span", "KernelProfiler",
            "validate_span_trees", "validate_chrome_trace",
        ):
            assert name in api.__all__, name

    def test_run_entrypoint(self):
        result = run(RunOptions(config=_smoke_config()))
        assert result.report.name == "facade-smoke"
        assert result.report.season_days == 2
        assert result.runner is not None
        assert result.chaos is None


class TestCompletedDeprecations:
    """The run_pilot/run_chaos shims and string filters finished their cycle."""

    def test_legacy_run_entrypoints_are_gone(self):
        for name in ("run_pilot", "run_chaos"):
            assert name not in api.__all__, name
            assert name not in api.DOCS, name
            assert not hasattr(api, name), name

    def test_chaos_engine_still_reachable_for_internal_callers(self):
        # The *internal* chaos engine keeps its home; only the façade
        # shim completed the deprecation cycle.
        from repro.faults.chaos import run_chaos

        assert callable(run_chaos)

    def test_string_filters_raise_query_error(self):
        from repro.api import ContextBroker, QueryError, Simulator

        broker = ContextBroker(Simulator(seed=0))
        with pytest.raises(QueryError, match="no longer accepted"):
            broker.query(filters=["soilMoisture<0.2"])

    def test_wire_strings_parse_at_the_boundary(self):
        from repro.context.query import parse_filter_expression

        parsed = parse_filter_expression("soilMoisture<0.2")
        assert (parsed.attr, parsed.op, parsed.value) == ("soilMoisture", "<", 0.2)


class TestServiceFacade:
    """The service layer's exported surface rides the same contract."""

    def test_service_exports_are_on_the_facade(self):
        import repro.service as service

        assert list(service.__all__) == sorted(set(service.__all__))
        missing = [n for n in service.__all__ if n not in api.__all__]
        assert missing == []

    def test_service_exports_are_documented(self):
        import repro.service as service

        undocumented = [n for n in service.__all__ if not api.DOCS.get(n, "").strip()]
        assert undocumented == []
        resolve = [n for n in service.__all__ if getattr(api, n) is not getattr(service, n)]
        assert resolve == []


class TestUnifiedErrorHierarchy:
    def test_topic_errors_are_repro_errors(self):
        from repro.mqtt import TopicError, validate_topic

        with pytest.raises(ReproError):
            validate_topic("bad/+/topic")
        assert issubclass(TopicError, ValueError)  # legacy base kept

    def test_context_lookup_errors_are_repro_errors(self):
        from repro.context import ContextBroker, NotFoundError
        from repro.simkernel import Simulator

        broker = ContextBroker(Simulator(seed=0))
        with pytest.raises(ReproError):
            broker.get_entity("nope")
        assert issubclass(NotFoundError, ReproError)

    def test_fault_plan_errors_are_repro_errors(self):
        from repro.faults import FaultPlan, FaultPlanError

        with pytest.raises(ReproError):
            FaultPlan.from_dict({"name": "x", "events": [{"kind": "martian_invasion", "at_s": 1}]})
        assert issubclass(FaultPlanError, ValueError)  # legacy base kept

    def test_simulation_and_platform_errors_are_repro_errors(self):
        from repro.simkernel import SimulationError
        from repro.store.segment import StoreError

        assert issubclass(SimulationError, ReproError)
        assert issubclass(StoreError, ReproError)

    def test_query_errors_are_repro_errors(self):
        from repro.context import QueryError
        from repro.context.query import parse_filter_expression

        with pytest.raises(ReproError):
            parse_filter_expression("nonsense")
        assert issubclass(QueryError, ReproError)
