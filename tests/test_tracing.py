"""Causal tracing and profiling: samplers, span trees, end-to-end chains.

Covers the determinism contracts (seeded head sampling, bit-identical
reports with tracing on or off), the TraceLog drop accounting,
the span-tree invariants as a property across seeds, Chrome-trace export
round-trips, and full sensor→actuation chain reconstruction on a real
pilot run through the ``run(RunOptions(...))`` entrypoint.
"""

import dataclasses
import io
import json

import pytest

from repro.cli import main
from repro.core.pilots import build_matopiba_pilot
from repro.core.run import RunOptions, run
from repro.simkernel.trace import TraceLog
from repro.telemetry import (
    DeterministicSampler,
    KernelProfiler,
    NULL_TRACER,
    Span,
    TraceConfig,
    TraceContext,
    Tracer,
    validate_chrome_trace,
    validate_span_trees,
)

SMALL_PILOT = {"rows": 2, "cols": 2, "season_days": 2}


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


def make_tracer(**kwargs) -> Tracer:
    tracer = Tracer(**kwargs)
    tracer.bind_clock(FakeClock())
    return tracer


class TestDeterministicSampler:
    def test_rate_one_keeps_everything(self):
        sampler = DeterministicSampler(seed=1, rate=1.0)
        assert all(sampler.sample(i) for i in range(100))

    def test_rate_zero_drops_everything(self):
        sampler = DeterministicSampler(seed=1, rate=0.0)
        assert not any(sampler.sample(i) for i in range(100))

    def test_same_seed_same_decisions(self):
        a = DeterministicSampler(seed=42, rate=0.3)
        b = DeterministicSampler(seed=42, rate=0.3)
        assert [a.sample(i) for i in range(1000)] == [b.sample(i) for i in range(1000)]

    def test_observed_rate_tracks_requested_rate(self):
        for rate in (0.1, 0.5, 0.9):
            sampler = DeterministicSampler(seed=7, rate=rate)
            kept = sum(sampler.sample(i) for i in range(5000)) / 5000
            assert abs(kept - rate) < 0.05, (rate, kept)

    def test_raising_the_rate_only_adds_traces(self):
        low = DeterministicSampler(seed=3, rate=0.2)
        high = DeterministicSampler(seed=3, rate=0.6)
        kept_low = {i for i in range(2000) if low.sample(i)}
        kept_high = {i for i in range(2000) if high.sample(i)}
        assert kept_low <= kept_high

    def test_different_seeds_differ(self):
        a = DeterministicSampler(seed=1, rate=0.5)
        b = DeterministicSampler(seed=2, rate=0.5)
        assert [a.sample(i) for i in range(200)] != [b.sample(i) for i in range(200)]


class TestTraceLogAccounting:
    def test_eviction_attributes_drop_to_evicted_category(self):
        log = TraceLog(max_records=3)
        for i in range(3):
            log.emit(float(i), "flood", "a")
        log.emit(3.0, "victim", "b")
        # The incoming "victim" record evicted the oldest "flood" record.
        assert log.dropped == 1
        assert log.dropped_by_category == {"flood": 1}
        assert [r.category for r in log] == ["flood", "flood", "victim"]

    def test_zero_capacity_counts_every_record_as_its_own_drop(self):
        log = TraceLog(max_records=0)
        log.emit(0.0, "a", "x")
        log.emit(1.0, "b", "y")
        assert len(log) == 0
        assert log.dropped == 2
        assert log.dropped_by_category == {"a": 1, "b": 1}
        assert log.counts == {"a": 1, "b": 1}  # totals stay exact


class TestTracerLifecycle:
    def test_disabled_tracer_is_inert(self):
        ran = False
        assert NULL_TRACER.start_trace("t", "k") is None
        assert NULL_TRACER.start_span("s", "k") is None
        with NULL_TRACER.span("s", "k") as span:
            ran = True
            assert span is None
        assert ran
        assert len(NULL_TRACER) == 0

    def test_basic_tree_and_active_stack(self):
        tracer = make_tracer()
        with tracer.span("root", "a", root=True) as root:
            assert tracer.current() == root.ctx
            with tracer.span("child", "b") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
        assert validate_span_trees(tracer.spans()) == []
        assert [s.name for s in tracer.path_to_root(child)] == ["root", "child"]

    def test_parentless_child_is_suppressed(self):
        tracer = make_tracer()
        assert tracer.start_span("orphan", "k") is None
        with tracer.span("orphan", "k") as span:
            assert span is None
        assert len(tracer) == 0

    def test_unsampled_root_suppresses_downstream_tree(self):
        tracer = make_tracer(sample_rate=0.0)
        root = tracer.start_trace("root", "k")
        assert root is None
        # The hop that would parent on the unsampled root gets nothing.
        assert tracer.start_span("hop", "k", parent=root) is None
        assert tracer.traces_started == 1 and tracer.traces_sampled == 0

    def test_async_hop_extends_closed_ancestors(self):
        clock = FakeClock()
        tracer = Tracer()
        tracer.bind_clock(clock)
        root = tracer.start_trace("publish", "mqtt")
        clock.now = 1.0
        tracer.end_span(root)
        # The broker routes the packet after the publish span closed.
        clock.now = 5.0
        child = tracer.start_span("route", "mqtt", parent=root.ctx)
        clock.now = 6.0
        tracer.end_span(child)
        assert root.end == 6.0
        assert validate_span_trees(tracer.spans()) == []

    def test_max_spans_drops_newest_and_counts(self):
        tracer = make_tracer(max_spans=2)
        root = tracer.start_trace("r", "k")
        tracer.start_span("a", "k", parent=root)
        assert tracer.start_span("b", "k", parent=root) is None
        assert tracer.spans_dropped == 1
        assert len(tracer) == 2
        assert validate_span_trees(tracer.spans()) == []

    def test_record_span_and_links(self):
        clock = FakeClock(2.0)
        tracer = Tracer()
        tracer.bind_clock(clock)
        reading = tracer.start_trace("device.report", "device")
        tracer.end_span(reading)
        decision = tracer.start_trace("scheduler.decision", "scheduler")
        decision.add_link(reading.ctx)
        decision.add_link(None)  # ignored
        tracer.end_span(decision)
        chain = tracer.causal_chain(decision)
        assert chain["path"] == ["scheduler.decision"]
        assert chain["linked"] == [["device.report"]]

    def test_validator_flags_broken_trees(self):
        a = Span(trace_id=1, span_id=1, parent_id=None, name="r1", kind="k",
                 start=0.0, attrs={})
        a.end = 1.0
        b = Span(trace_id=1, span_id=2, parent_id=None, name="r2", kind="k",
                 start=0.0, attrs={})
        b.end = 1.0
        problems = validate_span_trees([a, b])
        assert any("2 roots" in p for p in problems)
        child = Span(trace_id=1, span_id=3, parent_id=1, name="c", kind="k",
                     start=0.5, attrs={})
        child.end = 9.0  # escapes the parent's range
        problems = validate_span_trees([a, child])
        assert any("outside parent" in p for p in problems)
        orphan = Span(trace_id=2, span_id=4, parent_id=99, name="o", kind="k",
                      start=0.0, attrs={})
        problems = validate_span_trees([orphan])
        assert any("missing parent" in p for p in problems)


class TestPilotTracing:
    @pytest.fixture(scope="class")
    def traced(self):
        return run(RunOptions(pilot="matopiba", tracing=TraceConfig(), profile=True,
                              pilot_kwargs=dict(SMALL_PILOT)))

    def test_report_bit_identical_with_tracing_on_or_off(self, traced):
        plain = run(RunOptions(pilot="matopiba", pilot_kwargs=dict(SMALL_PILOT)))
        assert dataclasses.asdict(plain.report) == dataclasses.asdict(traced.report)
        assert plain.runner.tracer is NULL_TRACER

    def test_span_trees_well_formed(self, traced):
        tracer = traced.runner.tracer
        assert len(tracer) > 0
        assert validate_span_trees(tracer.spans()) == []

    def test_every_trace_has_single_root(self, traced):
        tracer = traced.runner.tracer
        for trace_id in tracer.trace_ids():
            roots = [s for s in tracer.spans(trace_id) if s.parent_id is None]
            assert len(roots) == 1, trace_id

    def test_full_chain_reconstruction(self, traced):
        tracer = traced.runner.tracer
        decisions = [s for s in tracer.find("scheduler.decision") if s.links]
        assert decisions, "no linked scheduler decisions traced"
        chain = tracer.causal_chain(decisions[0])
        assert chain["path"][0] == "scheduler.cycle"
        linked = chain["linked"][0]
        # The linked reading's own trace tells the transport story.
        assert linked[0] == "device.report"
        for hop in ("mqtt.publish", "broker.route", "context.update"):
            assert hop in linked, (hop, linked)

    def test_cycles_produce_decision_spans(self, traced):
        tracer = traced.runner.tracer
        cycles = tracer.find("scheduler.cycle")
        assert cycles
        # Every cycle span parents its decisions.
        decisions = tracer.find("scheduler.decision")
        cycle_ids = {s.span_id for s in cycles}
        assert decisions
        assert all(d.parent_id in cycle_ids for d in decisions)

    def test_chrome_export_round_trips(self, traced, tmp_path):
        tracer = traced.runner.tracer
        data = tracer.chrome_trace()
        assert validate_chrome_trace(data) == []
        assert len(data["traceEvents"]) == len(tracer)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_profiler_recorded_hot_path(self, traced):
        profiler = traced.runner.profiler
        snapshot = profiler.snapshot(top_k=5)
        assert snapshot["total_events"] > 0
        assert len(snapshot["top"]) == 5
        gauges = traced.runner.sim.metrics.snapshot()["gauges"]
        profile_gauges = {k: v for k, v in gauges.items() if k.startswith("profile.")}
        assert profile_gauges.get("profile.events") == snapshot["total_events"]
        assert profile_gauges.get("profile.keys") == snapshot["keys"]


class TestSpanTreeProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_invariants_hold_across_seeds(self, seed):
        result = run(RunOptions(pilot="matopiba", seed=seed, tracing=TraceConfig(),
                                pilot_kwargs=dict(SMALL_PILOT)))
        tracer = result.runner.tracer
        assert validate_span_trees(tracer.spans()) == []
        assert validate_chrome_trace(tracer.chrome_trace()) == []


class TestRunEntrypoint:
    def test_same_seed_same_spans(self):
        def span_shape():
            result = run(RunOptions(pilot="matopiba", seed=4, tracing=TraceConfig(),
                                    pilot_kwargs=dict(SMALL_PILOT)))
            return [(s.name, s.kind, s.trace_id, s.parent_id, s.start, s.end)
                    for s in result.runner.tracer.spans()]

        assert span_shape() == span_shape()

    def test_sampling_thins_traces_deterministically(self):
        full = run(RunOptions(pilot="matopiba", seed=4, tracing=TraceConfig(),
                              pilot_kwargs=dict(SMALL_PILOT)))
        sampled = run(RunOptions(pilot="matopiba", seed=4,
                                 tracing=TraceConfig(sample_rate=0.25),
                                 pilot_kwargs=dict(SMALL_PILOT)))
        full_stats = full.runner.tracer.stats()
        sampled_stats = sampled.runner.tracer.stats()
        assert sampled_stats["traces_started"] == full_stats["traces_started"]
        assert 0 < sampled_stats["traces_sampled"] < full_stats["traces_sampled"]
        assert validate_span_trees(sampled.runner.tracer.spans()) == []
        # Reports stay identical under any sampling rate.
        assert dataclasses.asdict(full.report) == dataclasses.asdict(sampled.report)

    def test_trace_path_written(self, tmp_path):
        # run() writes no files; the CLI's --trace exports the tracer.
        path = tmp_path / "run-trace.json"
        out = io.StringIO()
        assert main(["run", "matopiba", "--days", "0.2", "--trace", str(path)],
                    out=out) == 0
        data = json.loads(path.read_text())
        assert data["traceEvents"]
        assert validate_chrome_trace(data) == []
        assert f"trace written to {path} ({len(data['traceEvents'])} spans)" in out.getvalue()

    def test_unknown_pilot_rejected(self):
        with pytest.raises(ValueError, match="unknown pilot"):
            run(RunOptions(pilot="atlantis"))

    def test_config_mode_applies_trace_override(self):
        runner = build_matopiba_pilot(**SMALL_PILOT)
        result = run(RunOptions(config=runner.config, tracing=TraceConfig()))
        assert result.runner.tracer.enabled
        assert len(result.runner.tracer) > 0


class TestKernelProfiler:
    def test_service_aggregation(self):
        profiler = KernelProfiler()

        class Event:
            def __init__(self, label):
                self.label = label
                self.time = 0.0
                self.callback = lambda: None

        for label, wall in (("proc:fw:a", 0.5), ("proc:fw:b", 0.25), ("other", 1.0)):
            profiler.record(Event(label), wall)
        top = profiler.top(2)
        assert top[0].key == "other"
        by_service = profiler.by_service()
        assert by_service["proc:fw"].wall_s == pytest.approx(0.75)
        assert by_service["proc:fw"].count == 2
