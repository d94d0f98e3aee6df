"""Unit tests for the unified metrics core (repro.telemetry)."""

import json

import pytest

from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Timer,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.snapshot_value() == 3.5

    def test_histogram_buckets_and_stats(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0, 5.0):
            h.observe(v)
        snap = h.snapshot_value()
        assert snap["count"] == 4
        assert snap["sum"] == 60.5
        assert snap["min"] == 0.5
        assert snap["max"] == 50.0
        assert snap["buckets"] == {"le_1": 1, "le_10": 2, "le_inf": 1}
        assert h.mean == pytest.approx(60.5 / 4)

    def test_histogram_sorts_bucket_bounds(self):
        h = Histogram("h", buckets=(10.0, 1.0))
        assert h.bounds == (1.0, 10.0)

    def test_timer_records_elapsed_wall_time(self):
        h = Histogram("t", buckets=(0.5, 1.0))
        timer = Timer(h)
        with timer:
            pass
        assert h.count == 1
        assert h.min >= 0.0
        timer.observe(0.25)
        assert h.count == 2


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("x", {"farm": "a"})
        b = registry.counter("x", {"farm": "a"})
        other = registry.counter("x", {"farm": "b"})
        assert a is b
        assert a is not other

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x", {"a": "1", "b": "2"})
        b = registry.counter("x", {"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_total_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("x", {"farm": "a"}).inc(2)
        registry.counter("x", {"farm": "b"}).inc(3)
        assert registry.total("x") == 5.0

    def test_value_lookup(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(4)
        assert registry.value("x") == 4.0
        assert registry.value("missing") is None

    def test_snapshot_formats_labels_and_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c", {"farm": "a"}).inc()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        registry.register_callback("lazy", lambda: 42.0)
        snap = registry.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"] == {"c{farm=a}": 1.0}
        assert snap["gauges"] == {"lazy": 42.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_callbacks_evaluated_lazily_at_snapshot_time(self):
        registry = MetricsRegistry()
        depth = [0]
        registry.register_callback("queue.depth", lambda: float(depth[0]))
        depth[0] = 7
        assert registry.snapshot()["gauges"]["queue.depth"] == 7.0
        depth[0] = 9
        assert registry.snapshot()["gauges"]["queue.depth"] == 9.0

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["c"] == 1.0

    def test_names_lists_instruments_and_callbacks(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.register_callback("a", lambda: 0.0)
        assert registry.names() == ["a", "b"]

    def test_counter_views_read_component_counts_at_snapshot_time(self):
        registry = MetricsRegistry()
        counts = {"a": 0, "b": 0}
        registry.register_counter("checks", lambda: counts["a"], {"verdict": "ok"})
        registry.register_counter("checks", lambda: counts["b"], {"verdict": "ok"})
        registry.register_counter("checks", lambda: 7, {"verdict": "no"})
        assert registry.snapshot()["counters"] == {
            "checks{verdict=no}": 7.0, "checks{verdict=ok}": 0.0}
        counts["a"], counts["b"] = 2, 3
        snap = registry.snapshot()["counters"]
        assert snap["checks{verdict=ok}"] == 5.0
        assert type(snap["checks{verdict=ok}"]) is float
        assert registry.value("checks", {"verdict": "ok"}) == 5.0
        assert registry.total("checks") == 12.0
        assert registry.names() == ["checks"]
        disabled = MetricsRegistry(enabled=False)
        disabled.register_counter("checks", lambda: 1)
        assert disabled.snapshot()["counters"] == {}
        assert disabled._views == {}


class TestDisabledRegistry:
    def test_factories_return_shared_null_instrument(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("x") is NULL_INSTRUMENT
        assert registry.histogram("x") is NULL_INSTRUMENT
        assert registry.timer("x") is NULL_INSTRUMENT

    def test_null_instrument_accepts_all_operations(self):
        null = NULL_REGISTRY.counter("anything")
        null.inc()
        null.observe(1.0)
        with null:
            pass
        assert null.snapshot_value() == 0.0

    def test_disabled_snapshot_is_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("x").inc()
        registry.register_callback("cb", lambda: 1.0)
        assert registry.snapshot() == {
            "enabled": False, "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_disabled_registry_allocates_nothing(self):
        registry = MetricsRegistry(enabled=False)
        for i in range(100):
            registry.counter(f"c{i}").inc()
        assert registry._instruments == {}
        assert registry._callbacks == {}
