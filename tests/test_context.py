"""Tests for the context broker, subscriptions and short-term history."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import (
    AttrFilter,
    ContextBroker,
    ContextEntity,
    HistoryQuery,
    NotFoundError,
    QueryError,
    ShortTermHistory,
    Subscription,
)
from repro.context.broker import AlreadyExistsError, ContextError
from repro.context.query import apply_op, parse_filter_expression
from repro.simkernel import Simulator


def make_broker(seed=0):
    return ContextBroker(Simulator(seed=seed))


class TestEntities:
    def test_create_and_get(self):
        broker = make_broker()
        broker.create_entity("urn:soil:z1", "SoilProbe", {"soilMoisture": 0.25})
        entity = broker.get_entity("urn:soil:z1")
        assert entity.get("soilMoisture") == 0.25
        assert entity.entity_type == "SoilProbe"

    def test_duplicate_create_rejected(self):
        broker = make_broker()
        broker.create_entity("e1", "T")
        with pytest.raises(AlreadyExistsError):
            broker.create_entity("e1", "T")

    def test_get_missing_raises(self):
        with pytest.raises(NotFoundError):
            make_broker().get_entity("ghost")

    def test_ensure_upserts(self):
        broker = make_broker()
        broker.ensure_entity("e1", "T", {"a": 1})
        broker.ensure_entity("e1", "T", {"a": 2, "b": 3})
        entity = broker.get_entity("e1")
        assert entity.get("a") == 2 and entity.get("b") == 3

    def test_delete(self):
        broker = make_broker()
        broker.create_entity("e1", "T")
        broker.delete_entity("e1")
        assert not broker.has_entity("e1")
        with pytest.raises(NotFoundError):
            broker.delete_entity("e1")

    def test_invalid_ids_rejected(self):
        with pytest.raises(ValueError):
            ContextEntity("", "T")
        with pytest.raises(ValueError):
            ContextEntity("ok", "bad type!")
        with pytest.raises(ValueError):
            ContextEntity("spaces bad", "T")

    def test_attribute_type_guessing(self):
        broker = make_broker()
        broker.create_entity("e1", "T", {
            "num": 1.5, "flag": True, "text": "x", "obj": {"a": 1}, "arr": [1],
        })
        entity = broker.get_entity("e1")
        assert entity.attribute("num").attr_type == "Number"
        assert entity.attribute("flag").attr_type == "Boolean"
        assert entity.attribute("text").attr_type == "Text"
        assert entity.attribute("obj").attr_type == "StructuredValue"
        assert entity.attribute("arr").attr_type == "StructuredValue"

    def test_update_timestamps_use_sim_clock(self):
        sim = Simulator()
        broker = ContextBroker(sim)
        broker.create_entity("e1", "T")
        sim.schedule(100.0, lambda: broker.update_attributes("e1", {"a": 1}))
        sim.run()
        assert broker.get_entity("e1").attribute("a").timestamp == 100.0

    def test_copy_is_deep_for_attributes(self):
        entity = ContextEntity("e1", "T")
        entity.set_attribute("a", 1)
        clone = entity.copy()
        clone.set_attribute("a", 2)
        assert entity.get("a") == 1


class TestFilters:
    def test_parse_all_operators(self):
        assert parse_filter_expression("a==5") == AttrFilter("a", "==", 5.0)
        assert parse_filter_expression("a!=x") == AttrFilter("a", "!=", "x")
        assert parse_filter_expression("a<=5") == AttrFilter("a", "<=", 5.0)
        assert parse_filter_expression("a>=5") == AttrFilter("a", ">=", 5.0)
        assert parse_filter_expression("a<5") == AttrFilter("a", "<", 5.0)
        assert parse_filter_expression("a>5") == AttrFilter("a", ">", 5.0)

    def test_parse_garbage_raises(self):
        with pytest.raises(ContextError):
            parse_filter_expression("nonsense")

    def test_parse_splits_on_earliest_operator(self):
        # An operator inside the *value* must not win over the one that
        # actually separates attribute and value.
        assert parse_filter_expression("label<a==b") == AttrFilter("label", "<", "a==b")
        assert parse_filter_expression("status==a<b") == AttrFilter("status", "==", "a<b")
        assert parse_filter_expression("tag!=x>=1") == AttrFilter("tag", "!=", "x>=1")

    def test_parse_prefers_longest_operator_at_same_position(self):
        # ``a<=1`` is ``<=``, not ``<`` with value ``=1``.
        assert parse_filter_expression("a<=1") == AttrFilter("a", "<=", 1.0)
        assert parse_filter_expression("a>=1") == AttrFilter("a", ">=", 1.0)
        assert parse_filter_expression("a!=b") == AttrFilter("a", "!=", "b")

    def test_parse_strips_whitespace(self):
        assert parse_filter_expression("  temp  <=  21.5 ") == AttrFilter("temp", "<=", 21.5)

    def test_apply_op_string_equality(self):
        assert apply_op("open", "==", "open")
        assert apply_op("open", "!=", "closed")

    def test_apply_op_missing_value(self):
        assert not apply_op(None, "==", 5.0)

    def test_apply_op_non_numeric_comparison(self):
        assert not apply_op("text", "<", 5.0)


class TestQueries:
    def setup_entities(self, broker):
        broker.create_entity("soil-1", "SoilProbe", {"soilMoisture": 0.30, "farm": "A"})
        broker.create_entity("soil-2", "SoilProbe", {"soilMoisture": 0.15, "farm": "A"})
        broker.create_entity("soil-3", "SoilProbe", {"soilMoisture": 0.22, "farm": "B"})
        broker.create_entity("valve-1", "Valve", {"valveState": "open", "farm": "A"})

    def test_query_by_type(self):
        broker = make_broker()
        self.setup_entities(broker)
        result = broker.query(entity_type="SoilProbe")
        assert [e.entity_id for e in result] == ["soil-1", "soil-2", "soil-3"]

    def test_query_by_id_pattern(self):
        broker = make_broker()
        self.setup_entities(broker)
        result = broker.query(id_pattern=r"^soil-[12]$")
        assert len(result) == 2

    def test_query_numeric_filter(self):
        broker = make_broker()
        self.setup_entities(broker)
        dry = broker.query(
            entity_type="SoilProbe", filters=[AttrFilter("soilMoisture", "<", 0.25)]
        )
        assert {e.entity_id for e in dry} == {"soil-2", "soil-3"}

    def test_query_parsed_wire_filter(self):
        # NGSIv2 ``q`` wire strings parse at the boundary, not in the broker.
        broker = make_broker()
        self.setup_entities(broker)
        farm_a = broker.query(filters=[parse_filter_expression("farm==A")])
        assert len(farm_a) == 3

    def test_query_combined_filters(self):
        broker = make_broker()
        self.setup_entities(broker)
        result = broker.query(
            entity_type="SoilProbe",
            filters=[AttrFilter("farm", "==", "A"), AttrFilter("soilMoisture", ">=", 0.2)],
        )
        assert [e.entity_id for e in result] == ["soil-1"]

    def test_query_limit(self):
        broker = make_broker()
        self.setup_entities(broker)
        assert len(broker.query(limit=2)) == 2

    def test_query_deterministic_order(self):
        broker = make_broker()
        self.setup_entities(broker)
        first = [e.entity_id for e in broker.query()]
        second = [e.entity_id for e in broker.query()]
        assert first == second == sorted(first)


class TestSubscriptions:
    def test_notified_on_matching_update(self):
        broker = make_broker()
        broker.create_entity("e1", "SoilProbe")
        received = []
        broker.subscribe(Subscription(received.append, entity_type="SoilProbe"))
        broker.update_attributes("e1", {"soilMoisture": 0.2})
        assert len(received) == 1
        assert received[0].entity.get("soilMoisture") == 0.2
        assert received[0].changed_attrs == ["soilMoisture"]

    def test_condition_attrs_filter(self):
        broker = make_broker()
        broker.create_entity("e1", "T")
        received = []
        broker.subscribe(
            Subscription(received.append, entity_id="e1", condition_attrs=["alarm"])
        )
        broker.update_attributes("e1", {"other": 1})
        broker.update_attributes("e1", {"alarm": True})
        assert len(received) == 1

    def test_notify_attrs_projection(self):
        broker = make_broker()
        broker.create_entity("e1", "T", {"a": 1, "b": 2})
        received = []
        broker.subscribe(
            Subscription(received.append, entity_id="e1", notify_attrs=["a"])
        )
        broker.update_attributes("e1", {"a": 5})
        entity = received[0].entity
        assert entity.get("a") == 5
        assert entity.attribute("b") is None

    def test_id_pattern_subscription(self):
        broker = make_broker()
        broker.create_entity("soil-1", "T")
        broker.create_entity("valve-1", "T")
        received = []
        broker.subscribe(Subscription(received.append, id_pattern=r"^soil-"))
        broker.update_attributes("soil-1", {"x": 1})
        broker.update_attributes("valve-1", {"x": 1})
        assert len(received) == 1

    def test_throttling(self):
        sim = Simulator()
        broker = ContextBroker(sim)
        broker.create_entity("e1", "T")
        received = []
        sub = Subscription(received.append, entity_id="e1", throttling_s=10.0)
        broker.subscribe(sub)
        for t in (0.0, 1.0, 2.0, 15.0):
            sim.schedule_at(t, lambda: broker.update_attributes("e1", {"x": 1}))
        sim.run()
        assert len(received) == 2  # t=0 and t=15
        assert sub.notifications_throttled == 2

    def test_unsubscribe(self):
        broker = make_broker()
        broker.create_entity("e1", "T")
        received = []
        sub_id = broker.subscribe(Subscription(received.append, entity_id="e1"))
        broker.unsubscribe(sub_id)
        broker.update_attributes("e1", {"x": 1})
        assert received == []

    def test_subscription_needs_constraint(self):
        with pytest.raises(ValueError):
            Subscription(lambda n: None)

    def test_snapshot_isolated_from_future_updates(self):
        broker = make_broker()
        broker.create_entity("e1", "T")
        received = []
        broker.subscribe(Subscription(received.append, entity_id="e1"))
        broker.update_attributes("e1", {"x": 1})
        broker.update_attributes("e1", {"x": 2})
        assert received[0].entity.get("x") == 1
        assert received[1].entity.get("x") == 2


class TestHistory:
    def test_records_numeric_updates(self):
        sim = Simulator()
        broker = ContextBroker(sim)
        history = ShortTermHistory(broker)
        broker.create_entity("e1", "T")
        for t, v in [(10.0, 0.1), (20.0, 0.2), (30.0, 0.3)]:
            sim.schedule_at(t, lambda v=v: broker.update_attributes("e1", {"m": v}))
        sim.run()
        rows = history.read(HistoryQuery("e1", "m")).rows
        assert rows == [(10.0, 0.1), (20.0, 0.2), (30.0, 0.3)]

    def test_ignores_non_numeric(self):
        broker = make_broker()
        history = ShortTermHistory(broker)
        broker.create_entity("e1", "T")
        broker.update_attributes("e1", {"state": "open", "flag": True})
        assert history.read(HistoryQuery("e1", "state")).rows == []
        assert history.read(HistoryQuery("e1", "flag")).rows == []

    def test_last_n(self):
        broker = make_broker()
        history = ShortTermHistory(broker)
        broker.create_entity("e1", "T")
        for v in range(10):
            broker.update_attributes("e1", {"m": v})
        result = history.read(HistoryQuery("e1", "m", last_n=3))
        assert [v for _t, v in result.rows] == [7.0, 8.0, 9.0]

    def test_range_query(self):
        sim = Simulator()
        broker = ContextBroker(sim)
        history = ShortTermHistory(broker)
        broker.create_entity("e1", "T")
        for t in (5.0, 15.0, 25.0):
            sim.schedule_at(t, lambda: broker.update_attributes("e1", {"m": 1.0}))
        sim.run()
        result = history.read(HistoryQuery("e1", "m", since=10.0, until=20.0))
        assert len(result.rows) == 1

    def test_aggregate(self):
        broker = make_broker()
        history = ShortTermHistory(broker)
        broker.create_entity("e1", "T")
        for v in (1.0, 2.0, 3.0):
            broker.update_attributes("e1", {"m": v})
        agg = history.read(HistoryQuery("e1", "m", aggregate=True)).stats
        assert agg["count"] == 3
        assert agg["min"] == 1.0
        assert agg["max"] == 3.0
        assert agg["mean"] == pytest.approx(2.0)

    def test_aggregate_empty_returns_none(self):
        broker = make_broker()
        history = ShortTermHistory(broker)
        assert history.read(HistoryQuery("ghost", "m", aggregate=True)).stats is None

    def test_bounded_series(self):
        broker = make_broker()
        history = ShortTermHistory(broker, max_samples_per_series=5)
        broker.create_entity("e1", "T")
        for v in range(10):
            broker.update_attributes("e1", {"m": v})
        samples = history.read(HistoryQuery("e1", "m")).rows
        assert len(samples) == 5
        assert samples[0][1] == 5.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_property_aggregate_consistent(self, values):
        broker = make_broker()
        history = ShortTermHistory(broker)
        broker.create_entity("e1", "T")
        for v in values:
            broker.update_attributes("e1", {"m": v})
        agg = history.read(HistoryQuery("e1", "m", aggregate=True)).stats
        tolerance = 1e-9 * max(1.0, abs(agg["mean"]))
        assert agg["min"] - tolerance <= agg["mean"] <= agg["max"] + tolerance
        assert agg["count"] == len(values)


class TestCreateThenNotify:
    """Regression: condition-less subscriptions must observe entity
    creation even when the entity has no attributes yet (empty
    ``changed_attrs``), preserving create-then-notify ordering."""

    def test_creation_without_attrs_notifies_conditionless_sub(self):
        broker = make_broker()
        received = []
        broker.subscribe(Subscription(received.append, entity_type="SoilProbe"))
        broker.create_entity("e1", "SoilProbe")
        assert len(received) == 1
        assert received[0].changed_attrs == []
        assert received[0].entity.entity_id == "e1"

    def test_create_then_first_update_ordering(self):
        broker = make_broker()
        events = []
        broker.subscribe(
            Subscription(lambda n: events.append(list(n.changed_attrs)), entity_id="e1")
        )
        broker.create_entity("e1", "T")
        broker.update_attributes("e1", {"theta": 0.3})
        assert events == [[], ["theta"]]

    def test_condition_attr_subs_ignore_bare_creation(self):
        broker = make_broker()
        received = []
        broker.subscribe(
            Subscription(received.append, entity_type="T", condition_attrs=["alarm"])
        )
        broker.create_entity("e1", "T")
        assert received == []

    def test_creation_with_attrs_notifies_once(self):
        broker = make_broker()
        received = []
        broker.subscribe(Subscription(received.append, entity_type="T"))
        broker.create_entity("e1", "T", {"a": 1})
        assert len(received) == 1
        assert received[0].changed_attrs == ["a"]


class TestBatchedDispatch:
    def test_batch_coalesces_to_one_notification(self):
        broker = make_broker()
        broker.create_entity("e1", "T")
        received = []
        broker.subscribe(Subscription(received.append, entity_id="e1"))
        with broker.batch():
            broker.update_attributes("e1", {"a": 1})
            broker.update_attributes("e1", {"b": 2})
            broker.update_attributes("e1", {"a": 3})
            assert received == []  # deferred until the batch closes
        assert len(received) == 1
        assert received[0].changed_attrs == ["a", "b"]
        assert received[0].entity.get("a") == 3

    def test_batch_flushes_entities_in_first_touch_order(self):
        broker = make_broker()
        broker.create_entity("e1", "T")
        broker.create_entity("e2", "T")
        order = []
        broker.subscribe(Subscription(lambda n: order.append(n.entity.entity_id), entity_type="T"))
        with broker.batch():
            broker.update_attributes("e2", {"a": 1})
            broker.update_attributes("e1", {"a": 1})
            broker.update_attributes("e2", {"b": 1})
        assert order == ["e2", "e1"]

    def test_update_hooks_still_fire_per_update_inside_batch(self):
        broker = make_broker()
        broker.create_entity("e1", "T")
        hook_calls = []
        broker.update_hooks.append(lambda entity, changed: hook_calls.append(list(changed)))
        with broker.batch():
            broker.update_attributes("e1", {"a": 1})
            broker.update_attributes("e1", {"b": 2})
        assert hook_calls == [["a"], ["b"]]

    def test_nested_batches_flush_at_outermost_exit(self):
        broker = make_broker()
        broker.create_entity("e1", "T")
        received = []
        broker.subscribe(Subscription(received.append, entity_id="e1"))
        with broker.batch():
            with broker.batch():
                broker.update_attributes("e1", {"a": 1})
            assert received == []
        assert len(received) == 1


class TestTypedQuery:
    def setup_broker(self):
        broker = make_broker()
        broker.create_entity("soil-1", "SoilProbe", {"soilMoisture": 0.15, "farm": "A"})
        broker.create_entity("soil-2", "SoilProbe", {"soilMoisture": 0.32, "farm": "B"})
        broker.create_entity("valve-1", "Valve", {"open": True})
        return broker

    def test_query_builder(self):
        from repro.context import Query

        broker = self.setup_broker()
        dry = broker.query(Query(type="SoilProbe").where("soilMoisture", "<", 0.2))
        assert [e.entity_id for e in dry] == ["soil-1"]

    def test_attr_filter_objects_in_filters_list(self):
        from repro.context import AttrFilter

        broker = self.setup_broker()
        result = broker.query(filters=[AttrFilter("farm", "==", "A")])
        assert [e.entity_id for e in result] == ["soil-1"]

    def test_typed_path_emits_no_deprecation_warning(self):
        import warnings

        from repro.context import Query

        broker = self.setup_broker()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            broker.query(Query(type="SoilProbe").where("soilMoisture", "<", 0.2))

    def test_string_filters_are_rejected(self):
        # Deprecation cycle complete: strings now fail loudly at the broker.
        broker = self.setup_broker()
        with pytest.raises(QueryError, match="no longer accepted"):
            broker.query(filters=["soilMoisture<0.2"])

    def test_query_with_int_value_matches_numbers(self):
        from repro.context import Query

        broker = make_broker()
        broker.create_entity("e1", "T", {"count": 5})
        assert [e.entity_id for e in broker.query(Query(type="T").where("count", "==", 5))] == ["e1"]

    def test_bad_operator_rejected(self):
        from repro.context import AttrFilter, QueryError

        with pytest.raises(QueryError):
            AttrFilter("a", "~=", 1)

    def test_directly_set_attributes_are_queryable(self):
        # The IoT agent sets provisioning attributes straight on the
        # entity object; the write-through hook must index them.
        broker = make_broker()
        broker.create_entity("e1", "T")
        broker.get_entity("e1").set_attribute("deviceId", "dev-1", "Text")
        from repro.context import AttrFilter

        result = broker.query(filters=[AttrFilter("deviceId", "==", "dev-1")])
        assert [e.entity_id for e in result] == ["e1"]

    def test_delete_entity_cleans_indexes(self):
        from repro.context import Query

        broker = self.setup_broker()
        broker.delete_entity("soil-1")
        assert broker.query(Query(type="SoilProbe").where("farm", "==", "A")) == []
        assert "soil-1" not in broker._type_index.get("SoilProbe", {})

    def test_dispatch_candidates_counter(self):
        from repro.telemetry import MetricsRegistry

        sim = Simulator(seed=0, metrics=MetricsRegistry())
        broker = ContextBroker(sim)
        broker.create_entity("e1", "T")
        for i in range(5):
            broker.subscribe(Subscription(lambda n: None, entity_id=f"other-{i}"))
        broker.subscribe(Subscription(lambda n: None, entity_id="e1"))
        before = sim.metrics.total("context.dispatch_candidates")
        broker.update_attributes("e1", {"a": 1})
        # Only the one matching-id bucket is examined, not all six subs.
        assert sim.metrics.total("context.dispatch_candidates") - before == 1
