"""The unified typed history read API."""

import pytest

from repro.context import (
    ContextBroker,
    HistoryQuery,
    HistoryResult,
    QueryError,
    ShortTermHistory,
)
from repro.context.history import MINUTE_S
from repro.simkernel import Simulator

EID = "urn:AgriParcel:demo:0-0"
ATTR = "soilMoisture"


def make_history(**kwargs):
    sim = Simulator(seed=7)
    broker = ContextBroker(sim)
    history = ShortTermHistory(broker, **kwargs)
    broker.create_entity(EID, "AgriParcel")
    return sim, broker, history


def feed(sim, broker, n, dt=10.0):
    for i in range(n):
        sim.run_until(sim.now + dt)
        broker.update_attributes(EID, {ATTR: 0.1 * (i % 13)})


class TestQueryShapes:
    def test_kind_inference(self):
        assert HistoryQuery(EID, ATTR).kind == "raw"
        assert HistoryQuery(EID, ATTR, last_n=5).kind == "lastn"
        assert HistoryQuery(EID, ATTR, period_s=MINUTE_S).kind == "rollup"
        assert HistoryQuery(EID, ATTR, aggregate=True).kind == "aggregate"

    def test_effective_method_defaults_to_mean(self):
        assert HistoryQuery(EID, ATTR, period_s=60.0).effective_method == "mean"
        assert HistoryQuery(
            EID, ATTR, period_s=60.0, method="sum").effective_method == "sum"

    @pytest.mark.parametrize("kwargs,match", [
        (dict(last_n=3, period_s=60.0), "cannot combine"),
        (dict(last_n=3, aggregate=True), "cannot combine"),
        (dict(aggregate=True, period_s=60.0), "cannot combine"),
        (dict(last_n=0), "must be >= 1"),
        (dict(period_s=0.0), "must be positive"),
        (dict(period_s=-5.0), "must be positive"),
        (dict(method="mean"), "only applies to rollup"),
        (dict(period_s=60.0, method="median"), "unknown rollup method"),
    ])
    def test_invalid_shapes_raise(self, kwargs, match):
        _sim, _broker, history = make_history(rollup_periods=(MINUTE_S,))
        with pytest.raises(QueryError, match=match):
            history.read(HistoryQuery(EID, ATTR, **kwargs))

    def test_result_carries_query_and_provenance(self):
        sim, broker, history = make_history()
        feed(sim, broker, 4)
        query = HistoryQuery(EID, ATTR)
        result = history.read(query)
        assert isinstance(result, HistoryResult)
        assert result.query is query
        assert result.kind == "raw"
        assert result.source == "memory"
        assert result.scanned_samples == 4


class TestSources:
    def test_columnar_without_backend_raises(self):
        _sim, _broker, history = make_history()
        with pytest.raises(QueryError, match="no columnar backend"):
            history.read(HistoryQuery(EID, ATTR), source="columnar")

    def test_unknown_source_raises(self):
        _sim, _broker, history = make_history()
        with pytest.raises(QueryError, match="unknown history source"):
            history.read(HistoryQuery(EID, ATTR), source="disk")

    def test_auto_prefers_bound_columnar(self):
        sim, broker, history = make_history()
        feed(sim, broker, 3)

        class FakeReader:
            def read(self, query):
                return HistoryResult(query, query.kind, "columnar",
                                     rows=[(0.0, 42.0)])

        history.bind_columnar(FakeReader())
        assert history.columnar is not None
        auto = history.read(HistoryQuery(EID, ATTR))
        assert auto.source == "columnar" and auto.rows == [(0.0, 42.0)]
        # Forcing memory still reads the rings.
        mem = history.read(HistoryQuery(EID, ATTR), source="memory")
        assert mem.source == "memory" and len(mem.rows) == 3

