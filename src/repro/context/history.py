"""Short-term history (STH-Comet equivalent).

Attaches to a :class:`~repro.context.broker.ContextBroker` via an update
hook and records every numeric attribute change as a (time, value) sample.
All query shapes STH exposes — raw range, last-N, bucketed rollups and
min/max/mean/sum/count aggregates — are served through **one typed read
API**: build a :class:`HistoryQuery`, call :meth:`ShortTermHistory.read`,
get a :class:`HistoryResult` back.

Series are bounded per (entity, attribute) to keep multi-season runs in
memory; eviction drops the oldest samples.

**Rollups.**  When enabled (:meth:`ShortTermHistory.enable_rollups`, or
the ``rollup_periods`` constructor argument), every sample additionally
folds into time-bucketed aggregates — one sparse bucket map per
(series, period), the STH-Comet ``aggrPeriod`` shapes (raw → minute →
hour by default).  Buckets keep ``count/min/max/sum`` so any of the five
aggregation methods reads in O(buckets in range); empty buckets are
never materialized.  Folding is pure accounting — no events scheduled,
no randomness drawn — so enabling rollups never perturbs a run's event
sequence, and rollup contents are a deterministic function of the raw
samples (late, out-of-order samples fold into the bucket their own
timestamp selects, not the newest one).  Rollups are off by default to
keep the telemetry hot path bare; the north-facing service layer enables
them when it attaches.

**One fold.**  Every count/min/max/sum in the history tier comes from
:func:`fold`: ingest rollup buckets, memory and columnar rollup reads,
both aggregate paths (an aggregate is a one-bucket rollup) and the
columnar zone maps.  It folds sample by sample in append order, so a
``sum`` is the same left fold wherever it is computed, and memory and
columnar answers are bit-identical on every interpreter (builtin
``sum()`` is compensated from Python 3.12 on, a left fold before).
:func:`rollup_rows` and :func:`window_stats` turn folded buckets into
the rows and stats a :class:`HistoryResult` carries.

**Read sources.**  ``read(query)`` defaults to ``source="auto"``: the
bounded in-memory rings/buckets answer unless a columnar backend has
been bound (:meth:`ShortTermHistory.bind_columnar`, done by the store's
compaction service), in which case queries stream from sealed chunk
files plus the WAL tail with zone-map pruning — same rows, bounded
memory, and reach beyond the ring eviction horizon.  ``source="memory"``
or ``"columnar"`` forces a path.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.context.broker import ContextBroker
from repro.context.entities import ContextEntity
from repro.context.errors import QueryError

Sample = Tuple[float, float]

#: STH-Comet's sub-day aggregation periods, in seconds.
MINUTE_S = 60.0
HOUR_S = 3600.0

#: The first four are also the slots of a :func:`fold` bucket, in this
#: order; mean = sum/count.
ROLLUP_METHODS = ("count", "min", "max", "sum", "mean")

#: Query kinds a :class:`HistoryQuery` can resolve to.
QUERY_KINDS = ("raw", "lastn", "rollup", "aggregate")


def fold(buckets: Dict[int, List[float]], index: int, v: float) -> bool:
    """Fold ``v`` into ``buckets[index]``, a ``[count, min, max, sum]``
    list; True when this sample created the bucket."""
    bucket = buckets.get(index)
    if bucket is None:
        buckets[index] = [1.0, v, v, v]
        return True
    bucket[0] += 1.0
    if v < bucket[1]:
        bucket[1] = v
    if v > bucket[2]:
        bucket[2] = v
    bucket[3] += v
    return False


def rollup_rows(buckets: Dict[int, List[float]], query: "HistoryQuery") -> List[Sample]:
    """``(bucket start, value)`` rows, oldest first, for every bucket whose
    start falls in ``[query.since, query.until]``."""
    period_s = query.period_s
    method = query.effective_method
    slot = None if method == "mean" else ROLLUP_METHODS.index(method)
    rows: List[Sample] = []
    for index in sorted(buckets):
        start = index * period_s
        if query.since <= start <= query.until:
            bucket = buckets[index]
            rows.append((start, bucket[3] / bucket[0] if slot is None else bucket[slot]))
    return rows


def window_stats(samples, since: float, until: float) -> Optional[Dict[str, float]]:
    """Aggregate summary of the ``(t, v)`` samples with ``since <= t <=
    until`` (a one-bucket fold); None when none match."""
    acc: Dict[int, List[float]] = {}
    for t, v in samples:
        if since <= t <= until:
            fold(acc, 0, v)
    if not acc:
        return None
    count, vmin, vmax, vsum = acc[0]
    return {"count": count, "min": vmin, "max": vmax, "sum": vsum, "mean": vsum / count}


@dataclass(frozen=True)
class HistoryQuery:
    """One typed history read: which series, which shape, which window.

    Exactly one of four shapes, inferred from the fields
    (:attr:`kind`):

    * **raw** — every sample with ``since <= t <= until`` (the default);
    * **lastn** — the newest ``last_n`` samples (window ignored by the
      in-memory ring, matching STH's ``lastN``);
    * **rollup** — ``period_s`` bucketed aggregates; ``method`` is one of
      :data:`ROLLUP_METHODS` (default ``mean``), a bucket is listed when
      its *start* falls in ``[since, until]``;
    * **aggregate** — one count/min/max/sum/mean summary over the window
      (``aggregate=True``).
    """

    entity_id: str
    attr: str
    since: float = float("-inf")
    until: float = float("inf")
    last_n: Optional[int] = None
    period_s: Optional[float] = None
    method: Optional[str] = None
    aggregate: bool = False

    @property
    def kind(self) -> str:
        if self.period_s is not None:
            return "rollup"
        if self.aggregate:
            return "aggregate"
        if self.last_n is not None:
            return "lastn"
        return "raw"

    @property
    def effective_method(self) -> str:
        return self.method if self.method is not None else "mean"

    def validate(self) -> None:
        """Raise :class:`~repro.context.errors.QueryError` on shape
        conflicts (lastN+rollup, method without a period, ...)."""
        if self.last_n is not None and (self.period_s is not None or self.aggregate):
            raise QueryError("last_n cannot combine with period_s/aggregate")
        if self.aggregate and self.period_s is not None:
            raise QueryError("aggregate=True cannot combine with period_s")
        if self.last_n is not None and self.last_n < 1:
            raise QueryError(f"last_n must be >= 1, got {self.last_n}")
        if self.period_s is not None and self.period_s <= 0:
            raise QueryError(f"period_s must be positive, got {self.period_s!r}")
        if self.method is not None and self.period_s is None:
            raise QueryError("method only applies to rollup queries (set period_s)")
        if self.period_s is not None and self.effective_method not in ROLLUP_METHODS:
            raise QueryError(
                f"unknown rollup method {self.effective_method!r}; "
                f"expected one of {ROLLUP_METHODS}"
            )


@dataclass
class HistoryResult:
    """What a :meth:`ShortTermHistory.read` returned, plus how.

    ``rows`` is the ``[(t, value), ...]`` answer for raw/lastn/rollup
    queries (empty for aggregates); ``stats`` is the aggregate summary
    dict (``None`` when the window held no samples).  The scan counters
    expose the columnar path's zone-map pruning — ``pruned_blocks`` is
    how many on-disk blocks the zone maps skipped without reading.
    """

    query: HistoryQuery
    kind: str
    source: str
    rows: List[Sample] = field(default_factory=list)
    stats: Optional[Dict[str, float]] = None
    scanned_samples: int = 0
    scanned_blocks: int = 0
    pruned_blocks: int = 0


class ShortTermHistory:
    def __init__(
        self,
        broker: ContextBroker,
        max_samples_per_series: int = 50_000,
        rollup_periods: Tuple[float, ...] = (),
        max_buckets_per_series: int = 8192,
    ) -> None:
        self.broker = broker
        self.max_samples_per_series = max_samples_per_series
        self.max_buckets_per_series = max_buckets_per_series
        self._series: Dict[Tuple[str, str], Deque[Sample]] = {}
        # period_s -> series key -> bucket index -> [count, min, max, sum].
        self._rollups: Dict[float, Dict[Tuple[str, str], Dict[int, List[float]]]] = {}
        # Durable write-through sink (a DurabilityService), None by default.
        self._sink = None
        # Columnar read backend (a ColumnarReader), None by default.
        self._columnar = None
        if rollup_periods:
            self.enable_rollups(rollup_periods)
        broker.update_hooks.append(self._on_update)

    def _on_update(self, entity: ContextEntity, changed: List[str]) -> None:
        for name in changed:
            attribute = entity.attribute(name)
            if attribute is None or not isinstance(attribute.value, (int, float)):
                continue
            if isinstance(attribute.value, bool):
                continue
            key = (entity.entity_id, name)
            series = self._series.get(key)
            if series is None:
                series = deque(maxlen=self.max_samples_per_series)
                self._series[key] = series
            t, v = attribute.timestamp, float(attribute.value)
            series.append((t, v))
            if self._rollups:
                self._fold(key, t, v)
            if self._sink is not None:
                self._sink.on_sample(entity.entity_id, name, t, v)

    # -- durability ----------------------------------------------------------

    def set_sink(self, sink) -> None:
        """Write every accepted sample through ``sink`` (anything with an
        ``on_sample(entity_id, attr, t, v)`` method — in practice a
        :class:`~repro.store.durable.DurabilityService`)."""
        self._sink = sink

    def bind_columnar(self, reader) -> None:
        """Route ``source="auto"`` reads through ``reader`` (anything
        with a ``read(HistoryQuery) -> HistoryResult`` method — in
        practice a :class:`~repro.store.columnar.ColumnarReader`)."""
        self._columnar = reader

    @property
    def columnar(self):
        return self._columnar

    def rebuild_from_samples(self, samples) -> None:
        """Crash recovery: drop all in-memory state and re-fold ``samples``.

        ``samples`` is an iterable of ``(entity_id, attr, t, v)`` in the
        original append order.  Re-folding in that order reproduces ring
        eviction *and* rollup-bucket eviction decision-for-decision, so
        reads after a rebuild are bit-identical to an uninterrupted run
        that only ever saw this prefix.
        """
        periods = tuple(self._rollups)
        self._series = {}
        self._rollups = {period: {} for period in periods}
        for entity_id, attr, t, v in samples:
            key = (entity_id, attr)
            series = self._series.get(key)
            if series is None:
                series = deque(maxlen=self.max_samples_per_series)
                self._series[key] = series
            series.append((t, v))
            if self._rollups:
                self._fold(key, t, v)

    # -- rollups -------------------------------------------------------------

    @property
    def rollup_periods(self) -> Tuple[float, ...]:
        return tuple(self._rollups)

    def enable_rollups(self, periods: Tuple[float, ...] = (MINUTE_S, HOUR_S)) -> None:
        """Start maintaining bucketed aggregates for ``periods``.

        Idempotent per period.  New periods are **backfilled** from the
        raw rings, so rollups enabled after samples were recorded cover
        whatever raw history is still retained — the same truncation STH
        applies when its raw collection is capped.
        """
        for period in periods:
            if period <= 0:
                raise QueryError(f"rollup period must be positive, got {period!r}")
            if period in self._rollups:
                continue
            backfill = {period: {}}
            for key, series in self._series.items():
                for t, v in series:
                    self._fold(key, t, v, backfill)
            self._rollups.update(backfill)

    def _fold(self, key: Tuple[str, str], t: float, v: float, rollups=None) -> None:
        """Fold one sample into its bucket of every enabled period (or of
        every period in ``rollups``)."""
        cap = self.max_buckets_per_series
        for period, by_series in (rollups or self._rollups).items():
            buckets = by_series.get(key)
            if buckets is None:
                buckets = by_series[key] = {}
            if fold(buckets, int(t // period), v) and len(buckets) > cap:
                # Evict the oldest bucket.  A straggler older than the
                # retention horizon opened it and is dropped again, which
                # keeps eviction order-independent for late samples.
                del buckets[min(buckets)]

    # -- the unified read API ------------------------------------------------

    def read(self, query: HistoryQuery, source: str = "auto") -> HistoryResult:
        """Answer ``query`` from ``source``.

        ``"auto"`` streams from the bound columnar backend when one is
        attached (:meth:`bind_columnar`) and falls back to the in-memory
        rings/buckets otherwise; ``"memory"`` / ``"columnar"`` force a
        path (the latter raises :class:`QueryError` when no backend is
        bound).  Where both paths retain the data, they answer
        bit-identically — the columnar path additionally reaches past
        ring/bucket eviction, since disk keeps what memory dropped.
        """
        query.validate()
        if source == "auto":
            source = "columnar" if self._columnar is not None else "memory"
        if source == "columnar":
            if self._columnar is None:
                raise QueryError(
                    "no columnar backend bound; enable store compaction or "
                    "query with source='memory'"
                )
            return self._columnar.read(query)
        if source != "memory":
            raise QueryError(
                f"unknown history source {source!r}; "
                "expected 'auto', 'memory' or 'columnar'"
            )
        return self._read_memory(query)

    def _read_memory(self, query: HistoryQuery) -> HistoryResult:
        kind = query.kind
        if kind == "rollup":
            return self._memory_rollup(query)
        key = (query.entity_id, query.attr)
        series = self._series.get(key, ())
        scanned = len(series)
        if kind == "lastn":
            rows = list(series)[-query.last_n:] if series else []
            return HistoryResult(query, kind, "memory", rows=rows,
                                 scanned_samples=scanned)
        if kind == "raw":
            rows = [s for s in series if query.since <= s[0] <= query.until]
            return HistoryResult(query, kind, "memory", rows=rows,
                                 scanned_samples=scanned)
        return HistoryResult(query, kind, "memory",
                             stats=window_stats(series, query.since, query.until),
                             scanned_samples=scanned)

    def _memory_rollup(self, query: HistoryQuery) -> HistoryResult:
        period_s = query.period_s
        by_series = self._rollups.get(period_s)
        if by_series is None:
            raise QueryError(
                f"rollup period {period_s!r} not enabled; "
                f"enabled: {sorted(self._rollups)}"
            )
        buckets = by_series.get((query.entity_id, query.attr), {})
        return HistoryResult(query, "rollup", "memory", rows=rollup_rows(buckets, query),
                             scanned_blocks=len(buckets))

    def tracked_series(self) -> List[Tuple[str, str]]:
        return sorted(self._series)
