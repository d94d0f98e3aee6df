"""The unified metrics core.

Every platform subsystem (simkernel, MQTT, context broker, fog
replication, scheduler, security stack) exposes its hot-path counts
through one labeled :class:`MetricsRegistry` so a pilot run can export a
single JSON snapshot of cross-subsystem behaviour.

Design constraints, in order:

1. **Zero overhead on the hot path.**  A component keeps its own counts
   (the stats its reports already read) and registers each counter as a
   view over one of them with :meth:`MetricsRegistry.register_counter`;
   gauges come from :meth:`MetricsRegistry.register_callback`.  The
   registry reads both only when a snapshot is taken, so an event costs
   the component's own ``+=`` and nothing more, whether metrics are on
   or off.  The one instrument still fed per event is a :class:`Counter`
   for the QoS outbox counts, which no long-lived component owns.  A
   disabled registry ignores views and callbacks and hands out a shared
   null instrument for counters, histograms and timers.  The registry
   never schedules simulator events and never draws from an RNG stream,
   so enabling or disabling metrics cannot perturb a deterministic run.
2. **Deterministic snapshots.**  Counters, gauges and histograms record
   only what components count or feed them; the sole wall-clock
   consumer is :class:`Timer` (latency histograms), which reads
   ``perf_counter`` outside the simulation's event ordering.
3. **Stdlib only, JSON-safe export.**
"""

import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LabelPairs = Tuple[Tuple[str, str], ...]

# Default latency buckets (seconds): 1 µs .. 1 s, roughly log-spaced.
DEFAULT_TIME_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)
# Default value buckets for generic histograms.
DEFAULT_BUCKETS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0)


def _label_key(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_name(name: str, labels: LabelPairs) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot_value(self) -> float:
        return self.value


class Histogram:
    """Bucketed distribution with count/sum/min/max."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelPairs = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot_value(self) -> Dict[str, Any]:
        buckets = {f"le_{bound:g}": c for bound, c in zip(self.bounds, self.bucket_counts)}
        buckets["le_inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class Timer:
    """Context manager recording wall-clock durations into a histogram.

    ``with timer: ...`` observes the elapsed seconds.  Durations are
    *measurement* only — they never feed back into simulation state.
    """

    __slots__ = ("histogram", "_started")

    kind = "timer"

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self._started = 0.0

    @property
    def name(self) -> str:
        return self.histogram.name

    @property
    def labels(self) -> LabelPairs:
        return self.histogram.labels

    def observe(self, seconds: float) -> None:
        self.histogram.observe(seconds)

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.histogram.observe(time.perf_counter() - self._started)


class _NullInstrument:
    """Shared do-nothing instrument handed out by a disabled registry."""

    __slots__ = ()

    name = ""
    labels: LabelPairs = ()
    kind = "null"
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def snapshot_value(self) -> float:
        return 0.0


NULL_INSTRUMENT = _NullInstrument()


def _read_views(views: List[Callable[[], float]]) -> float:
    total = 0.0
    for fn in views:
        total += fn()
    return total


class MetricsRegistry:
    """Labeled index over component counts, plus histograms and timers.

    Counter views and gauge callbacks are keyed by ``(name, sorted
    labels)`` and read at snapshot time.  Instruments are get-or-create
    under the same keys; asking for one name with a different instrument
    kind raises.  ``enabled=False`` turns the registry into a null
    object: views and callbacks are ignored, every factory returns
    :data:`NULL_INSTRUMENT` and ``snapshot()`` is empty.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[Tuple[str, LabelPairs], Any] = {}
        self._views: Dict[Tuple[str, LabelPairs], List[Callable[[], float]]] = {}
        self._callbacks: Dict[Tuple[str, LabelPairs], Callable[[], float]] = {}

    # -- factories -----------------------------------------------------------

    def _get_or_create(self, cls, name: str, labels: Optional[Dict[str, str]],
                       **kwargs):
        key = (name, _label_key(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        instrument = cls(name, key[1], **kwargs)
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None) -> Counter:
        """A counter fed per event; prefer :meth:`register_counter` when a
        long-lived component already keeps the count."""
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get_or_create(Counter, name, labels)

    def histogram(
        self, name: str, labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def timer(
        self, name: str, labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Timer:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        histogram = self._get_or_create(Histogram, name, labels, buckets=buckets)
        return Timer(histogram)

    def register_counter(
        self, name: str, fn: Callable[[], float],
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Register a counter that reads a count its component keeps.

        ``fn`` is called only when a snapshot (or :meth:`value` /
        :meth:`total`) reads the counter, so counting stays the
        component's own ``+=``.  Registrations under one key add up: every
        PEP of a run feeds ``security.auth_checks{verdict}``.
        """
        if not self.enabled:
            return
        self._views.setdefault((name, _label_key(labels)), []).append(fn)

    def register_callback(
        self, name: str, fn: Callable[[], float],
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Register a gauge evaluated lazily at snapshot time.

        Used for live depths (event queue, replication backlog) so the
        hot path pays nothing: the value is read only when exporting.
        """
        if not self.enabled:
            return
        self._callbacks[(name, _label_key(labels))] = fn

    # -- lookup -----------------------------------------------------------

    def value(self, name: str, labels: Optional[Dict[str, str]] = None) -> Any:
        """Current value of one instrument (None when absent)."""
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is not None:
            return instrument.snapshot_value()
        views = self._views.get(key)
        if views is not None:
            return _read_views(views)
        callback = self._callbacks.get(key)
        if callback is not None:
            return float(callback())
        return None

    def total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        total = 0.0
        for (metric_name, _), instrument in self._instruments.items():
            if metric_name == name and isinstance(instrument, Counter):
                total += instrument.value
        for (metric_name, _), views in self._views.items():
            if metric_name == name:
                total += _read_views(views)
        return total

    def names(self) -> List[str]:
        return sorted({name for name, _ in self._instruments} |
                      {name for name, _ in self._views} |
                      {name for name, _ in self._callbacks})

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every metric, grouped by kind."""
        if not self.enabled:
            return {"enabled": False, "counters": {}, "gauges": {}, "histograms": {}}
        counts: Dict[Tuple[str, LabelPairs], float] = {
            key: _read_views(views) for key, views in self._views.items()
        }
        histograms: Dict[str, Any] = {}
        for key, instrument in sorted(self._instruments.items()):
            if isinstance(instrument, Counter):
                counts[key] = instrument.value
            else:
                histograms[_format_name(*key)] = instrument.snapshot_value()
        counters = {_format_name(*key): value for key, value in sorted(counts.items())}
        gauges = {
            _format_name(*key): float(fn())
            for key, fn in sorted(self._callbacks.items())
        }
        return {
            "enabled": True,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


#: Shared disabled registry: the default for components constructed
#: outside a metrics-enabled runtime.
NULL_REGISTRY = MetricsRegistry(enabled=False)
