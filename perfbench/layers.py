"""Outside-in layer attribution: exclusive wall time per layer.

Nothing under ``src/`` is changed.  Two mechanisms together charge every
host second of a traced timed phase to exactly one layer:

* **Boundary wrappers.**  ``BOUNDARIES`` lists the public calls and the
  registered callbacks that cross a layer boundary.  :meth:`Boundaries.install`
  replaces them at class level with timing wrappers.  It must run before
  the platform is built: callbacks (broker hooks, MQTT handlers, route
  handlers) are bound methods captured at build time.
  :meth:`Boundaries.remove` restores the originals.
* **Event attribution.**  A :class:`LayerClock` set as
  ``Simulator.profiler`` receives ``record(event, wall_s)`` after each
  kernel event.  The event's self time, its wall time minus the wrapped
  calls inside it, goes to the layer its label names
  (:func:`event_layer`).

A wrapped call's self time is its duration minus the wrapped calls it
made.  ``simkernel`` gets the loop itself: ``sim.wall_time_s`` minus all
event time.  Calls the benchmark makes for its own bookkeeping (token
lookups, reference reads) run with ``LayerClock.suspended`` set: the
wrappers pass them straight through, so their time stays in the
benchmark's event and is reported as ``bench``.
"""

import functools
import importlib
import time
from collections import defaultdict

#: Every layer a self time can be charged to.  The traced table closes
#: when these sum to the traced wall time.
LAYERS = (
    "simkernel", "network", "mqtt", "devices", "agents",
    "security.crypto", "security.auth", "security.pdp",
    "context", "context.query", "history.ingest", "history.read", "fog",
    "store.append", "store.commit", "store.compaction",
    "store.read", "store.read.wal_scan", "store.read.chunk_decode",
    "service", "service.handler", "service.router", "service.cache",
    "resilience", "physics", "irrigation", "bench", "other",
)


def _one(args, result):
    return 1


def _rejected(args, result):
    return 0 if result else 1


def _length(args, result):
    return len(result)


def _returned(args, result):
    return result


def _hit(args, result):
    return 0 if result is None else 1


def _arg_length(args, result):
    return len(args[-1])


def _rows(args, result):
    return len(result.rows) if result.stats is None else 1


def _scanned(args, result):
    return result.scanned_samples


#: (module, class, method, layer, counters).  ``layer`` None makes a
#: count-only wrapper that adds no timing frame.  A method ending in ``*``
#: is a prefix: every method of the class with that prefix is wrapped.
#: ``counters`` is a tuple of (name, tally(args, result)).
BOUNDARIES = (
    ("repro.network.link", "Link", "transmit", "network",
     (("network.transmits", _one),)),
    ("repro.mqtt.broker", "MqttBroker", "on_packet", "mqtt", (("mqtt.packets", _one),)),
    ("repro.mqtt.client", "MqttClient", "on_packet", "mqtt", (("mqtt.packets", _one),)),
    ("repro.mqtt.client", "MqttClient", "publish", "mqtt", ()),
    ("repro.agents.iot_agent", "IoTAgent", "_on_measure", "agents",
     (("agents.measures", _one),)),
    ("repro.agents.iot_agent", "IoTAgent", "_on_command_ack", "agents", ()),
    ("repro.agents.iot_agent", "IoTAgent", "send_command", "agents", ()),
    ("repro.security.crypto.channel", "SecureChannel", "seal", "security.crypto",
     (("security.crypto.calls", _one),)),
    ("repro.security.crypto.channel", "SecureChannel", "open", "security.crypto",
     (("security.crypto.calls", _one),)),
    ("repro.security.auth.pep", "PepProxy", "check", "security.auth", ()),
    ("repro.security.auth.pep", "PepProxy", "mqtt_authorizer", "security.auth", ()),
    ("repro.security.auth.pep", "PepProxy", "mqtt_authenticator", "security.auth", ()),
    ("repro.security.auth.oauth", "OAuthServer", "introspect", "security.auth",
     (("security.oauth.introspects", _one),)),
    ("repro.security.auth.pdp", "PolicyDecisionPoint", "decide", "security.pdp",
     (("security.pdp.decisions", _one),)),
    ("repro.context.broker", "ContextBroker", "update_attributes", "context",
     (("context.updates", _one),)),
    ("repro.context.broker", "ContextBroker", "query", "context.query", ()),
    ("repro.context.history", "ShortTermHistory", "_on_update", "history.ingest", ()),
    ("repro.context.history", "ShortTermHistory", "read", "history.read", ()),
    ("repro.fog.replication", "Replicator", "_capture", "fog", ()),
    ("repro.fog.replication", "_ReplicatorEndpoint", "on_packet", "fog", ()),
    ("repro.store.durable", "DurabilityService", "on_sample", "store.append",
     (("store.samples", _one),)),
    ("repro.store.durable", "SegmentStore", "commit", "store.commit",
     (("store.commits", _one),)),
    ("repro.store.columnar", "CompactionService", "compact_once", "store.compaction",
     (("store.compacted_records", _returned),)),
    ("repro.store.columnar", "ColumnarReader", "read", "store.read",
     (("store.reads", _one), ("store.rows", _rows), ("store.scanned", _scanned))),
    ("repro.store.durable", "SegmentStore", "read_all", "store.read.wal_scan",
     (("store.wal_records", _length),)),
    ("repro.store.columnar", "ColumnarStore", "read_chunk", "store.read.chunk_decode",
     (("store.chunks_decoded", _one),)),
    ("repro.store.backend", "AppendFile", "append", None,
     (("store.bytes_written", _arg_length),)),
    ("repro.store.columnar", "ColumnarStore", "append_chunk", None,
     (("store.bytes_written", _arg_length),)),
    ("repro.service.app", "NgsiService", "handle", "service",
     (("service.requests", _one),)),
    ("repro.service.app", "NgsiService", "_h_*", "service.handler", ()),
    ("repro.service.http", "Router", "match", "service.router", ()),
    ("repro.service.cache", "ResponseCache", "lookup", "service.cache",
     (("service.cache.lookups", _one), ("service.cache.hits", _hit))),
    ("repro.service.cache", "ResponseCache", "store", "service.cache", ()),
    ("repro.service.cache", "ResponseCache", "note_write", "service.cache", ()),
    ("repro.resilience.backpressure", "RateLimiter", "admit", "resilience",
     (("service.quota_rejected", _rejected),)),
    ("repro.physics.field", "Field", "advance_day", "physics", ()),
    ("repro.irrigation.scheduler", "PlatformScheduler", "run_cycle", "irrigation",
     (("irrigation.cycles", _one),)),
)

#: MQTT client timers; the broker's session sweep ends in ``:sweep``.
_MQTT_TIMER_SUFFIXES = (":sweep", ":ping", ":reconnect", ":sub-retry", ":connack-timeout")

#: Event-label prefixes, checked in order (``link:fog:sync->cloud:sync``
#: is network traffic, not the replicator's ``proc:replicator:fog:sync``).
_EVENT_PREFIXES = (
    ("link:", "network"),
    ("bench:", "bench"),
    ("sweep:", "devices"),
    ("proc:replicator:", "fog"),
    ("proc:store-flush", "store.commit"),
    ("proc:store-compact", "store.compaction"),
    ("proc:season", "physics"),
    ("proc:scheduler", "irrigation"),
    ("proc:fixed-scheduler", "irrigation"),
    ("proc:survey:", "devices"),
    ("proc:valve:", "devices"),
    ("proc:pivot:", "devices"),
    ("proc:fail:", "devices"),
    ("proc:fw:", "devices"),
    ("survey", "devices"),
    ("proc:service-pump", "service"),
    ("proc:resilience:", "resilience"),
)


def event_layer(label):
    """The layer a kernel event with ``label`` belongs to."""
    for prefix, layer in _EVENT_PREFIXES:
        if label.startswith(prefix):
            return layer
    if label.endswith(_MQTT_TIMER_SUFFIXES):
        return "mqtt"
    return "other"


class LayerClock:
    """Accumulates exclusive wall time per layer; a ``Simulator.profiler``."""

    def __init__(self):
        self.cells = {layer: [0.0] for layer in LAYERS}
        self.counts = defaultdict(int)
        self.event_counts = defaultdict(int)
        #: Child-time accumulators of the open wrapped calls.  Slot 0
        #: collects wrapped calls made directly inside the current event.
        self.stack = [0.0]
        self.suspended = False
        self.event_wall_s = 0.0
        self.events = 0
        self._label_layers = {}

    def reset(self):
        """Zero everything; called when the timed phase starts."""
        for cell in self.cells.values():
            cell[0] = 0.0
        self.counts.clear()
        self.event_counts.clear()
        self.stack[:] = [0.0]
        self.event_wall_s = 0.0
        self.events = 0

    def record(self, event, wall_s):
        """Profiler hook: charge one kernel event's self time."""
        stack = self.stack
        inner = stack[0]
        stack[0] = 0.0
        label = event.label
        layer = self._label_layers.get(label)
        if layer is None:
            layer = self._label_layers[label] = event_layer(label)
        self.cells[layer][0] += wall_s - inner
        self.event_counts[layer] += 1
        self.event_wall_s += wall_s
        self.events += 1


def _wrap(clock, fn, layer, counters):
    counts = clock.counts
    if layer is None:
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not clock.suspended:
                for name, tally in counters:
                    counts[name] += tally(args, result)
            return result
        wrapper = counting
    else:
        perf_counter = time.perf_counter
        stack = clock.stack
        cell = clock.cells[layer]

        def timed(*args, **kwargs):
            if clock.suspended:
                return fn(*args, **kwargs)
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                cell[0] += elapsed - stack.pop()
                stack[-1] += elapsed
            for name, tally in counters:
                counts[name] += tally(args, result)
            return result
        wrapper = timed
    functools.update_wrapper(wrapper, fn)
    wrapper.perfbench_layer = layer
    return wrapper


def _targets():
    """Yield (class, method name, layer, counters) for every boundary."""
    for module, class_name, method, layer, counters in BOUNDARIES:
        cls = getattr(importlib.import_module(module), class_name)
        if method.endswith("*"):
            names = sorted(n for n in vars(cls) if n.startswith(method[:-1]))
        else:
            names = [method]
        for name in names:
            yield cls, name, layer, counters


def wrapped_boundaries():
    """Names of boundary methods currently wrapped (empty when untraced)."""
    return [
        f"{cls.__name__}.{name}"
        for cls, name, _layer, _counters in _targets()
        if hasattr(vars(cls)[name], "perfbench_layer")
    ]


class Boundaries:
    """Installs and removes the class-level boundary wrappers."""

    def __init__(self, clock):
        self.clock = clock
        self._saved = []

    def install(self):
        if wrapped_boundaries():
            raise RuntimeError("boundary wrappers are already installed")
        for cls, name, layer, counters in _targets():
            original = vars(cls)[name]
            setattr(cls, name, _wrap(self.clock, original, layer, counters))
            self._saved.append((cls, name, original))

    def remove(self):
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_table(clock, sim_wall_s, traced_wall_s):
    """Per-layer self times (seconds) for one traced phase, plus closure.

    ``sim_wall_s`` is the simulator's wall time over the phase; the loop's
    own share is what its events did not take.  Returns
    ``(self_times, closure)`` where ``closure`` is the sum of the self
    times over ``traced_wall_s``.
    """
    self_times = {layer: clock.cells[layer][0] for layer in LAYERS}
    self_times["simkernel"] = sim_wall_s - clock.event_wall_s
    closure = _ratio(sum(self_times.values()), traced_wall_s)
    return self_times, closure


def self_metric(layer):
    """The ``per_layer`` metric name of ``layer``'s self time."""
    return {
        "store.read.wal_scan": "store.read.wal_scan_s",
        "store.read.chunk_decode": "store.read.chunk_decode_s",
    }.get(layer, f"{layer}.self_s")


def layer_metrics(clock, self_times, extras):
    """The ``per_layer`` metric values from one traced phase.

    ``extras`` carries what the workload counted from outside the
    boundaries: ``devices.readings``, ``fog.synced``, link ``sent`` and
    ``delivered``, ``store.disk_bytes_per_sample``, ``trace.wall_s`` and
    ``trace.overhead_ratio``.
    """
    c = clock.counts
    out = {self_metric(layer): seconds for layer, seconds in self_times.items()}
    reads = c["store.reads"]
    out.update({
        "simkernel.events": clock.events,
        "network.transmits": c["network.transmits"],
        "network.delivery_ratio": _ratio(extras["link.delivered"], extras["link.sent"]),
        "mqtt.packets": c["mqtt.packets"],
        "mqtt.timer_events": clock.event_counts["mqtt"],
        "devices.readings": extras["devices.readings"],
        "agents.measures": c["agents.measures"],
        "security.crypto.calls": c["security.crypto.calls"],
        "security.pdp.decisions": c["security.pdp.decisions"],
        "security.oauth.introspects_per_request": _ratio(
            c["service.introspects_in_handle"], c["service.requests"]),
        "context.updates": c["context.updates"],
        "fog.synced": extras["fog.synced"],
        "store.commits": c["store.commits"],
        "store.compacted_records": c["store.compacted_records"],
        "store.bytes_written_per_sample": _ratio(
            c["store.bytes_written"], c["store.samples"]),
        "store.disk_bytes_per_sample": extras["store.disk_bytes_per_sample"],
        "store.wal_records_per_read": _ratio(c["store.wal_records"], reads),
        "store.chunks_decoded_per_read": _ratio(c["store.chunks_decoded"], reads),
        "store.scanned_per_row": _ratio(c["store.scanned"], c["store.rows"]),
        "service.cache.hit_rate": _ratio(
            c["service.cache.hits"], c["service.cache.lookups"]),
        "service.quota_rejected": c["service.quota_rejected"],
        "irrigation.cycles": c["irrigation.cycles"],
        "trace.wall_s": extras["trace.wall_s"],
        "trace.overhead_ratio": extras["trace.overhead_ratio"],
    })
    return out
