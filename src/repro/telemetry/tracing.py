"""End-to-end causal tracing for the SWAMP reproduction.

The platform's security catalogue (fake-data detection, actuator
takeover, fog autonomy) presumes the question "which sensor reading
caused this irrigation actuation, via which broker hops?" is answerable.
This module makes it answerable: a :class:`TraceContext` is attached to
MQTT PUBLISH packets at the client, carried through broker routing, QoS
retransmission and offline queues, into context-broker updates and
subscription notifications, fog replication acks, scheduler decisions
and actuator commands.  The result is one span tree per causal chain —
"reading r on device d → MQTT publish → context update → notify →
scheduler decision → valve command" — queryable post-run and exportable
in Chrome-trace JSON (``chrome://tracing`` / Perfetto load it directly).

Design constraints, mirroring :mod:`repro.telemetry.metrics`:

1. **Zero overhead when disabled.**  ``NULL_TRACER`` is a shared
   disabled :class:`Tracer`; every entry point checks ``enabled`` first
   and returns immediately.  A disabled tracer never allocates, never
   schedules events and never draws from an RNG stream, so enabling or
   disabling tracing cannot perturb a deterministic run — the pinned
   pilot fixtures stay bit-identical either way.
2. **Seeded deterministic sampling.**  Head sampling is decided per
   trace from a splitmix-style hash of ``(seed, trace sequence)`` —
   never from the simulation's RNG registry, never from wall time — so
   the same seed always samples the same traces, at any rate.
3. **Sim-time spans.**  Span start/end are simulation seconds (wall
   time belongs to :mod:`repro.telemetry.profile`).  A span's ``end``
   covers its whole subtree: when a child ends after its parent (the
   normal case for asynchronous hops — the publish span closes long
   before the broker routes the packet), the ancestor chain's ``end``
   is extended so child time ranges always nest inside their parents.
4. **Bounded storage, drop-newest.**  Parents are always created before
   children, so refusing *new* spans at the cap never orphans a stored
   span; drops are counted.
"""

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "DeterministicSampler",
    "NULL_TRACER",
    "Span",
    "TraceConfig",
    "TraceContext",
    "Tracer",
    "validate_chrome_trace",
    "validate_span_trees",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a fast, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class DeterministicSampler:
    """Head sampler: keep a trace iff hash(seed, sequence) < rate.

    The decision depends only on the constructor ``seed`` and the
    per-trace sequence number, so a run re-executed with the same seed
    samples exactly the same traces — and changing the rate only adds or
    removes traces, it never reshuffles which sequence numbers pass at a
    given rate (the hash is compared against a moving threshold).
    """

    __slots__ = ("seed", "rate", "_mix")

    def __init__(self, seed: int = 0, rate: float = 1.0) -> None:
        self.seed = seed
        self.rate = rate
        self._mix = _splitmix64(seed & _MASK64)

    def sample(self, sequence: int) -> bool:
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        x = _splitmix64((sequence & _MASK64) ^ self._mix)
        return (x >> 11) / float(1 << 53) < self.rate


class TraceConfig:
    """Tracing knobs carried by :class:`~repro.core.pilot.PilotConfig`.

    ``None`` on the pilot config keeps tracing off entirely (the shared
    ``NULL_TRACER`` is installed); an instance — even a default one —
    enables it, head-sampling traces at ``sample_rate``.
    """

    __slots__ = ("sample_rate",)

    def __init__(self, sample_rate: float = 1.0) -> None:
        self.sample_rate = sample_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceConfig(sample_rate={self.sample_rate})"


class TraceContext:
    """The propagated identity of one span: (trace_id, span_id).

    This is what rides on a PUBLISH packet, an entity attribute or a
    replication update — deliberately tiny, immutable in practice, and
    excluded from every wire-size computation (it models packet
    metadata, not payload bytes).
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext(trace={self.trace_id}, span={self.span_id})"


class Span:
    """One operation in a trace; times are simulation seconds."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "kind",
                 "start", "end", "attrs", "links")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        # Causal links to spans in *other* traces (OpenTelemetry-style):
        # a scheduler decision links to the sensor-reading trace whose
        # context-broker attribute fed it.
        self.links: List[TraceContext] = []

    @property
    def ctx(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def add_link(self, ctx: Optional[TraceContext]) -> None:
        if ctx is not None:
            self.links.append(ctx)

    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name}, trace={self.trace_id}, span={self.span_id}, "
            f"parent={self.parent_id}, t=[{self.start:.3f},"
            f"{self.end if self.end is None else round(self.end, 3)}])"
        )


class Tracer:
    """Builds, stores and queries span trees for one simulation run.

    One tracer per :class:`~repro.simkernel.simulator.Simulator`; the
    simulator binds its clock at construction.  Synchronous propagation
    uses an explicit active-span stack (``current()``); asynchronous
    hops carry a :class:`TraceContext` on the message itself and pass it
    back in as ``parent=``.
    """

    def __init__(
        self,
        enabled: bool = True,
        seed: int = 0,
        sample_rate: float = 1.0,
        max_spans: int = 200_000,
    ) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.sampler = DeterministicSampler(seed, sample_rate)
        self._clock = None
        self._spans: Dict[int, Span] = {}
        self._trace_order: List[int] = []  # trace ids, first-span order
        self._stack: List[Span] = []
        self._next_trace_id = 0
        self._next_span_id = 0
        self.traces_started = 0
        self.traces_sampled = 0
        self.spans_dropped = 0

    # -- wiring -----------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Attach the sim clock spans read their timestamps from.

        A disabled tracer ignores the bind: ``NULL_TRACER`` is shared
        across every untraced simulator and must stay stateless.
        """
        if self.enabled:
            self._clock = clock

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    # -- span lifecycle -----------------------------------------------------

    def current(self) -> Optional[TraceContext]:
        """Context of the innermost active span, or None."""
        if not self._stack:
            return None
        return self._stack[-1].ctx

    def start_trace(self, name: str, kind: str, **attrs: Any) -> Optional[Span]:
        """Start a new root span; None when disabled or head-sampled out."""
        if not self.enabled:
            return None
        self.traces_started += 1
        if not self.sampler.sample(self.traces_started):
            return None
        self.traces_sampled += 1
        self._next_trace_id += 1
        return self._make_span(self._next_trace_id, None, name, kind, attrs)

    def start_span(
        self,
        name: str,
        kind: str,
        parent: Optional[TraceContext] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Start a child span under ``parent`` (default: the active span).

        Returns None when disabled or when there is no parent — spans
        exist only inside a sampled trace, so an unsampled root cheaply
        suppresses its whole downstream tree across every hop.
        """
        if not self.enabled:
            return None
        if parent is None:
            parent = self.current()
            if parent is None:
                return None
        elif isinstance(parent, Span):
            parent = parent.ctx
        return self._make_span(parent.trace_id, parent.span_id, name, kind, attrs)

    def _make_span(
        self,
        trace_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        attrs: Dict[str, Any],
    ) -> Optional[Span]:
        if len(self._spans) >= self.max_spans:
            self.spans_dropped += 1
            return None
        self._next_span_id += 1
        span = Span(trace_id, self._next_span_id, parent_id, name, kind, self._now(), attrs)
        self._spans[span.span_id] = span
        if parent_id is None:
            self._trace_order.append(trace_id)
        return span

    def end_span(self, span: Optional[Span]) -> None:
        """Close ``span`` at the current sim time and re-nest ancestors.

        Simulation time is monotonic, so a child always ends at or after
        its parent *started*; when an asynchronous hop makes it end after
        the parent *ended*, every closed ancestor's end is pulled forward
        — a span's time range therefore always covers its subtree.
        """
        if span is None:
            return
        span.end = self._now()
        parent = self._spans.get(span.parent_id) if span.parent_id is not None else None
        while parent is not None and parent.end is not None and parent.end < span.end:
            parent.end = span.end
            parent = (
                self._spans.get(parent.parent_id) if parent.parent_id is not None else None
            )

    def record_span(
        self,
        name: str,
        kind: str,
        parent: Optional[TraceContext] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """A point-in-time span: started and ended at the current instant."""
        span = self.start_span(name, kind, parent=parent, **attrs)
        self.end_span(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        kind: str,
        parent: Optional[TraceContext] = None,
        root: bool = False,
        **attrs: Any,
    ) -> Iterator[Optional[Span]]:
        """Start a span, keep it active for the block, end it on exit.

        Yields None (and still runs the block) when disabled, unsampled
        or parentless — callers never branch on tracing state.
        """
        if not self.enabled:
            yield None
            return
        if root:
            span = self.start_trace(name, kind, **attrs)
        else:
            span = self.start_span(name, kind, parent=parent, **attrs)
        if span is None:
            yield None
            return
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.end_span(span)

    @contextmanager
    def activate(self, span: Optional[Span]) -> Iterator[Optional[Span]]:
        """Make an already-started span the active parent for a block."""
        if span is None:
            yield None
            return
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, trace_id: Optional[int] = None) -> List[Span]:
        """Spans in creation order, optionally restricted to one trace."""
        all_spans = list(self._spans.values())
        if trace_id is None:
            return all_spans
        return [s for s in all_spans if s.trace_id == trace_id]

    def trace_ids(self) -> List[int]:
        return list(self._trace_order)

    def roots(self) -> List[Span]:
        return [s for s in self._spans.values() if s.parent_id is None]

    def find(self, name: Optional[str] = None, kind: Optional[str] = None) -> List[Span]:
        return [
            s for s in self._spans.values()
            if (name is None or s.name == name) and (kind is None or s.kind == kind)
        ]

    def tree(self, trace_id: int) -> Optional[Dict[str, Any]]:
        """One trace as a nested ``{"span": ..., "children": [...]}`` dict."""
        spans = self.spans(trace_id)
        if not spans:
            return None
        children: Dict[Optional[int], List[Span]] = {}
        root = None
        for span in spans:
            if span.parent_id is None:
                root = span
            else:
                children.setdefault(span.parent_id, []).append(span)

        def build(span: Span) -> Dict[str, Any]:
            return {
                "span": span,
                "children": [build(c) for c in children.get(span.span_id, ())],
            }

        return build(root) if root is not None else None

    def path_to_root(self, span: Span) -> List[Span]:
        """The ancestor chain root → ... → ``span`` (inclusive)."""
        path = [span]
        seen = {span.span_id}
        current = span
        while current.parent_id is not None:
            parent = self._spans.get(current.parent_id)
            if parent is None or parent.span_id in seen:
                break
            path.append(parent)
            seen.add(parent.span_id)
            current = parent
        path.reverse()
        return path

    def causal_chain(self, span: Span) -> Dict[str, Any]:
        """Reconstruct the full sensor→actuation story around ``span``.

        Returns the span's own root-path plus, for every link, the
        root-path of the linked span in its own trace — for a scheduler
        decision this is exactly "reading r on device d → MQTT publish →
        context update → decision → command".
        """
        return {
            "path": [s.name for s in self.path_to_root(span)],
            "linked": [
                [s.name for s in self.path_to_root(linked)]
                for linked in (
                    self._spans.get(ctx.span_id) for ctx in span.links
                )
                if linked is not None
            ],
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "spans": len(self._spans),
            "traces_started": self.traces_started,
            "traces_sampled": self.traces_sampled,
            "spans_dropped": self.spans_dropped,
        }

    # -- export -----------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The span set in Chrome trace-event format (complete events).

        ``pid`` is the trace id (one lane group per causal chain),
        ``tid`` indexes the span kind, timestamps are sim-time
        microseconds.  ``args`` carries the span/parent ids and links so
        the export is self-contained for tree validation.
        """
        kinds: Dict[str, int] = {}
        events = []
        for span in self._spans.values():
            tid = kinds.setdefault(span.kind, len(kinds) + 1)
            end = span.end if span.end is not None else span.start
            args = {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "trace_id": span.trace_id,
            }
            if span.links:
                args["links"] = [
                    {"trace_id": c.trace_id, "span_id": c.span_id} for c in span.links
                ]
            for key, value in span.attrs.items():
                args.setdefault(key, value)
            events.append({
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": span.trace_id,
                "tid": tid,
                "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": self.stats(),
        }


#: Shared disabled tracer (the metrics NULL_REGISTRY pattern): untraced
#: simulators all point here, and every entry point exits on ``enabled``.
NULL_TRACER = Tracer(enabled=False)


# -- validation ---------------------------------------------------------------


def validate_span_trees(spans: List[Span]) -> List[str]:
    """Check the span-tree invariants; returns a list of violations.

    Invariants (the property tests and the CI trace smoke assert this
    list is empty):

    * every trace has exactly one root (``parent_id is None``);
    * every parent reference resolves inside the same trace (acyclic by
      id construction, checked anyway via walk);
    * every span ends at or after it starts;
    * every child's time range nests inside its parent's.
    """
    # Tolerance for float round-trips (the Chrome export stores µs).
    eps = 1e-6
    problems: List[str] = []
    by_id: Dict[int, Span] = {}
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        if span.span_id in by_id:
            problems.append(f"duplicate span id {span.span_id}")
        by_id[span.span_id] = span
        by_trace.setdefault(span.trace_id, []).append(span)

    for trace_id, trace_spans in sorted(by_trace.items()):
        roots = [s for s in trace_spans if s.parent_id is None]
        if len(roots) != 1:
            problems.append(f"trace {trace_id}: {len(roots)} roots (expected 1)")
        for span in trace_spans:
            end = span.end if span.end is not None else span.start
            if end < span.start - eps:
                problems.append(f"span {span.span_id} ({span.name}): end {end} < start {span.start}")
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                problems.append(f"span {span.span_id} ({span.name}): missing parent {span.parent_id}")
                continue
            if parent.trace_id != span.trace_id:
                problems.append(
                    f"span {span.span_id} ({span.name}): parent {parent.span_id} "
                    f"in foreign trace {parent.trace_id}"
                )
            parent_end = parent.end if parent.end is not None else parent.start
            if span.start < parent.start - eps or end > parent_end + eps:
                problems.append(
                    f"span {span.span_id} ({span.name}): range [{span.start},{end}] "
                    f"outside parent [{parent.start},{parent_end}]"
                )
            # Cycle check: walk to the root with a step bound.
            seen = set()
            current = span
            while current is not None and current.parent_id is not None:
                if current.span_id in seen:
                    problems.append(f"span {span.span_id}: cycle through {current.span_id}")
                    break
                seen.add(current.span_id)
                current = by_id.get(current.parent_id)
    return problems


def validate_chrome_trace(data: Dict[str, Any]) -> List[str]:
    """Validate an exported Chrome-trace dict against the tree invariants.

    Reconstructs spans from ``traceEvents[].args`` (the export is
    self-contained) and reuses :func:`validate_span_trees`, plus basic
    format checks — this is what the CI trace-smoke job runs against the
    ``--trace`` output file.
    """
    problems: List[str] = []
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    spans: List[Span] = []
    for i, event in enumerate(events):
        if event.get("ph") != "X":
            problems.append(f"event {i}: ph {event.get('ph')!r} != 'X'")
            continue
        args = event.get("args", {})
        for key in ("span_id", "trace_id"):
            if not isinstance(args.get(key), int):
                problems.append(f"event {i}: missing args.{key}")
        if not isinstance(event.get("ts"), (int, float)) or not isinstance(
            event.get("dur"), (int, float)
        ):
            problems.append(f"event {i}: non-numeric ts/dur")
            continue
        span = Span(
            trace_id=args.get("trace_id", -1),
            span_id=args.get("span_id", -1),
            parent_id=args.get("parent_id"),
            name=event.get("name", "?"),
            kind=event.get("cat", "?"),
            start=event["ts"] / 1e6,
            attrs={},
        )
        span.end = (event["ts"] + event["dur"]) / 1e6
        spans.append(span)
    problems.extend(validate_span_trees(spans))
    return problems
