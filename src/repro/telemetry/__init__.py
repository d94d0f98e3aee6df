"""Unified telemetry core: metrics, causal tracing and kernel profiling."""

from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Timer,
)
from repro.telemetry.profile import KernelProfiler, ProfileEntry
from repro.telemetry.tracing import (
    DeterministicSampler,
    NULL_TRACER,
    Span,
    TraceConfig,
    TraceContext,
    Tracer,
    validate_chrome_trace,
    validate_span_trees,
)

__all__ = [
    "Counter",
    "DeterministicSampler",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "ProfileEntry",
    "Span",
    "TraceConfig",
    "TraceContext",
    "Tracer",
    "Timer",
    "validate_chrome_trace",
    "validate_span_trees",
]
