"""Resilience layer: supervision, load shedding and degraded-mode autonomy.

``supervisor`` watches services and restarts them with seeded backoff;
``breaker`` protects the cloud uplink with a half-open circuit breaker;
``backpressure`` provides bounded queues and admission windows for both
broker hot paths; ``degraded`` turns the paper's "irrigation keeps running
while disconnected" claim into an enforced state machine.  The layer is
wired into a pilot by ``repro.core.stages.build_resilience`` only when
``PilotConfig.resilience`` is set.
"""

from repro.resilience.backpressure import (
    BackpressureError,
    BoundedQueue,
    DropPolicy,
    RateLimiter,
)
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.config import ResilienceConfig
from repro.resilience.degraded import DegradedModePolicy
from repro.resilience.supervisor import HEALTH_VALUES, ServiceHealth, Supervisor, Watch

__all__ = [
    "BackpressureError",
    "BoundedQueue",
    "BreakerState",
    "CircuitBreaker",
    "DegradedModePolicy",
    "DropPolicy",
    "HEALTH_VALUES",
    "RateLimiter",
    "ResilienceConfig",
    "ServiceHealth",
    "Supervisor",
    "Watch",
]
