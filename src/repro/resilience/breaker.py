"""Half-open circuit breaker for the fog→cloud uplink (and friends).

The replicator's retry loop is exactly the unbounded-retry amplifier the
fog-security literature warns about: during a WAN outage every sync tick
retransmits into a dead link.  A breaker turns that into mechanical
degradation — after ``failure_threshold`` consecutive failures the circuit
OPENs and transmission stops; after ``open_timeout_s`` of sim time one
HALF_OPEN trial probes the path; a success CLOSEs the circuit, a failure
re-OPENs it.  State transitions are announced through ``on_state_change``
listeners, which is how fog degraded-mode autonomy (see
:mod:`repro.resilience.degraded`) learns the cloud is unreachable without
polling.

Determinism: the breaker keeps no timers and draws no randomness — every
decision happens inside ``allow``/``record_*`` calls made from already
scheduled work, so attaching one never changes the event schedule of a
healthy run.
"""

import enum
from typing import Callable, List, Optional

from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Gauge encoding for ``resilience.breaker_state``: 0 is a healthy closed
#: circuit, 1 a fully open one.
BREAKER_STATE_VALUES = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 0.5,
    BreakerState.OPEN: 1.0,
}

StateListener = Callable[[BreakerState, BreakerState, float], None]


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN state machine over caller-reported outcomes.

    The owner calls :meth:`allow` before attempting the protected
    operation and :meth:`record_success` / :meth:`record_failure` with the
    outcome, always passing the current sim time.  HALF_OPEN admits a
    single outstanding trial: further :meth:`allow` calls return False
    until the trial's outcome is recorded.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        open_timeout_s: float = 300.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError(f"failure_threshold must be positive, got {failure_threshold}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.open_timeout_s = open_timeout_s
        self.opens = 0
        self.transitions = 0
        self.on_state_change: List[StateListener] = []
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._trial_outstanding = False
        registry = metrics if metrics is not None else NULL_REGISTRY
        labels = {"breaker": name}
        registry.register_counter("resilience.breaker_opens", lambda: self.opens, labels)
        registry.register_counter(
            "resilience.breaker_transitions", lambda: self.transitions, labels)
        registry.register_callback(
            "resilience.breaker_state",
            lambda: BREAKER_STATE_VALUES[self._state],
            labels,
        )

    @property
    def state(self) -> BreakerState:
        return self._state

    def allow(self, now: float) -> bool:
        """May the protected operation be attempted right now?"""
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            if now - self._opened_at >= self.open_timeout_s:
                # Claim the trial slot *before* announcing the transition:
                # a listener that reentrantly calls ``allow`` (degraded-mode
                # hooks do) must see the probe already outstanding, or two
                # probes hit the half-open window.
                self._trial_outstanding = True
                self._transition(BreakerState.HALF_OPEN, now)
                return True
            return False
        # HALF_OPEN: one probe in flight at a time.
        if self._trial_outstanding:
            return False
        self._trial_outstanding = True
        return True

    def record_success(self, now: float) -> None:
        self._failures = 0
        self._trial_outstanding = False
        if self._state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        if self._state is BreakerState.OPEN:
            # Failures while OPEN carry no information (nothing was
            # attempted) and must not slide ``opened_at`` forward — the
            # half-open probe would otherwise never come due.
            return
        self._trial_outstanding = False
        if self._state is BreakerState.HALF_OPEN:
            self._open(now)
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._open(now)

    def _open(self, now: float) -> None:
        self._opened_at = now
        self._failures = 0
        self.opens += 1
        self._transition(BreakerState.OPEN, now)

    def _transition(self, new_state: BreakerState, now: float) -> None:
        old_state, self._state = self._state, new_state
        self.transitions += 1
        for listener in self.on_state_change:
            listener(old_state, new_state, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.name!r}, state={self._state.value})"
