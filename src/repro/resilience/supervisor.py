"""The Supervisor: sim-clock watchdogs over platform services.

PR 2 gave the platform ways to *break* (fault plans kill the replicator,
restart brokers, wedge devices); this service is the counterpart that
*notices* and *heals*.  Each watched service contributes either a health
probe (a pull-style ``probe(now) -> bool``) or a heartbeat (the service
calls ``watch.beat()`` from its hot path and the supervisor checks the
last beat against a staleness bound).  An unhealthy service with a
registered restart action is restarted under seeded exponential backoff;
repeated failures escalate ``restarting → degraded → failed`` so an
operator-facing dashboard (here: telemetry gauges) distinguishes a blip
from a lost service.

Determinism: the watchdog loop is ordinary scheduled sim work; probes are
read-only; the jitter stream (``resilience:supervisor``) is drawn *only*
when a restart is actually scheduled.  Supervising an entirely healthy
run therefore adds watchdog events to the queue but never reorders or
perturbs the platform's own events — and because the assembly step
behind this module runs only when ``PilotConfig.resilience`` is set,
fault-free pinned fixtures never see those events at all.

Telemetry: ``resilience.health{service}`` gauges (1.0 healthy … 0.0
failed, see :data:`HEALTH_VALUES`), ``resilience.restarts{service}``
counters, plus the breaker instruments re-exposed via
:meth:`Supervisor.attach_breaker`.
"""

import enum
from typing import Callable, Dict, List, Optional

from repro.resilience.breaker import BREAKER_STATE_VALUES, BreakerState, CircuitBreaker
from repro.simkernel.simulator import Simulator


class ServiceHealth(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    RESTARTING = "restarting"
    DEGRADED = "degraded"
    FAILED = "failed"


#: Gauge encoding for ``resilience.health{service}``.
HEALTH_VALUES = {
    ServiceHealth.HEALTHY: 1.0,
    ServiceHealth.SUSPECT: 0.75,
    ServiceHealth.RESTARTING: 0.5,
    ServiceHealth.DEGRADED: 0.25,
    ServiceHealth.FAILED: 0.0,
}


class Watch:
    """One supervised service: its health source and restart policy."""

    __slots__ = (
        "name", "probe", "restart", "heartbeat_timeout_s",
        "state", "last_beat", "attempts", "restarts", "next_restart_at",
        "_sim",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        probe: Optional[Callable[[float], bool]] = None,
        restart: Optional[Callable[[], None]] = None,
        heartbeat_timeout_s: Optional[float] = None,
    ) -> None:
        if probe is None and heartbeat_timeout_s is None:
            raise ValueError(f"watch {name!r} needs a probe or a heartbeat timeout")
        self._sim = sim
        self.name = name
        self.probe = probe
        self.restart = restart
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.state = ServiceHealth.HEALTHY
        self.last_beat = sim.now
        self.attempts = 0       # consecutive restarts in the current episode
        self.restarts = 0       # lifetime restarts
        self.next_restart_at = 0.0
        sim.metrics.register_counter(
            "resilience.restarts", lambda: self.restarts, {"service": name})

    def beat(self) -> None:
        """Heartbeat: called by the service itself from its hot path."""
        self.last_beat = self._sim.now

    def is_healthy(self, now: float) -> bool:
        if self.probe is not None and not self.probe(now):
            return False
        if (
            self.heartbeat_timeout_s is not None
            and now - self.last_beat > self.heartbeat_timeout_s
        ):
            return False
        return True


class Supervisor:
    """Watchdog loop restarting unhealthy services with seeded backoff."""

    def __init__(
        self,
        sim: Simulator,
        check_interval_s: float = 30.0,
        restart_backoff_initial_s: float = 5.0,
        restart_backoff_max_s: float = 600.0,
        degraded_after_restarts: int = 3,
        failed_after_restarts: int = 8,
    ) -> None:
        self.sim = sim
        self.check_interval_s = check_interval_s
        self.restart_backoff_initial_s = restart_backoff_initial_s
        self.restart_backoff_max_s = restart_backoff_max_s
        self.degraded_after_restarts = degraded_after_restarts
        self.failed_after_restarts = failed_after_restarts
        self.total_restarts = 0
        self._watches: List[Watch] = []
        self._by_name: Dict[str, Watch] = {}
        # Fired as (service, old, new, now) on every watch state change.
        # The degraded-mode policy listens here: a fog node that the
        # supervisor sees isolated must enter autonomy even when the
        # uplink breaker has no traffic to fail on.
        self.on_state_change: List[
            Callable[[str, ServiceHealth, ServiceHealth, float], None]
        ] = []
        self._process = None
        # Restart jitter gets its own stream so supervision never perturbs
        # any other subsystem's RNG sequence — and draws nothing at all
        # while every service stays healthy.
        self._rng = sim.rng.stream("resilience:supervisor")

    # -- registration ------------------------------------------------------

    def watch(
        self,
        name: str,
        probe: Optional[Callable[[float], bool]] = None,
        restart: Optional[Callable[[], None]] = None,
        heartbeat_timeout_s: Optional[float] = None,
    ) -> Watch:
        """Supervise ``name``; returns the :class:`Watch` (for ``beat()``)."""
        if name in self._by_name:
            raise ValueError(f"service {name!r} already watched")
        watch = Watch(self.sim, name, probe=probe, restart=restart,
                      heartbeat_timeout_s=heartbeat_timeout_s)
        self._watches.append(watch)
        self._by_name[name] = watch
        self.sim.metrics.register_callback(
            "resilience.health",
            lambda w=watch: HEALTH_VALUES[w.state],
            {"service": name},
        )
        return watch

    def attach_breaker(self, name: str, breaker: CircuitBreaker) -> None:
        """Expose a circuit breaker's state as a supervised health gauge.

        The breaker stays in charge of its own transitions (it sees every
        outcome; the supervisor only samples) — this merely folds it into
        the ``resilience.health`` family and the trace stream.
        """
        self.sim.metrics.register_callback(
            "resilience.health",
            lambda b=breaker: 1.0 - BREAKER_STATE_VALUES[b.state],
            {"service": name},
        )
        breaker.on_state_change.append(
            lambda old, new, now, n=name: self.sim.trace.emit(
                now, "resilience", "breaker state change",
                breaker=n, old=old.value, new=new.value,
            )
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._process is not None and self._process.alive:
            return
        now = self.sim.now
        for watch in self._watches:
            watch.last_beat = now
        self._process = self.sim.spawn(self._loop(), "resilience:supervisor")

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.alive

    def _loop(self):
        while True:
            yield self.check_interval_s
            self.check_now()

    # -- the watchdog ------------------------------------------------------

    def check_now(self) -> None:
        """One watchdog pass (also callable directly from tests)."""
        now = self.sim.now
        for watch in self._watches:
            self._check(watch, now)

    def _set_state(self, watch: Watch, new: ServiceHealth, now: float) -> None:
        if watch.state is new:
            return
        old = watch.state
        watch.state = new
        for hook in self.on_state_change:
            hook(watch.name, old, new, now)

    def _check(self, watch: Watch, now: float) -> None:
        if watch.state is ServiceHealth.FAILED:
            return
        if watch.is_healthy(now):
            if watch.state is not ServiceHealth.HEALTHY:
                self.sim.trace.emit(
                    now, "resilience", "service recovered",
                    service=watch.name, after_restarts=watch.attempts,
                )
                self._set_state(watch, ServiceHealth.HEALTHY, now)
                watch.attempts = 0
            return
        if watch.state is ServiceHealth.HEALTHY:
            self._set_state(watch, ServiceHealth.SUSPECT, now)
            watch.next_restart_at = now
            self.sim.trace.emit(
                now, "resilience", "service unhealthy", service=watch.name
            )
        if watch.restart is None:
            # Nothing to do but surface it.
            self._set_state(watch, ServiceHealth.DEGRADED, now)
            return
        if now < watch.next_restart_at:
            return
        watch.attempts += 1
        if watch.attempts > self.failed_after_restarts:
            self._set_state(watch, ServiceHealth.FAILED, now)
            self.sim.trace.emit(
                now, "resilience", "service failed",
                service=watch.name, restarts=watch.restarts,
            )
            return
        self._set_state(
            watch,
            ServiceHealth.DEGRADED
            if watch.attempts > self.degraded_after_restarts
            else ServiceHealth.RESTARTING,
            now,
        )
        watch.restarts += 1
        self.total_restarts += 1
        self.sim.trace.emit(
            now, "resilience", "restarting service",
            service=watch.name, attempt=watch.attempts,
        )
        try:
            watch.restart()
        except Exception as exc:  # a failing restart is an unhealthy outcome, not a crash
            self.sim.trace.emit(
                now, "resilience", "restart raised",
                service=watch.name, error=type(exc).__name__,
            )
        # Grace for heartbeat-style watches: a restarted service starts
        # from a fresh beat instead of its pre-crash staleness.
        watch.last_beat = now
        delay = min(
            self.restart_backoff_initial_s * (2.0 ** (watch.attempts - 1)),
            self.restart_backoff_max_s,
        )
        delay *= 1.0 + self._rng.uniform(0.0, 0.25)
        watch.next_restart_at = now + delay

    # -- inspection --------------------------------------------------------

    def health(self, name: str) -> ServiceHealth:
        return self._by_name[name].state

    def states(self) -> Dict[str, str]:
        """Service name → health state (diagnostics, chaos invariants)."""
        return {watch.name: watch.state.value for watch in self._watches}

