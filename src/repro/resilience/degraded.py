"""Fog degraded-mode autonomy: the disconnection-availability state machine.

SWAMP's fog pilots exist because the irrigation loop must keep running
when the Internet link to the cloud is down.  Before this module that
property was *emergent* — the scheduler happened to read the local fog
context, which happened to stay fresh.  This policy makes it an enforced
state machine driven by the union of two isolation signals:

* the cloud-uplink circuit breaker opening (the replicator's sync
  batches are failing — the Internet link is down), and
* the supervisor marking a watched connectivity service unhealthy (the
  fog node's own links are dead; there may be *no* uplink traffic for
  the breaker to fail on, so the breaker alone cannot see this).

While any reason is active the policy is ``enter()``-ed: the scheduler's
staleness bound is widened to ``degraded_max_data_age_s`` so decisions
continue on last-known-good context (still *bounded*: data older than
the widened limit is refused, never silently trusted), and every
decision taken while degraded is journaled locally (bounded,
oldest-first eviction).  When the *last* reason clears → ``exit()``: the
original staleness bound is restored and the journal is *reconciled* —
written into the fog context as an ``IrrigationJournal`` entity, which
the replicator ships cloudward like any other update, so the cloud
learns what the farm decided while it was unreachable.

Telemetry: ``resilience.degraded_mode`` gauge (1 while degraded),
``resilience.degraded_episodes`` / ``resilience.degraded_decisions`` /
``resilience.reconciled_decisions`` counters.
"""

from typing import List, Optional, Set

from repro.resilience.backpressure import BoundedQueue, DropPolicy
from repro.resilience.breaker import BreakerState
from repro.resilience.supervisor import ServiceHealth
from repro.simkernel.simulator import Simulator


class DegradedModePolicy:
    """Switches the irrigation scheduler between normal and degraded mode.

    ``scheduler`` needs ``max_data_age_s`` (mutable) and an
    ``on_decision`` hook list; ``context`` needs ``ensure_entity`` /
    ``update_attributes`` — i.e. a :class:`PlatformScheduler` and a
    :class:`ContextBroker`, duck-typed so tests can substitute stubs.
    """

    NORMAL = "normal"
    DEGRADED = "degraded"

    def __init__(
        self,
        sim: Simulator,
        scheduler,
        context,
        farm: str,
        degraded_max_data_age_s: float = 72 * 3600.0,
        journal_limit: int = 512,
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.context = context
        self.entity_id = f"urn:IrrigationJournal:{farm}"
        self.degraded_max_data_age_s = degraded_max_data_age_s
        self.mode = self.NORMAL
        # Watched connectivity services: an unhealthy verdict from the
        # supervisor on any of these is an isolation signal of its own.
        self.isolation_services: Set[str] = set()
        self._reasons: Set[str] = set()
        self.episodes = 0
        self.journaled = 0
        self.reconciled = 0
        self.entered_at: Optional[float] = None
        self._saved_max_age: Optional[float] = None
        self.journal = BoundedQueue(journal_limit, DropPolicy.DROP_OLDEST)
        registry = sim.metrics
        registry.register_counter("resilience.degraded_episodes", lambda: self.episodes)
        registry.register_counter("resilience.degraded_decisions", lambda: self.journaled)
        registry.register_counter("resilience.reconciled_decisions", lambda: self.reconciled)
        registry.register_callback(
            "resilience.degraded_mode",
            lambda: 1.0 if self.mode == self.DEGRADED else 0.0,
        )

    # -- isolation signals -------------------------------------------------

    def add_reason(self, reason: str, now: float) -> None:
        """Raise an isolation signal; the first one enters degraded mode."""
        was_clear = not self._reasons
        self._reasons.add(reason)
        if was_clear and self.mode == self.NORMAL:
            self.enter(now)

    def clear_reason(self, reason: str, now: float) -> None:
        """Drop an isolation signal; clearing the last one exits."""
        self._reasons.discard(reason)
        if not self._reasons and self.mode == self.DEGRADED:
            self.exit(now)

    def on_breaker_state(self, old: BreakerState, new: BreakerState, now: float) -> None:
        """Listener for ``CircuitBreaker.on_state_change``."""
        if new is BreakerState.OPEN:
            self.add_reason("uplink:open", now)
        elif new is BreakerState.CLOSED:
            self.clear_reason("uplink:open", now)
        # HALF_OPEN is a probe, not a verdict: stay in the current mode.

    def on_service_state(
        self, name: str, old: ServiceHealth, new: ServiceHealth, now: float
    ) -> None:
        """Listener for ``Supervisor.on_state_change``.

        Only services in :attr:`isolation_services` count, and only their
        hard verdicts — SUSPECT is a single missed check, not isolation.
        """
        if name not in self.isolation_services:
            return
        if new in (ServiceHealth.DEGRADED, ServiceHealth.FAILED):
            self.add_reason(f"service:{name}", now)
        elif new is ServiceHealth.HEALTHY:
            self.clear_reason(f"service:{name}", now)

    # -- mode transitions --------------------------------------------------

    def enter(self, now: float) -> None:
        self.mode = self.DEGRADED
        self.entered_at = now
        self.episodes += 1
        self._saved_max_age = self.scheduler.max_data_age_s
        self.scheduler.max_data_age_s = max(
            self.degraded_max_data_age_s, self._saved_max_age
        )
        self.sim.trace.emit(
            now, "resilience", "degraded mode entered",
            farm_entity=self.entity_id, max_data_age_s=self.scheduler.max_data_age_s,
        )

    def exit(self, now: float) -> None:
        self.mode = self.NORMAL
        if self._saved_max_age is not None:
            self.scheduler.max_data_age_s = self._saved_max_age
            self._saved_max_age = None
        duration = now - self.entered_at if self.entered_at is not None else 0.0
        self.entered_at = None
        self.sim.trace.emit(
            now, "resilience", "degraded mode exited",
            duration_s=round(duration, 3),
        )
        self.reconcile(now)

    # -- journal -----------------------------------------------------------

    def record_decision(self, entry: dict) -> None:
        """Scheduler ``on_decision`` hook: journal while degraded."""
        if self.mode != self.DEGRADED:
            return
        self.journal.push(dict(entry))
        self.journaled += 1

    def reconcile(self, now: float) -> None:
        """Ship the journal cloudward through the normal replication path."""
        entries: List[dict] = [dict(e) for e in self.journal.drain()]
        if not entries:
            return
        self.context.ensure_entity(self.entity_id, "IrrigationJournal")
        self.context.update_attributes(
            self.entity_id,
            {
                "reconciledAt": now,
                "entryCount": len(entries),
                "droppedEntries": self.journal.dropped,
                "decisions": entries,
            },
        )
        self.reconciled += len(entries)
        self.sim.trace.emit(
            now, "resilience", "journal reconciled", entries=len(entries),
        )
