"""At-least-once notification fan-out to simulated endpoints.

PR 8 left subscription delivery synchronous: the broker invoked each
subscription callback inline during the update that triggered it, so a
slow or dead receiver would stall telemetry and a failure simply lost
the notification.  This module gives notifications the same treatment
the uplink's telemetry got — a bounded queue, retries, a breaker — with
the delivery semantics NGSI brokers actually promise: **at least once**.

The pipeline, per accepted notification:

* :meth:`DeliveryManager.accept` assigns a global sequence number and
  enqueues onto the owning tenant's :class:`BoundedQueue` (``REJECT``
  policy: a full queue refuses *admission*, loudly — only accepted
  notifications participate in the delivery guarantee).
* A sim-time pump drains due items oldest-first.  Each attempt consults
  the endpoint's :class:`CircuitBreaker`; an open circuit defers the
  item without burning an attempt.
* An attempt ends ``ok``, ``error`` or ``timeout``.  Timeouts are
  *ambiguous* — the endpoint may have processed the notification before
  the deadline (``timeout_delivers``), so the retry that follows can
  land a second copy.  Endpoints deduplicate by sequence number and the
  second copy is **tagged** (``duplicate``), never silently dropped:
  that is the honest at-least-once contract.
* Retries back off exponentially with seeded jitter
  (``sim.rng.stream("delivery:<endpoint>")``) up to ``max_attempts``,
  after which the item moves to the tenant's dead-letter queue.
  :meth:`DeliveryManager.replay` re-admits dead items for redelivery.

Every terminal state is accounted: the chaos audit asserts
``accepted == delivered + dead + pending + replayed-in-flight`` — an
accepted notification may wait or die loudly, but it cannot vanish.

Nothing here is constructed unless a caller builds a manager (the
service layer's ``enable_delivery`` / ``--store``-style opt-in), so
default runs schedule no pump, draw from no new streams, and remain
bit-identical.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.context.errors import ContextError
from repro.context.subscriptions import Notification, Subscription
from repro.resilience.backpressure import BoundedQueue, DropPolicy
from repro.resilience.breaker import CircuitBreaker

__all__ = [
    "DeliveryConfig",
    "DeliveryError",
    "DeliveryItem",
    "DeliveryManager",
    "SimulatedEndpoint",
]


class DeliveryError(ContextError):
    """Raised on delivery-layer misuse (unknown endpoint, full queue...)."""


@dataclass
class DeliveryConfig:
    """Tuning knobs for the fan-out pipeline (defaults suit sim scale)."""

    queue_capacity: int = 512
    dlq_capacity: int = 256
    pump_interval_s: float = 1.0
    timeout_s: float = 5.0
    max_attempts: int = 5
    backoff_base_s: float = 2.0
    backoff_cap_s: float = 120.0
    breaker_failure_threshold: int = 3
    breaker_open_timeout_s: float = 30.0

    def validate(self) -> None:
        for field in (
            "queue_capacity", "dlq_capacity", "pump_interval_s", "timeout_s",
            "max_attempts", "backoff_base_s", "backoff_cap_s",
            "breaker_failure_threshold", "breaker_open_timeout_s",
        ):
            if getattr(self, field) <= 0:
                raise DeliveryError(
                    f"{field} must be positive, got {getattr(self, field)!r}"
                )


class SimulatedEndpoint:
    """A notification receiver with controllable failure behavior.

    ``fail_rate`` / ``timeout_rate`` are per-attempt probabilities drawn
    from the manager's per-endpoint seeded stream; ``down`` (toggled by
    the ``endpoint_outage`` fault) makes every attempt time out without
    anything landing.  ``timeout_delivers`` models the ambiguous
    timeout: the request *was* processed but the ack missed the
    deadline, so the inevitable retry produces a duplicate.

    Received notifications are deduplicated by delivery sequence number;
    both copies are counted (``received`` vs unique ``delivered_seqs``)
    so tests can assert exact at-least-once arithmetic.
    """

    def __init__(
        self,
        name: str,
        fail_rate: float = 0.0,
        timeout_rate: float = 0.0,
        timeout_delivers: bool = True,
    ) -> None:
        self.name = name
        self.fail_rate = fail_rate
        self.timeout_rate = timeout_rate
        self.timeout_delivers = timeout_delivers
        self.down = False
        self.received = 0
        self.duplicates = 0
        self.delivered_seqs: Set[int] = set()
        self.log: List[Tuple[float, int, str]] = []

    def _land(self, seq: int, now: float) -> bool:
        """Record arrival of ``seq``; True when it is a duplicate."""
        duplicate = seq in self.delivered_seqs
        self.delivered_seqs.add(seq)
        self.received += 1
        if duplicate:
            self.duplicates += 1
        self.log.append((now, seq, "duplicate" if duplicate else "delivered"))
        return duplicate

    def attempt(self, item: "DeliveryItem", rng, now: float) -> str:
        """One delivery attempt; returns ``ok`` / ``error`` / ``timeout``."""
        if self.down:
            return "timeout"
        draw = rng.random()
        if draw < self.fail_rate:
            return "error"
        if draw < self.fail_rate + self.timeout_rate:
            if self.timeout_delivers:
                # The notification landed; only the ack was lost.
                self._land(item.seq, now)
            return "timeout"
        item.duplicate = self._land(item.seq, now)
        return "ok"


class DeliveryItem:
    """One accepted notification moving through the pipeline."""

    __slots__ = (
        "seq", "tenant", "subscription_id", "endpoint", "notification",
        "accepted_at", "attempts", "next_attempt_at", "status",
        "duplicate", "replays", "last_outcome",
    )

    def __init__(
        self,
        seq: int,
        tenant: str,
        subscription_id: str,
        endpoint: str,
        notification: Notification,
        accepted_at: float,
    ) -> None:
        self.seq = seq
        self.tenant = tenant
        self.subscription_id = subscription_id
        self.endpoint = endpoint
        self.notification = notification
        self.accepted_at = accepted_at
        self.attempts = 0
        self.next_attempt_at = accepted_at
        self.status = "pending"
        self.duplicate = False
        self.replays = 0
        self.last_outcome = ""

    def describe(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "subscription_id": self.subscription_id,
            "endpoint": self.endpoint,
            "status": self.status,
            "attempts": self.attempts,
            "duplicate": self.duplicate,
            "replays": self.replays,
            "last_outcome": self.last_outcome,
            "accepted_at": self.accepted_at,
        }


class DeliveryManager:
    """Per-tenant bounded queues draining to breaker-guarded endpoints."""

    def __init__(self, sim, config: Optional[DeliveryConfig] = None) -> None:
        self.sim = sim
        self.config = config if config is not None else DeliveryConfig()
        self.config.validate()
        self._endpoints: Dict[str, SimulatedEndpoint] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._queues: Dict[str, BoundedQueue] = {}
        self._dlqs: Dict[str, BoundedQueue] = {}
        self._items: List[DeliveryItem] = []
        # subscription_id -> (tenant, endpoint) for status surfacing.
        self._subs: Dict[str, Tuple[str, str]] = {}
        self._seq = 0
        self._pump = None
        self.accepted = 0
        self.delivered = 0
        self.duplicates = 0
        self.dead_lettered = 0
        self.rejected = 0
        self.retries = 0
        self.breaker_deferrals = 0
        self.replayed = 0
        metrics = sim.metrics
        metrics.register_counter("delivery.accepted", lambda: self.accepted)
        metrics.register_counter("delivery.delivered", lambda: self.delivered)
        metrics.register_counter("delivery.duplicates", lambda: self.duplicates)
        metrics.register_counter("delivery.dead_lettered", lambda: self.dead_lettered)
        metrics.register_counter("delivery.rejected", lambda: self.rejected)
        metrics.register_counter("delivery.retries", lambda: self.retries)

    # -- registration ------------------------------------------------------

    def register_endpoint(self, endpoint: SimulatedEndpoint) -> SimulatedEndpoint:
        if endpoint.name in self._endpoints:
            raise DeliveryError(f"endpoint {endpoint.name!r} already registered")
        self._endpoints[endpoint.name] = endpoint
        self._breakers[endpoint.name] = CircuitBreaker(
            f"delivery:{endpoint.name}",
            failure_threshold=self.config.breaker_failure_threshold,
            open_timeout_s=self.config.breaker_open_timeout_s,
            metrics=self.sim.metrics,
        )
        return endpoint

    def endpoint(self, name: str) -> SimulatedEndpoint:
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise DeliveryError(
                f"unknown endpoint {name!r}; registered: {sorted(self._endpoints)}"
            )
        return endpoint

    def breaker(self, name: str) -> CircuitBreaker:
        self.endpoint(name)
        return self._breakers[name]

    def _tenant_queues(self, tenant: str) -> Tuple[BoundedQueue, BoundedQueue]:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = BoundedQueue(
                self.config.queue_capacity, DropPolicy.REJECT
            )
            self._dlqs[tenant] = BoundedQueue(
                self.config.dlq_capacity, DropPolicy.REJECT
            )
            metrics = self.sim.metrics
            metrics.register_callback(
                "delivery.queue_depth",
                lambda q=queue: float(len(q)),
                {"tenant": tenant},
            )
            metrics.register_callback(
                "delivery.dlq_depth",
                lambda q=self._dlqs[tenant]: float(len(q)),
                {"tenant": tenant},
            )
        return queue, self._dlqs[tenant]

    def bind_subscription(
        self, subscription: Subscription, tenant: str, endpoint_name: str
    ) -> Callable[[Notification], None]:
        """Route ``subscription``'s notifications through the pipeline.

        Returns the callback to install on the subscription (the caller
        builds the subscription; this keeps the broker layer unaware of
        delivery).  Also pre-creates the tenant's queues so depth gauges
        exist before the first notification.
        """
        self.endpoint(endpoint_name)
        self._subs[subscription.subscription_id] = (tenant, endpoint_name)
        self._tenant_queues(tenant)

        def _enqueue(notification: Notification) -> None:
            self.accept(tenant, notification.subscription_id, endpoint_name, notification)

        subscription.callback = _enqueue
        return _enqueue

    # -- admission ---------------------------------------------------------

    def accept(
        self,
        tenant: str,
        subscription_id: str,
        endpoint_name: str,
        notification: Notification,
    ) -> Optional[DeliveryItem]:
        """Admit one notification; None when the tenant queue refused it."""
        self.endpoint(endpoint_name)
        queue, _dlq = self._tenant_queues(tenant)
        now = self.sim.clock.now
        item = DeliveryItem(
            self._seq, tenant, subscription_id, endpoint_name, notification, now
        )
        if not queue.push(item):
            self.rejected += 1
            return None
        self._seq += 1
        self._items.append(item)
        self.accepted += 1
        return item

    # -- the pump ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the drain pump (idempotent)."""
        if self._pump is None:
            self._pump = self.sim.spawn(self._pump_loop(), name="delivery-pump")

    def _pump_loop(self):
        while True:
            yield self.config.pump_interval_s
            self.pump_now()

    def pump_now(self) -> int:
        """Attempt every due item once; returns deliveries made."""
        now = self.sim.clock.now
        made = 0
        for tenant in sorted(self._queues):
            queue, dlq = self._queues[tenant], self._dlqs[tenant]
            for item in queue.drain():
                if item.next_attempt_at > now:
                    queue.push(item)
                    continue
                outcome = self._attempt(item, now)
                if outcome == "delivered":
                    made += 1
                elif outcome == "dead":
                    if not dlq.push(item):
                        # A full DLQ still cannot lose the item silently:
                        # it stays pending and retries after a full
                        # backoff window.
                        item.status = "pending"
                        item.next_attempt_at = now + self.config.backoff_cap_s
                        queue.push(item)
                else:
                    queue.push(item)
        return made

    def _attempt(self, item: DeliveryItem, now: float) -> str:
        breaker = self._breakers[item.endpoint]
        if not breaker.allow(now):
            self.breaker_deferrals += 1
            item.next_attempt_at = now + self._backoff(item)
            item.last_outcome = "deferred"
            return "deferred"
        endpoint = self._endpoints[item.endpoint]
        rng = self.sim.rng.stream(f"delivery:{item.endpoint}")
        item.attempts += 1
        outcome = endpoint.attempt(item, rng, now)
        item.last_outcome = outcome
        if outcome == "ok":
            breaker.record_success(now)
            item.status = "delivered"
            self.delivered += 1
            if item.duplicate:
                self.duplicates += 1
            return "delivered"
        breaker.record_failure(now)
        if item.attempts >= self.config.max_attempts:
            item.status = "dead"
            self.dead_lettered += 1
            return "dead"
        self.retries += 1
        item.next_attempt_at = now + self._backoff(item)
        return "retry"

    def _backoff(self, item: DeliveryItem) -> float:
        rng = self.sim.rng.stream(f"delivery:{item.endpoint}")
        base = self.config.backoff_base_s * (2.0 ** max(0, item.attempts - 1))
        return min(base, self.config.backoff_cap_s) * rng.uniform(0.5, 1.5)

    # -- dead letters ------------------------------------------------------

    def replay(self, tenant: str, subscription_id: Optional[str] = None) -> int:
        """Re-admit dead-lettered items for delivery; returns the count."""
        dlq = self._dlqs.get(tenant)
        if dlq is None:
            return 0
        queue = self._queues[tenant]
        kept: List[DeliveryItem] = []
        moved = 0
        now = self.sim.clock.now
        for item in dlq.drain():
            if subscription_id is not None and item.subscription_id != subscription_id:
                kept.append(item)
                continue
            item.status = "pending"
            item.attempts = 0
            item.replays += 1
            item.next_attempt_at = now
            queue.push(item)
            moved += 1
        for item in kept:
            dlq.push(item)
        self.replayed += moved
        return moved

    # -- status / audit ----------------------------------------------------

    def subscription_status(self, subscription_id: str) -> Dict[str, object]:
        """Tenant-visible delivery status for one subscription."""
        bound = self._subs.get(subscription_id)
        items = [i for i in self._items if i.subscription_id == subscription_id]
        return {
            "subscription_id": subscription_id,
            "endpoint": bound[1] if bound else None,
            "accepted": len(items),
            "delivered": sum(1 for i in items if i.status == "delivered"),
            "duplicates": sum(1 for i in items if i.duplicate),
            "dead": sum(1 for i in items if i.status == "dead"),
            "pending": sum(1 for i in items if i.status == "pending"),
            "items": [i.describe() for i in items[-20:]],
        }

    def audit(self) -> Dict[str, object]:
        """Conservation check: accepted items are delivered, dead or pending.

        ``conserved`` is the invariant the chaos harness asserts — an
        accepted notification never disappears from the accounting, under
        any combination of endpoint outage, breaker state and replay.
        """
        delivered = sum(1 for i in self._items if i.status == "delivered")
        dead = sum(1 for i in self._items if i.status == "dead")
        pending = sum(1 for i in self._items if i.status == "pending")
        return {
            "accepted": self.accepted,
            "delivered": delivered,
            "dead": dead,
            "pending": pending,
            "duplicates": self.duplicates,
            "rejected": self.rejected,
            "retries": self.retries,
            "breaker_deferrals": self.breaker_deferrals,
            "replayed": self.replayed,
            "conserved": delivered + dead + pending == self.accepted,
        }

    def report(self) -> Dict[str, object]:
        data = self.audit()
        data["endpoints"] = {
            name: {
                "received": ep.received,
                "unique": len(ep.delivered_seqs),
                "duplicates": ep.duplicates,
                "down": ep.down,
                "breaker": self._breakers[name].state.value,
            }
            for name, ep in sorted(self._endpoints.items())
        }
        return data
