"""The context broker (Orion-equivalent).

Entity CRUD, filtered queries (type / id-pattern / attribute predicates),
and subscription dispatch.  One instance per deployment tier; the fog
package replicates entities between tiers.

Query filters use the small predicate language of NGSIv2's ``q`` parameter:
``attr==value``, ``attr!=value``, ``attr<value`` (and ``<=``, ``>``, ``>=``)
— enough for every query the SWAMP services issue.
"""

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.context.entities import Attribute, ContextEntity
from repro.context.errors import AlreadyExistsError, ContextError, NotFoundError, QueryError
from repro.context.query import AttrFilter, Query, compile_id_pattern
from repro.context.subscriptions import Notification, Subscription, SubscriptionIndex
from repro.resilience.backpressure import BackpressureError, DropPolicy
from repro.simkernel.simulator import Simulator

__all__ = [
    "AlreadyExistsError",
    "AttrFilter",
    "ContextBroker",
    "ContextError",
    "NotFoundError",
    "Query",
    "QueryError",
]

def _coerce_filters(filters: Optional[List[Union[str, AttrFilter]]]) -> List[AttrFilter]:
    """Validate a filter list: typed :class:`AttrFilter` objects only.

    The string-expression path completed its deprecation cycle and is
    gone; NGSIv2 ``q`` wire strings are parsed at the service boundary
    with :func:`repro.context.query.parse_filter_expression`.
    """
    coerced: List[AttrFilter] = []
    for item in filters or []:
        if isinstance(item, AttrFilter):
            coerced.append(item)
        elif isinstance(item, str):
            raise QueryError(
                f"string filter {item!r} is no longer accepted; use "
                "Query(...).where(attr, op, value), AttrFilter(attr, op, value) "
                "or parse_filter_expression() at the wire boundary"
            )
        else:
            raise QueryError(f"unsupported filter {item!r}; expected AttrFilter")
    return coerced


class BrokerMetrics:
    __slots__ = ("creates", "updates", "queries", "deletes", "notifications",
                 "notifications_throttled", "dispatch_candidates", "backpressure_shed")

    def __init__(self) -> None:
        self.creates = 0
        self.updates = 0
        self.queries = 0
        self.deletes = 0
        self.notifications = 0
        self.notifications_throttled = 0
        # Candidate subscriptions the index yielded per dispatch; a full
        # scan would examine every subscription instead.
        self.dispatch_candidates = 0
        self.backpressure_shed = 0


class ContextBroker:
    def __init__(self, sim: Simulator, name: str = "orion") -> None:
        self.sim = sim
        self.name = name
        self.entities: Dict[str, ContextEntity] = {}
        self.subscriptions: Dict[str, Subscription] = {}
        self._sub_index = SubscriptionIndex()
        # Query narrowing: entity ids by type, and by attribute presence.
        # Maintained through the entity write-through hook so attributes
        # set directly on the entity (the IoT agent provisions that way)
        # still index; an id listed here may therefore be a superset of
        # the ids a predicate accepts, never a subset.
        self._type_index: Dict[str, Dict[str, None]] = {}
        self._attr_index: Dict[str, Dict[str, None]] = {}
        # Batched dispatch: while a ``with broker.batch():`` block is
        # open, per-entity changed-attribute sets coalesce here and fire
        # one notification per subscription per entity at block exit.
        self._batch_depth = 0
        self._pending_dispatch: Dict[str, List[str]] = {}
        self.metrics = BrokerMetrics()
        # Hook called on every applied update: (entity, changed_attrs).
        # The replicator and audit layers attach here.
        self.update_hooks: List[Callable[[ContextEntity, List[str]], None]] = []
        # Optional admission gate on the update hot path (assign a
        # RateLimiter): a closed window sheds the update before any entity
        # work, hooks or dispatch run.
        self.update_limit = None
        labels = {"broker": name}
        registry = sim.metrics
        counts = self.metrics
        registry.register_counter("context.creates", lambda: counts.creates, labels)
        registry.register_counter("context.updates", lambda: counts.updates, labels)
        registry.register_counter("context.deletes", lambda: counts.deletes, labels)
        registry.register_counter("context.queries", lambda: counts.queries, labels)
        registry.register_counter("context.notifications", lambda: counts.notifications, labels)
        registry.register_counter(
            "context.notifications_throttled", lambda: counts.notifications_throttled, labels)
        registry.register_counter(
            "context.dispatch_candidates", lambda: counts.dispatch_candidates, labels)
        registry.register_counter(
            "context.backpressure_shed", lambda: counts.backpressure_shed, labels)
        self._m_query_latency = registry.timer("context.query_latency_s", labels)
        registry.register_callback(
            "context.entities", lambda: float(len(self.entities)), labels
        )
        registry.register_callback(
            "context.subscriptions", lambda: float(len(self.subscriptions)), labels
        )

    # -- entity CRUD -----------------------------------------------------------

    def create_entity(
        self, entity_id: str, entity_type: str, attrs: Optional[Dict[str, Any]] = None
    ) -> ContextEntity:
        if entity_id in self.entities:
            raise AlreadyExistsError(f"entity {entity_id!r} already exists")
        entity = ContextEntity(entity_id, entity_type)
        entity.on_set_attribute = self._note_attribute
        self.entities[entity_id] = entity
        self._type_index.setdefault(entity_type, {})[entity_id] = None
        self.metrics.creates += 1
        if attrs:
            self.update_attributes(entity_id, attrs)
        else:
            # Attribute-less creation still notifies condition-less
            # subscribers (changed = []), so a subscription registered
            # before the entity's first attribute set observes creation.
            self._dispatch_or_defer(entity, [])
        return entity

    def _note_attribute(self, entity_id: str, name: str) -> None:
        self._attr_index.setdefault(name, {})[entity_id] = None

    def ensure_entity(
        self, entity_id: str, entity_type: str, attrs: Optional[Dict[str, Any]] = None
    ) -> ContextEntity:
        """Create-if-absent (the NGSI ``append`` upsert)."""
        entity = self.entities.get(entity_id)
        if entity is None:
            return self.create_entity(entity_id, entity_type, attrs)
        if attrs:
            self.update_attributes(entity_id, attrs)
        return entity

    def get_entity(self, entity_id: str) -> ContextEntity:
        entity = self.entities.get(entity_id)
        if entity is None:
            raise NotFoundError(f"entity {entity_id!r} not found")
        return entity

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self.entities

    def delete_entity(self, entity_id: str) -> None:
        entity = self.entities.pop(entity_id, None)
        if entity is None:
            raise NotFoundError(f"entity {entity_id!r} not found")
        entity.on_set_attribute = None
        bucket = self._type_index.get(entity.entity_type)
        if bucket is not None:
            bucket.pop(entity_id, None)
            if not bucket:
                del self._type_index[entity.entity_type]
        for name in entity.attributes:
            ids = self._attr_index.get(name)
            if ids is not None:
                ids.pop(entity_id, None)
                if not ids:
                    del self._attr_index[name]
        self._pending_dispatch.pop(entity_id, None)
        self.metrics.deletes += 1

    def update_attributes(
        self,
        entity_id: str,
        attrs: Dict[str, Any],
        attr_types: Optional[Dict[str, str]] = None,
        metadata: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> List[str]:
        """Set attribute values; returns the list of changed attribute names.

        ``attrs`` maps name -> value.  Types default to a guess from the
        Python value; metadata is per-attribute.

        When an admission gate is installed (``update_limit``) and its
        window is closed, the update is shed *before* the entity is
        touched: DROP policies return an empty changed list, REJECT
        raises :class:`~repro.resilience.backpressure.BackpressureError`.
        """
        now = self.sim.clock.now
        if self.update_limit is not None and not self.update_limit.admit(now):
            self.metrics.backpressure_shed += 1
            if self.update_limit.policy is DropPolicy.REJECT:
                raise BackpressureError(
                    f"context broker {self.name!r} shedding load"
                )
            return []
        entity = self.get_entity(entity_id)
        tracer = self.sim.tracer
        span = None
        if tracer.enabled:
            span = tracer.start_span(
                "context.update", "context", broker=self.name, entity=entity_id
            )
        changed: List[str] = []
        set_attribute = entity.set_attribute
        for name, value in attrs.items():
            attr_type = (attr_types.get(name) if attr_types else None) or _guess_type(value)
            attribute = set_attribute(
                name,
                value,
                attr_type,
                metadata.get(name) if metadata else None,
                timestamp=now,
            )
            if span is not None:
                # Stamp the written attribute with this update's context so
                # downstream readers (the scheduler) can link decisions back
                # to the sensor reading that produced the value.
                attribute.trace_ctx = span.ctx
            changed.append(name)
        if changed:
            self.metrics.updates += 1
            if span is None:
                # Fast path: activate(None) would still allocate a
                # generator context manager on every update.
                for hook in self.update_hooks:
                    hook(entity, changed)
                self._dispatch_or_defer(entity, changed)
            else:
                with tracer.activate(span):
                    for hook in self.update_hooks:
                        hook(entity, changed)
                    self._dispatch_or_defer(entity, changed)
        if span is not None:
            tracer.end_span(span)
        return changed

    @contextmanager
    def batch(self) -> Iterator["ContextBroker"]:
        """Coalesce subscription notifications across several updates.

        Inside the block, updates apply immediately (entity state, update
        hooks, history) but subscription dispatch is deferred; when the
        outermost block closes, each touched entity fires *one*
        notification per matching subscription, carrying the merged
        changed-attribute list in first-write order — instead of one
        callback per ``update_attributes`` call.  Entities flush in the
        order they were first touched, so batching stays deterministic.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                pending, self._pending_dispatch = self._pending_dispatch, {}
                for entity_id, changed in pending.items():
                    entity = self.entities.get(entity_id)
                    if entity is not None:
                        self._dispatch(entity, changed)

    def _dispatch_or_defer(self, entity: ContextEntity, changed: List[str]) -> None:
        if self._batch_depth == 0:
            self._dispatch(entity, changed)
            return
        merged = self._pending_dispatch.setdefault(entity.entity_id, [])
        for name in changed:
            if name not in merged:
                merged.append(name)

    # -- queries -----------------------------------------------------------

    def query(
        self,
        entity_type: Optional[Union[str, Query]] = None,
        id_pattern: Optional[str] = None,
        filters: Optional[List[Union[str, AttrFilter]]] = None,
        limit: Optional[int] = None,
    ) -> List[ContextEntity]:
        """Filtered entity listing, deterministic order (by id).

        Accepts either a :class:`Query` as the first argument
        (``broker.query(Query(type="SoilProbe").where("soilMoisture", "<", 0.2))``)
        or the individual keyword arguments.  ``filters`` items must be
        :class:`AttrFilter` objects; plain ``q`` strings raise
        :class:`QueryError` (parse them with ``parse_filter_expression``).
        """
        if isinstance(entity_type, Query):
            q = entity_type
            entity_type = q.type
            id_pattern = id_pattern if id_pattern is not None else q.id_pattern
            limit = limit if limit is not None else q.limit
            filters = list(q.filters) + list(filters or [])
        self.metrics.queries += 1
        with self._m_query_latency:
            regex = compile_id_pattern(id_pattern)
            parsed = _coerce_filters(filters)
            # Narrow the scan through the type and attribute-presence
            # indexes: a predicate on an absent attribute never matches
            # (apply_op treats None as no-match), so intersecting presence
            # buckets cannot drop a qualifying entity.
            candidate_ids: Optional[set] = None
            if entity_type is not None:
                candidate_ids = set(self._type_index.get(entity_type, ()))
            for parsed_filter in parsed:
                ids = set(self._attr_index.get(parsed_filter.attr, ()))
                candidate_ids = ids if candidate_ids is None else candidate_ids & ids
            ordered = sorted(self.entities) if candidate_ids is None else sorted(candidate_ids)
            results: List[ContextEntity] = []
            for entity_id in ordered:
                entity = self.entities.get(entity_id)
                if entity is None:
                    continue
                if entity_type is not None and entity.entity_type != entity_type:
                    continue
                if regex is not None and not regex.search(entity_id):
                    continue
                if not all(f.matches(entity) for f in parsed):
                    continue
                results.append(entity)
                if limit is not None and len(results) >= limit:
                    break
        return results

    def entity_count(self) -> int:
        return len(self.entities)

    # -- subscriptions -----------------------------------------------------------

    def subscribe(self, subscription: Subscription) -> str:
        self.subscriptions[subscription.subscription_id] = subscription
        self._sub_index.add(subscription)
        return subscription.subscription_id

    def unsubscribe(self, subscription_id: str) -> None:
        self.subscriptions.pop(subscription_id, None)
        self._sub_index.remove(subscription_id)

    def _dispatch(self, entity: ContextEntity, changed: List[str]) -> None:
        now = self.sim.now
        # The index yields a superset of the matching subscriptions in
        # O(candidates); sorting the small candidate set by subscription
        # id reproduces the old sorted-full-scan delivery order exactly.
        candidates = self._sub_index.candidates(entity)
        self.metrics.dispatch_candidates += len(candidates)
        for subscription in sorted(candidates, key=lambda s: s.subscription_id):
            if not subscription.active:
                continue
            if not subscription.matches_entity(entity):
                continue
            if not subscription.triggered_by(changed):
                continue
            if now - subscription.last_notification_time < subscription.throttling_s:
                subscription.notifications_throttled += 1
                self.metrics.notifications_throttled += 1
                continue
            subscription.last_notification_time = now
            subscription.notifications_sent += 1
            self.metrics.notifications += 1
            subscription.callback(subscription.build_notification(entity, changed, now))


def _guess_type(value: Any) -> str:
    if isinstance(value, bool):
        return "Boolean"
    if isinstance(value, (int, float)):
        return "Number"
    if isinstance(value, str):
        return "Text"
    if isinstance(value, dict):
        return "StructuredValue"
    if isinstance(value, (list, tuple)):
        return "StructuredValue"
    return "None" if value is None else "Text"
