"""Subscriptions and notifications (NGSIv2 semantics).

A subscription selects entities (exact id, id regex, and/or type), watches
a set of *condition attributes* (any update to one fires the subscription;
empty = any attribute) and delivers a :class:`Notification` carrying copies
of the requested attributes.  Throttling suppresses notifications closer
together than ``throttling_s``, exactly like Orion's ``throttling`` field.
"""

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.context.entities import ContextEntity
from repro.context.query import compile_id_pattern

_sub_ids = itertools.count(1)


class Notification:
    """What a subscriber receives."""

    __slots__ = ("subscription_id", "entity", "changed_attrs", "time")

    def __init__(
        self, subscription_id: str, entity: ContextEntity, changed_attrs: List[str], time: float
    ) -> None:
        self.subscription_id = subscription_id
        self.entity = entity
        self.changed_attrs = changed_attrs
        self.time = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Notification({self.subscription_id}, {self.entity.entity_id}, "
            f"changed={self.changed_attrs})"
        )


class Subscription:
    def __init__(
        self,
        callback: Callable[[Notification], None],
        entity_id: Optional[str] = None,
        id_pattern: Optional[str] = None,
        entity_type: Optional[str] = None,
        condition_attrs: Optional[List[str]] = None,
        notify_attrs: Optional[List[str]] = None,
        throttling_s: float = 0.0,
        description: str = "",
        owner: Optional[str] = None,
        owner_prefixes: Tuple[str, ...] = (),
    ) -> None:
        if entity_id is None and id_pattern is None and entity_type is None:
            raise ValueError("subscription must constrain id, idPattern or type")
        self.subscription_id = f"sub-{next(_sub_ids)}"
        self.callback = callback
        #: Owning tenant for service-created subscriptions (None for
        #: library use); the service layer filters listings by it.
        self.owner = owner
        #: The owner's readable entity-id prefixes: when set, entities
        #: outside them never match, whatever the selector says.
        self.owner_prefixes = tuple(owner_prefixes)
        self.entity_id = entity_id
        self.id_regex = compile_id_pattern(id_pattern)
        self.entity_type = entity_type
        self.condition_attrs = set(condition_attrs or [])
        self.notify_attrs = list(notify_attrs) if notify_attrs else None
        self.throttling_s = throttling_s
        self.description = description
        self.active = True
        self.last_notification_time = float("-inf")
        self.notifications_sent = 0
        self.notifications_throttled = 0

    def matches_entity(self, entity: ContextEntity) -> bool:
        if self.entity_id is not None and entity.entity_id != self.entity_id:
            return False
        if self.id_regex is not None and not self.id_regex.search(entity.entity_id):
            return False
        if self.entity_type is not None and entity.entity_type != self.entity_type:
            return False
        return not self.owner_prefixes or entity.entity_id.startswith(self.owner_prefixes)

    def triggered_by(self, changed_attrs: List[str]) -> bool:
        # Condition-less subscriptions fire on *any* entity event,
        # including attribute-less creation (empty ``changed_attrs``) —
        # a subscriber registered before the entity's first attribute set
        # must still learn the entity exists.
        if not self.condition_attrs:
            return True
        return any(attr in self.condition_attrs for attr in changed_attrs)

    def build_notification(
        self, entity: ContextEntity, changed_attrs: List[str], now: float
    ) -> Notification:
        snapshot = entity.copy()
        if self.notify_attrs is not None:
            snapshot.attributes = {
                name: attr
                for name, attr in snapshot.attributes.items()
                if name in self.notify_attrs
            }
        return Notification(self.subscription_id, snapshot, list(changed_attrs), now)


class SubscriptionIndex:
    """Dispatch index bucketing subscriptions by their selector.

    The broker's hot path asks "which subscriptions could match this
    entity?"; answering by scanning every subscription is
    O(subscriptions) per update.  The index buckets each subscription
    once, by its most selective constraint:

    * exact ``entity_id``  -> the ``by id`` bucket for that id;
    * else ``entity_type`` -> the ``by type`` bucket for that type;
    * else (``id_pattern`` only) -> the residual list, scanned always.

    :meth:`candidates` returns a superset of the matching subscriptions
    (``Subscription.matches_entity`` is still applied by the dispatcher,
    so a subscription constraining both id and type is bucketed by id and
    type-checked at dispatch).  Buckets preserve insertion order; the
    dispatcher re-sorts the small candidate set by subscription id, which
    reproduces the full scan's delivery order bit-for-bit.
    """

    def __init__(self) -> None:
        self._by_id: Dict[str, Dict[str, Subscription]] = {}
        self._by_type: Dict[str, Dict[str, Subscription]] = {}
        self._residual: Dict[str, Subscription] = {}
        self._all: Dict[str, Subscription] = {}

    def __len__(self) -> int:
        return len(self._all)

    def add(self, subscription: Subscription) -> None:
        self._all[subscription.subscription_id] = subscription
        bucket = self._bucket_for(subscription)
        bucket[subscription.subscription_id] = subscription

    def remove(self, subscription_id: str) -> Optional[Subscription]:
        subscription = self._all.pop(subscription_id, None)
        if subscription is None:
            return None
        if subscription.entity_id is not None:
            bucket = self._by_id.get(subscription.entity_id)
            if bucket is not None:
                bucket.pop(subscription_id, None)
                if not bucket:
                    del self._by_id[subscription.entity_id]
        elif subscription.entity_type is not None:
            bucket = self._by_type.get(subscription.entity_type)
            if bucket is not None:
                bucket.pop(subscription_id, None)
                if not bucket:
                    del self._by_type[subscription.entity_type]
        else:
            self._residual.pop(subscription_id, None)
        return subscription

    def _bucket_for(self, subscription: Subscription) -> Dict[str, Subscription]:
        if subscription.entity_id is not None:
            return self._by_id.setdefault(subscription.entity_id, {})
        if subscription.entity_type is not None:
            return self._by_type.setdefault(subscription.entity_type, {})
        return self._residual

    def candidates(self, entity: ContextEntity) -> List[Subscription]:
        """Superset of subscriptions whose selector can match ``entity``."""
        out: List[Subscription] = []
        bucket = self._by_id.get(entity.entity_id)
        if bucket:
            out.extend(bucket.values())
        bucket = self._by_type.get(entity.entity_type)
        if bucket:
            out.extend(bucket.values())
        if self._residual:
            out.extend(self._residual.values())
        return out
