"""Read-path response cache with entity-version invalidation.

Dashboard traffic is dominated by a small set of repeated reads (the
same entity listing, the same history panel, refreshed every few
seconds) between comparatively rare writes (a probe reports every 30
simulated minutes).  The cache exploits that: responses to cacheable GET
routes are stored under ``(tenant, method, path, params)`` and served
until any entity they depend on changes.

Two dependency shapes cover every read route:

* **entity deps** — single-entity reads record the exact entity version
  (a monotone counter bumped on every write to that id);
* **scope deps** — collection and history reads record the version of
  each namespace *scope* (entity-id prefix) they can observe; any write
  under the prefix bumps the scope, invalidating every listing that
  could have included it.  Prefixes are registered per tenant, so one
  tenant's writes never invalidate another tenant's disjoint listings.

Versions are bumped from the context broker's update hook (device
telemetry landing through the IoT agent) and from the service's own
write handlers (which also cover deletes and attribute-less creates,
paths the broker hook does not report).  Entries are LRU-evicted at
``capacity``.  Nothing here reads the clock or draws randomness — hit
patterns are a pure function of the request/write interleaving, which
is itself deterministic.
"""

from collections import OrderedDict
from typing import Dict, Iterable, Optional, Tuple

from repro.service.http import Response

__all__ = ["ResponseCache"]

CacheKey = Tuple[str, str, str, Tuple[Tuple[str, str], ...]]


class ResponseCache:
    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        # key -> (entity_deps, scope_deps, status, body) where each dep is
        # (name, version-at-capture).
        self._entries: "OrderedDict[CacheKey, tuple]" = OrderedDict()
        self._entity_versions: Dict[str, int] = {}
        self._scope_versions: Dict[str, int] = {}
        self._version_seq = 0
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.evicted = 0

    @staticmethod
    def key(tenant: str, method: str, path: str, params: Dict[str, str]) -> CacheKey:
        return (tenant, method, path, tuple(sorted(params.items())))

    # -- invalidation feeds --------------------------------------------------

    def register_scope(self, prefix: str) -> None:
        self._scope_versions.setdefault(prefix, 0)

    def note_write(self, entity_id: str) -> None:
        """Record a mutation of ``entity_id`` (update, create or delete)."""
        self._version_seq += 1
        version = self._version_seq
        self._entity_versions[entity_id] = version
        for prefix in self._scope_versions:
            if entity_id.startswith(prefix):
                self._scope_versions[prefix] = version

    # -- lookup / store --------------------------------------------------

    def lookup(self, key: CacheKey) -> Optional[Response]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        entity_deps, scope_deps, status, body = entry
        for entity_id, version in entity_deps:
            if self._entity_versions.get(entity_id, 0) != version:
                del self._entries[key]
                self.invalidated += 1
                self.misses += 1
                return None
        for prefix, version in scope_deps:
            if self._scope_versions.get(prefix, 0) != version:
                del self._entries[key]
                self.invalidated += 1
                self.misses += 1
                return None
        self._entries.move_to_end(key)
        self.hits += 1
        return Response(status, body, {"X-Cache": "HIT"})

    def store(
        self,
        key: CacheKey,
        response: Response,
        entity_deps: Iterable[str] = (),
        scope_deps: Iterable[str] = (),
    ) -> None:
        entry = (
            tuple((e, self._entity_versions.get(e, 0)) for e in entity_deps),
            tuple((p, self._scope_versions.get(p, 0)) for p in scope_deps),
            response.status,
            response.body,
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evicted += 1

    # -- stats --------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)
