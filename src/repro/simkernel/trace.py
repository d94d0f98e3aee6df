"""Structured trace log for simulation runs.

Components emit trace records (``category``, ``message``, payload dict); the
experiments and tests query them afterwards.  The trace is bounded so a
multi-season run cannot exhaust memory: when full, the oldest records are
dropped and counters record how many were lost — in total *and per
category of the evicted record*, so a flood in one category that evicts
another's history is attributable after the run.
"""

from collections import Counter, deque
from typing import Any, Deque, Dict, Iterator, List, Optional


class TraceRecord:
    """One trace entry."""

    __slots__ = ("time", "category", "message", "data")

    def __init__(self, time: float, category: str, message: str, data: Dict[str, Any]) -> None:
        self.time = time
        self.category = category
        self.message = message
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecord(t={self.time:.3f}, {self.category}: {self.message})"


class TraceLog:
    """Append-only bounded log with per-category counters and filters."""

    def __init__(self, max_records: int = 200_000) -> None:
        self.max_records = max_records
        self._records: Deque[TraceRecord] = deque(maxlen=max_records)
        self.dropped = 0
        self.dropped_by_category: Counter = Counter()
        self.counts: Counter = Counter()

    def emit(self, time: float, category: str, message: str, **data: Any) -> TraceRecord:
        record = TraceRecord(time, category, message, data)
        self.counts[category] += 1
        if self.max_records == 0:
            # Storage disabled entirely: every record is a drop of itself.
            self.dropped += 1
            self.dropped_by_category[category] += 1
        elif len(self._records) == self.max_records:
            # The deque evicts its *oldest* entry on append; attribute the
            # drop to the evicted record's category, not the incoming one.
            evicted = self._records[0]
            self.dropped += 1
            self.dropped_by_category[evicted.category] += 1
        self._records.append(record)
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def select(
        self,
        category: Optional[str] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[TraceRecord]:
        """Records matching the filter, in emission order."""
        return [
            r
            for r in self._records
            if (category is None or r.category == category) and since <= r.time <= until
        ]

    def count(self, category: str) -> int:
        """Total records ever emitted in ``category`` (survives eviction)."""
        return self.counts[category]
