"""Event objects and the priority queue that orders them.

Ordering is ``(time, priority, seq)``: earlier time first, then lower
priority number, then FIFO by insertion sequence.  The sequence number makes
the schedule fully deterministic even when many events share a timestamp,
which happens constantly (e.g. a broker fanning out one publish to fifty
subscribers at the same instant).

The heap stores ``(time, priority, seq, event)`` tuples rather than bare
:class:`Event` objects.  ``seq`` is unique, so tuple comparison never falls
through to the event element — every sift comparison is a C-level tuple
compare instead of a Python-level ``Event.__lt__`` call.  On a full-season
pilot that one change removes ~9M interpreted comparisons from the run loop.

Cancellation accounting is exact: ``Event.cancel()`` routes through the
owning queue's :meth:`EventQueue.note_cancelled` while the event is still
in the heap, so ``len(queue)``/``__bool__`` always equal the number of live
events even though cancelled entries are only physically dropped lazily
when they reach the heap head.
"""

import heapq
from typing import Any, Callable, Optional, Tuple

from repro.simkernel.errors import SimulationError

_heappush = heapq.heappush
_heappop = heapq.heappop

# Priority bands.  Lower runs first at equal timestamps.
PRIORITY_KERNEL = 0
PRIORITY_NETWORK = 10
PRIORITY_NORMAL = 50
PRIORITY_BACKGROUND = 90


class Event:
    """A scheduled callback.

    Events are single-shot.  Cancelling flips a flag and tells the owning
    queue (if the event is still pending there) to decrement its live
    count; the queue drops cancelled entries lazily when they reach the
    head.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "args",
        "label",
        "cancelled",
        "_queue",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        label: str,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent.

        Cancelling an event that already popped (or was never queued) only
        flips the flag; cancelling a pending event also fixes the owning
        queue's live count immediately, so ``len(queue)`` never overcounts.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue.note_cancelled()

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " CANCELLED" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, p={self.priority}, #{self.seq}, {self.label}{flag})"


class EventQueue:
    """Binary-heap event queue with lazy deletion of cancelled events."""

    def __init__(self) -> None:
        # Entries are (time, priority, seq, event) tuples; seq is unique so
        # comparisons resolve before reaching the event element.
        self._heap: list = []
        # Plain int, not itertools.count: Simulator.schedule inlines push
        # and advances the tie-break counter directly.
        self._seq_next = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        seq = self._seq_next
        event = Event(time, priority, seq, callback, args, label)
        event._queue = self
        self._seq_next = seq + 1
        _heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises :class:`SimulationError` when empty.
        """
        heap = self._heap
        while heap:
            event = _heappop(heap)[3]
            if event.cancelled:
                # cancel() already decremented _live for this entry.
                continue
            self._live -= 1
            event._queue = None
            return event
        raise SimulationError("pop from empty event queue")

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            _heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def note_cancelled(self) -> None:
        """Bookkeeping hook: an event pending in this queue was cancelled.

        Called by :meth:`Event.cancel` exactly once per pending event, so
        the live count stays exact between the cancel and the lazy heap
        drop.
        """
        self._live -= 1

    def signature(self) -> Tuple[Tuple[float, int, int, str], ...]:
        """Order-defining fingerprint of the pending schedule.

        ``(time, priority, seq, label)`` per live event, in execution
        order, plus nothing about the callbacks — two kernels whose
        signatures match will pop the same schedule in the same order.
        Used by checkpoint restore to verify a replay reconverged.
        """
        return tuple(
            (time, priority, seq, event.label)
            for time, priority, seq, event in sorted(self._heap)
            if not event.cancelled
        )
