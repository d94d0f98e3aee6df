"""The discrete-event simulator that drives a SWAMP run."""

import heapq
import time
from typing import Any, Callable, Dict, Generator, Optional

from repro.simkernel.clock import SimClock
from repro.simkernel.errors import ScheduleInPastError, SimulationError, StopSimulation
from repro.simkernel.events import PRIORITY_NORMAL, Event, EventQueue
from repro.simkernel.process import Process
from repro.simkernel.rng import RngRegistry
from repro.simkernel.snapshot import SNAPSHOT_VERSION, KernelSnapshot
from repro.simkernel.trace import TraceLog
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY
from repro.telemetry.tracing import NULL_TRACER, Tracer


class Simulator:
    """Owns the clock, event queue, RNG registry and trace log for one run.

    A run is deterministic given ``seed``: the kernel never consults wall
    time, thread identity or hash randomization for ordering decisions.
    (Wall time is *read* only for throughput metrics; it never influences
    event ordering or simulation state.)

    The simulator also carries the run's :class:`MetricsRegistry` so every
    subsystem built on top of it reaches the same registry through
    ``sim.metrics``.  The kernel's own instrumentation is snapshot-lazy
    (callback gauges), so the event loop pays nothing for it.
    """

    def __init__(
        self,
        seed: int = 0,
        trace_capacity: int = 200_000,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        self.clock = SimClock()
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.trace = TraceLog(max_records=trace_capacity)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(self.clock)
        self.profiler = profiler
        self._running = False
        self._stop_reason: Optional[str] = None
        self.events_executed = 0
        self.wall_time_s = 0.0
        self.fail_fast = True
        self.metrics.register_callback(
            "simkernel.events_executed", lambda: float(self.events_executed)
        )
        self.metrics.register_callback(
            "simkernel.queue_depth", lambda: float(len(self.queue))
        )
        self.metrics.register_callback("simkernel.events_per_sec", self.events_per_sec)
        self.metrics.register_callback("simkernel.sim_time_s", lambda: self.clock.now)
        self.metrics.register_callback("simkernel.wall_time_s", lambda: self.wall_time_s)

    # -- scheduling -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ScheduleInPastError(f"negative delay {delay!r} for {label or callback!r}")
        # Inlined EventQueue.push (the canonical implementation): this is
        # the hottest scheduling entry point — several per simulated packet
        # — and the extra call frame was measurable at season scale.
        queue = self.queue
        at = self.clock.now + delay
        seq = queue._seq_next
        event = Event(at, priority, seq, callback, args, label)
        event._queue = queue
        queue._seq_next = seq + 1
        heapq.heappush(queue._heap, (at, priority, seq, event))
        queue._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self.clock.now:
            raise ScheduleInPastError(
                f"cannot schedule at {time!r}, now is {self.clock.now!r} ({label})"
            )
        return self.queue.push(time, callback, args, priority, label)

    def spawn(self, generator: Generator, name: str = "proc") -> Process:
        """Start a generator-based process immediately."""
        process = Process(self, generator, name)
        process.start()
        return process

    # -- run loop ---------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events until the queue drains, ``until`` is reached, or stop().

        Returns the final simulation time.  ``until`` is inclusive: events at
        exactly ``until`` still execute, and the clock lands on ``until`` even
        if the queue drains earlier (so back-to-back ``run`` calls compose).
        A ``max_events`` break is a pause: a later ``run`` continues from
        the next event.
        """
        if self._running:
            raise SimulationError("run() re-entered; the simulator is not reentrant")
        self._running = True
        executed_this_call = 0
        # Hot loop: hoist attribute lookups that cannot change mid-run and
        # keep the executed counter in a local (flushed in the finally so
        # accounting survives an escaping exception).  The pop is inlined
        # over the heap list, which nothing rebinds, because one method
        # call per event was a measurable slice of season runs.  As in
        # EventQueue.pop, cancelled entries drop off the head lazily.
        queue = self.queue
        heap = queue._heap
        clock = self.clock
        profiler = self.profiler
        perf_counter = time.perf_counter
        heappop = heapq.heappop
        limit = float("inf") if max_events is None else max_events
        wall_started = perf_counter()
        try:
            if profiler is None:
                while heap:
                    entry = heap[0]
                    event = entry[3]
                    if event.cancelled:
                        heappop(heap)
                        continue
                    t = entry[0]
                    if until is not None and t > until:
                        break
                    heappop(heap)
                    queue._live -= 1
                    event._queue = None
                    clock.advance_to(t)
                    try:
                        event.callback(*event.args)
                    except StopSimulation as stop:
                        self._stop_reason = stop.reason
                        self.trace.emit(
                            self.now, "kernel", "simulation stopped", reason=stop.reason
                        )
                    # The event ran (fully or up to its StopSimulation), so
                    # it counts toward throughput and max_events either way.
                    executed_this_call += 1
                    if self._stop_reason is not None or executed_this_call >= limit:
                        break
            else:
                while heap:
                    entry = heap[0]
                    event = entry[3]
                    if event.cancelled:
                        heappop(heap)
                        continue
                    t = entry[0]
                    if until is not None and t > until:
                        break
                    heappop(heap)
                    queue._live -= 1
                    event._queue = None
                    clock.advance_to(t)
                    _event_started = perf_counter()
                    try:
                        event.callback(*event.args)
                    except StopSimulation as stop:
                        self._stop_reason = stop.reason
                        self.trace.emit(
                            self.now, "kernel", "simulation stopped", reason=stop.reason
                        )
                    finally:
                        profiler.record(event, perf_counter() - _event_started)
                    executed_this_call += 1
                    if self._stop_reason is not None or executed_this_call >= limit:
                        break
        finally:
            self._running = False
            self.events_executed += executed_this_call
            self.wall_time_s += time.perf_counter() - wall_started
        if self._stop_reason is None and until is not None and self.clock.now < until:
            self.clock.advance_to(until)
        return self.clock.now

    def run_until(self, t: float) -> float:
        """Advance to the barrier ``t``: :meth:`run` with ``until=t``.

        Segmented execution: events at or before ``t`` execute exactly as
        they would inside a single longer :meth:`run` call and the clock
        lands on ``t``, so a sequence of ``run_until`` segments followed
        by ``run`` is bit-identical to one uninterrupted ``run``, and
        ``wall_time_s``/``events_executed`` accumulate across segments.
        """
        return self.run(until=t)

    def stop(self, reason: str = "stopped") -> None:
        """Request the run loop to exit after the current event."""
        self._stop_reason = reason

    @property
    def stopped_reason(self) -> Optional[str]:
        return self._stop_reason

    # -- failure policy -----------------------------------------------------------

    def on_process_failure(self, process: Process, exc: BaseException) -> None:
        """Called by a Process whose body raised.

        With ``fail_fast`` (the default) the exception propagates and aborts
        the run — silent partial failures would invalidate experiments.
        """
        self.trace.emit(
            self.now, "kernel", "process failed", process=process.name, error=repr(exc)
        )
        if self.fail_fast:
            raise exc

    # -- convenience -----------------------------------------------------------

    def events_per_sec(self) -> float:
        """Kernel throughput: events executed per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.events_executed / self.wall_time_s

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> KernelSnapshot:
        """The kernel's :meth:`fingerprint` plus the run's wall time.

        What a checkpoint stores: restore replays the pilot to the same
        instant and compares fingerprints (``repro.core.checkpoint``).
        """
        return KernelSnapshot(wall_time_s=self.wall_time_s, **self.fingerprint())

    def fingerprint(self) -> Dict[str, Any]:
        """The live kernel's deterministic-state digest.

        The one builder of what a :class:`KernelSnapshot` holds and what
        checkpoint restore compares after its replay.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "time": self.clock.now,
            "events_executed": self.events_executed,
            "queue_signature": self.queue.signature(),
            "rng": self.rng.stream_states(),
            "trace_counts": dict(self.trace.counts),
        }
