"""Generator-based simulation processes and the kernel's grid timer.

A process is a Python generator driven by the simulator.  It yields a
``float``/``int``: sleep that many simulated seconds.

Processes model everything with an autonomous clock in SWAMP: device
failure clocks, irrigation controllers, attacker scripts.  Purely
reactive components (brokers, links) use plain event callbacks instead,
which are cheaper.  A daemon that works on a fixed schedule but sleeps
while it has nothing to do (the broker's session sweep, the fog sync
pump, the service pump) uses a :class:`GridTimer`.
"""

import enum
from typing import Any, Callable, Generator, Optional

from repro.simkernel.errors import ProcessError


class ProcessState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    KILLED = "killed"


class GridTimer:
    """A callback on a fixed grid of sim times, queued only while armed.

    The grid is the anchor plus whole intervals, each point the float sum
    of the point before and the interval, so a tick lands on the bit-equal
    time a callback rescheduling itself every interval from the anchor
    would.  :meth:`arm` queues the first grid point after the anchor that
    is at or after ``t``; a tick already queued no later than that point
    stays, so its place among events at the same instant holds.  A tick
    moves the anchor to its own time, clears its event, then calls back.
    """

    __slots__ = ("_sim", "interval", "callback", "label", "anchor", "event", "_before")

    def __init__(
        self, sim, interval: float, callback: Callable[[], Any], label: str
    ) -> None:
        self._sim = sim
        self.interval = interval
        self.callback = callback
        self.label = label
        self.anchor = sim.now
        self.event = None
        # The grid point before the queued tick (or the anchor).
        self._before = self.anchor

    @property
    def armed(self) -> bool:
        return self.event is not None

    def arm(self, t: float) -> None:
        """Queue the first grid point at or after ``t`` (past the anchor)."""
        event = self.event
        if event is not None and t > self._before:
            # The queued tick is the first grid point at or after t, or
            # earlier.
            return
        interval = self.interval
        before = self.anchor
        at = before + interval
        while at < t:
            before = at
            at += interval
        if event is not None:
            if event.time <= at:
                return
            event.cancel()
        self._before = before
        self.event = self._sim.schedule_at(at, self._tick, label=self.label)

    def cancel(self) -> None:
        """Drop the queued tick, if any."""
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def reanchor(self) -> None:
        """Restart the grid at now, dropping a tick queued on the old one."""
        self.cancel()
        self.anchor = self._sim.now

    def _tick(self) -> None:
        self.anchor = self._sim.clock.now
        self.event = None
        self.callback()


class Process:
    """Kernel-side handle for a running generator."""

    def __init__(self, simulator, generator: Generator, name: str) -> None:
        self._sim = simulator
        self._gen = generator
        self.name = name
        self.state = ProcessState.CREATED
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._pending_event = None
        self._timer_label = f"proc:{name}"

    # -- kernel interface ---------------------------------------------------

    def start(self) -> None:
        if self.state is not ProcessState.CREATED:
            raise ProcessError(f"process {self.name!r} started twice")
        self.state = ProcessState.RUNNING
        self._step()

    def kill(self, reason: str = "killed") -> None:
        """Terminate the process without running any more of its body."""
        if self.state is not ProcessState.RUNNING:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self._gen.close()
        self.state = ProcessState.KILLED
        self.result = reason

    def _step(self) -> None:
        self._pending_event = None
        try:
            yielded = next(self._gen)
        except StopIteration as stop:
            self.state = ProcessState.FINISHED
            self.result = stop.value
            return
        except Exception as exc:
            self.state = ProcessState.FAILED
            self.error = exc
            self._sim.on_process_failure(self, exc)
            return
        if not isinstance(yielded, (int, float)):
            self._fail(ProcessError(
                f"process {self.name!r} yielded unsupported value {yielded!r}; "
                "yield a delay (seconds)"
            ))
            return
        delay = float(yielded)
        if delay < 0:
            self._fail(ProcessError(f"process {self.name!r} yielded negative delay {delay}"))
            return
        self._pending_event = self._sim.schedule(delay, self._step, label=self._timer_label)

    def _fail(self, exc: BaseException) -> None:
        self.state = ProcessState.FAILED
        self.error = exc
        self._gen.close()
        self._sim.on_process_failure(self, exc)

    # -- inspection ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state is ProcessState.RUNNING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, {self.state.value})"
