"""Generator-based simulation processes.

A process is a Python generator driven by the simulator.  It may yield:

* a ``float``/``int`` — sleep that many simulated seconds;
* a :class:`Signal` — block until someone fires the signal (a value may be
  carried through to the generator).

Processes model everything with an autonomous clock in SWAMP: device
failure clocks, irrigation controllers, attacker scripts.  Purely
reactive components (brokers, links) and timers that sleep until woken
(the broker sweep, the fog sync pump) use plain event callbacks
instead, which are cheaper.
"""

import enum
from typing import Any, Generator, List, Optional, Tuple

from repro.simkernel.errors import ProcessError


class ProcessState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    KILLED = "killed"


class Signal:
    """A one-to-many wakeup primitive.

    Processes yield the signal to block on it; :meth:`fire` wakes all current
    waiters (delivering ``value`` as the result of their ``yield``).  A signal
    can be fired repeatedly; each firing wakes only the waiters blocked at
    that moment.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: List["Process"] = []
        self.fire_count = 0

    def add_waiter(self, process: "Process") -> None:
        self._waiters.append(process)

    def discard_waiter(self, process: "Process") -> None:
        try:
            self._waiters.remove(process)
        except ValueError:
            pass

    def fire(self, value: Any = None) -> int:
        """Wake all waiters now; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        self.fire_count += 1
        for process in waiters:
            process._wake(value)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


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
        self._waiting_signal: Optional[Signal] = None
        self.done_signal = Signal(f"{name}.done")
        self._timer_label = f"proc:{name}"

    # -- kernel interface ---------------------------------------------------

    def start(self) -> None:
        if self.state is not ProcessState.CREATED:
            raise ProcessError(f"process {self.name!r} started twice")
        self.state = ProcessState.RUNNING
        self._step(None)

    def kill(self, reason: str = "killed") -> None:
        """Terminate the process without running any more of its body."""
        if self.state is not ProcessState.RUNNING:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_signal is not None:
            self._waiting_signal.discard_waiter(self)
            self._waiting_signal = None
        self._gen.close()
        self.state = ProcessState.KILLED
        self.result = reason
        self.done_signal.fire(self)

    def _wake(self, value: Any) -> None:
        """Called by a Signal when it fires."""
        self._waiting_signal = None
        self._step(value)

    def _step(self, send_value: Any) -> None:
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.state = ProcessState.FINISHED
            self.result = stop.value
            self.done_signal.fire(self)
            return
        except Exception as exc:
            self.state = ProcessState.FAILED
            self.error = exc
            self.done_signal.fire(self)
            self._sim.on_process_failure(self, exc)
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            delay = float(yielded)
            if delay < 0:
                self._fail(ProcessError(f"process {self.name!r} yielded negative delay {delay}"))
                return
            self._pending_event = self._sim.schedule(
                delay, self._on_timer, label=self._timer_label
            )
            return
        if isinstance(yielded, Signal):
            self._waiting_signal = yielded
            yielded.add_waiter(self)
            return
        self._fail(
            ProcessError(
                f"process {self.name!r} yielded unsupported value {yielded!r}; "
                "yield a delay (seconds) or a Signal"
            )
        )

    def _on_timer(self) -> None:
        self._pending_event = None
        self._step(None)

    def _fail(self, exc: BaseException) -> None:
        self.state = ProcessState.FAILED
        self.error = exc
        self._gen.close()
        self.done_signal.fire(self)
        self._sim.on_process_failure(self, exc)

    # -- inspection ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state is ProcessState.RUNNING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, {self.state.value})"
