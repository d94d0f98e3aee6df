"""Virtual simulation clock.

Simulation time is a ``float`` number of seconds from the start of the run.
Helpers convert to human units (minutes/hours/days) because the agronomic
substrate naturally thinks in days while the network substrate thinks in
milliseconds.
"""

from repro.simkernel.errors import SimulationError

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0


class SimClock:
    """Monotone virtual clock owned by the :class:`~repro.simkernel.simulator.Simulator`.

    Only the simulator advances it; everyone else reads ``now``.  ``now``
    is a plain attribute, not a property: the kernel and every hot path
    read it millions of times per season and the descriptor-protocol
    indirection was a measurable slice of the run loop.  Mutate it only
    through :meth:`advance_to`.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start!r}")
        self.now = float(start)

    @property
    def now_minutes(self) -> float:
        return self.now / MINUTE

    @property
    def now_hours(self) -> float:
        return self.now / HOUR

    @property
    def now_days(self) -> float:
        return self.now / DAY

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t`` (kernel use only)."""
        if t < self.now:
            raise SimulationError(
                f"clock cannot move backwards: now={self.now!r}, target={t!r}"
            )
        self.now = t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self.now:.6f})"
