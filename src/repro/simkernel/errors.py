"""Exception types raised by the simulation kernel.

This module also hosts :class:`ReproError`, the root of the repository's
unified exception hierarchy: topic validation errors, context-broker
lookup errors, fault-plan validation errors and checkpoint errors all
derive from it, so ``except ReproError`` catches any failure raised by
the platform's own code (as opposed to plain Python bugs).  Subsystems
keep their historical secondary bases (``ValueError``, ``RuntimeError``)
so existing ``except`` clauses continue to work.
"""


class ReproError(Exception):
    """Root of every exception raised by the repro platform."""


class SimulationError(ReproError, RuntimeError):
    """Base class for kernel-level failures (bad schedule, reversed clock...)."""


class StopSimulation(Exception):
    """Raised by a process or callback to stop the run immediately.

    The simulator catches it, drains nothing further, and returns normally;
    the exception carries an optional ``reason`` used in the trace log.
    """

    def __init__(self, reason: str = "stopped") -> None:
        super().__init__(reason)
        self.reason = reason


class ScheduleInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""


class ProcessError(SimulationError):
    """A simulation process misbehaved (yielded a bad value, double-started...)."""
