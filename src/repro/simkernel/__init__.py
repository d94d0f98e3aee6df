"""Deterministic discrete-event simulation kernel.

Everything in the SWAMP reproduction runs on this kernel: device sampling
sweeps, radio links, the MQTT broker, the context broker, fog/cloud sync,
attackers and detectors are all simulation processes scheduled on a single
virtual clock.  Determinism is a hard requirement (experiments must be
reproducible bit-for-bit from a seed), so:

* all randomness flows through named, seeded :class:`~repro.simkernel.rng.RngRegistry`
  streams, and
* event ties are broken by a monotone sequence number, never by object id
  or insertion races.

The kernel is paused and resumed one way.  ``Simulator.snapshot()``
returns a :class:`~repro.simkernel.snapshot.KernelSnapshot`: the
kernel's fingerprint (clock, events executed, pending-queue signature,
RNG stream states, trace counts) plus its wall time.  A checkpoint
restore (:mod:`repro.core.checkpoint`) rebuilds the pilot, replays it to
the same barrier and compares fingerprints; nothing is restored in
place.
"""

from repro.simkernel.clock import SimClock
from repro.simkernel.errors import ReproError, SimulationError, StopSimulation
from repro.simkernel.events import Event, EventQueue
from repro.simkernel.process import Process, ProcessState
from repro.simkernel.rng import RngRegistry, SeededStream
from repro.simkernel.simulator import Simulator
from repro.simkernel.snapshot import (
    SNAPSHOT_VERSION,
    KernelSnapshot,
    compare_fingerprints,
)
from repro.simkernel.trace import TraceLog, TraceRecord

__all__ = [
    "Event",
    "EventQueue",
    "KernelSnapshot",
    "Process",
    "ProcessState",
    "ReproError",
    "RngRegistry",
    "SNAPSHOT_VERSION",
    "SeededStream",
    "SimClock",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "TraceLog",
    "TraceRecord",
    "compare_fingerprints",
]
