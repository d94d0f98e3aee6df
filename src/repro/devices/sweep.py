"""Device sampling: one kernel event sweeps a whole group of devices.

Every device samples on a :class:`SweepGroup`: one self-rescheduling
callback per group walks the enrolled devices in struct-of-arrays order
(parallel device/reporter arrays, bound methods cached at enrollment)
and samples every live device in a single event.  Pilots build one
:class:`SweepScheduler` per farm, which keeps one group per distinct
report interval, so a full-season pilot spends one event per farm tick
instead of one timer event and generator resume per device report.  A
device started without a scheduler samples on a one-member group of its
own (see :meth:`repro.devices.base.Device.start`).

Behavioural contract:

* a *failed* device skips the sample but stays enrolled, and resumes
  reporting after repair;
* a *dead* device (battery exhausted) is dropped from the group;
* ``Device.stop()`` removes the device immediately via
  :meth:`SweepGroup.remove`; the group's pending tick still fires, finds
  the group empty and stops ticking.

Phase: a group draws one start phase, uniform over its interval, when
its first device enrolls.  Pilot groups draw it from the dedicated
``sweep:<farm>`` stream; a one-member group draws it from its device's
own ``device:<id>`` stream at :meth:`~repro.devices.base.Device.start`,
so a directly built device's report times depend only on that stream
and its start time (pinned in tests/test_sweep.py).

Checkpoint/restore follows the same convention as the broker's sweeper:
the tick is a plain self-rescheduling callback, so a run-level checkpoint
rebuilds it by replaying the builder (no generator state to capture).
"""

from typing import Dict, List, Optional

from repro.simkernel.simulator import Simulator


class SweepGroup:
    """Devices of one farm sharing one report interval."""

    __slots__ = ("sim", "interval_s", "label", "_rng", "_devices", "_reporters", "_ticking")

    def __init__(self, sim: Simulator, farm: str, interval_s: float, rng) -> None:
        self.sim = sim
        self.interval_s = interval_s
        self.label = f"sweep:{farm}:{interval_s:g}"
        self._rng = rng
        # Struct-of-arrays: parallel device / bound-reporter arrays so the
        # tick touches one flat list per concern instead of re-binding
        # device.report_once on every sample.
        self._devices: List = []
        self._reporters: List = []
        self._ticking = False

    def __len__(self) -> int:
        return len(self._devices)

    def add(self, device) -> None:
        self._devices.append(device)
        self._reporters.append(device.report_once)
        if not self._ticking:
            self._ticking = True
            # One phase draw per group (not per device): the whole batch
            # desynchronizes from other groups, like real fleets whose
            # gateways poll their attached sensors in one radio round.
            delay = self._rng.uniform(0.0, self.interval_s)
            self.sim.schedule(delay, self._tick, label=self.label)

    def remove(self, device) -> bool:
        """Drop ``device`` from the group; True when it was enrolled."""
        try:
            i = self._devices.index(device)
        except ValueError:
            return False
        del self._devices[i]
        del self._reporters[i]
        return True

    def _tick(self) -> None:
        devices = self._devices
        reporters = self._reporters
        drop = None
        for i in range(len(devices)):
            device = devices[i]
            if device.dead:
                if drop is None:
                    drop = [i]
                else:
                    drop.append(i)
            elif not device.failed:
                reporters[i]()
        if drop is not None:
            for i in reversed(drop):
                del devices[i]
                del reporters[i]
        if not devices:
            # Empty group: stop ticking.  A later enrollment restarts the
            # tick with a fresh phase draw.
            self._ticking = False
            return
        self.sim.schedule(self.interval_s, self._tick, label=self.label)


class SweepScheduler:
    """Per-farm registry of sweep groups, keyed by report interval."""

    def __init__(self, sim: Simulator, farm: str) -> None:
        self.sim = sim
        self.farm = farm
        self._groups: Dict[float, SweepGroup] = {}
        # Dedicated stream: group phase draws must not perturb any other
        # subsystem's RNG sequence (same isolation rule as reconnect
        # backoff jitter).
        self._rng = sim.rng.stream(f"sweep:{farm}")

    def enroll(self, device) -> SweepGroup:
        """Add ``device`` to the group for its report interval."""
        interval = device.config.report_interval_s
        group = self._groups.get(interval)
        if group is None:
            group = self._groups[interval] = SweepGroup(
                self.sim, self.farm, interval, self._rng
            )
        group.add(device)
        return group

    def group_for(self, interval_s: float) -> Optional[SweepGroup]:
        return self._groups.get(interval_s)

    def total_enrolled(self) -> int:
        return sum(len(g) for g in self._groups.values())
