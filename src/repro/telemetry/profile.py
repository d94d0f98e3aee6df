"""Kernel profiling: per-process and per-service time accounting.

The ROADMAP's north star — production scale, as fast as the hardware
allows — needs data to find the next hot path.  When profiling is
enabled the simulator wraps every event callback in a ``perf_counter``
pair and attributes the wall time to the event's label (processes are
labelled ``proc:<name>``, broker sweepers ``<address>:sweep``, client
keepalives ``<client id>:ping`` and so on; unlabeled events fall back to
the callback's qualified name).

Alongside wall time the profiler tracks each key's *simulated-time*
footprint: event count, first/last sim timestamp and the derived
activity rate (events per sim-hour) — "which process burns the host
CPU" and "which process dominates sim activity" are different questions
and both matter for scaling.

Profiling reads wall time only; it never schedules events, never draws
RNG and never touches event ordering, so enabling it cannot perturb a
deterministic run (the pinned fixtures stay bit-identical).  It is off
by default; the run summary and ``--profile-top K`` surface the top-K
hottest keys, and ``profile.*`` metrics export the aggregates.
"""

from typing import Any, Dict, List, Optional

__all__ = ["KernelProfiler", "ProfileEntry"]

SIM_HOUR = 3600.0


class ProfileEntry:
    """Accumulated cost of one event key (process, service timer, ...)."""

    __slots__ = ("key", "count", "wall_s", "first_sim_t", "last_sim_t")

    def __init__(self, key: str) -> None:
        self.key = key
        self.count = 0
        self.wall_s = 0.0
        self.first_sim_t: Optional[float] = None
        self.last_sim_t = 0.0

    @property
    def sim_span_s(self) -> float:
        """Sim seconds between this key's first and last event."""
        if self.first_sim_t is None:
            return 0.0
        return self.last_sim_t - self.first_sim_t

    @property
    def events_per_sim_hour(self) -> float:
        span = self.sim_span_s
        if span <= 0.0:
            return 0.0
        return self.count / (span / SIM_HOUR)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "count": self.count,
            "wall_s": self.wall_s,
            "sim_span_s": self.sim_span_s,
            "events_per_sim_hour": self.events_per_sim_hour,
        }


def service_of(key: str) -> str:
    """Collapse an event key to its service group.

    ``proc:fail:farm-probe-0-0`` → ``proc:fail`` (all device failure clocks),
    ``fog-pinhal:sweep`` → ``svc:sweep`` (all broker sweepers),
    anything without a colon (``survey``, a callback qualname) maps to
    itself.
    """
    if key.startswith("proc:"):
        rest = key[5:]
        return "proc:" + rest.split(":", 1)[0]
    if ":" in key:
        return "svc:" + key.rsplit(":", 1)[-1]
    return key


class KernelProfiler:
    """Per-event-key wall-time + sim-time accounting for one run."""

    def __init__(self) -> None:
        self._entries: Dict[str, ProfileEntry] = {}
        self.total_events = 0
        self.total_wall_s = 0.0

    # -- hot path (called by the simulator run loop) ----------------------

    def record(self, event, wall_s: float) -> None:
        key = event.label or getattr(event.callback, "__qualname__", "<event>")
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = ProfileEntry(key)
        entry.count += 1
        entry.wall_s += wall_s
        if entry.first_sim_t is None:
            entry.first_sim_t = event.time
        entry.last_sim_t = event.time
        self.total_events += 1
        self.total_wall_s += wall_s

    # -- aggregation -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[ProfileEntry]:
        return list(self._entries.values())

    def top(self, k: int = 10) -> List[ProfileEntry]:
        """The ``k`` hottest keys by accumulated wall time."""
        ranked = sorted(
            self._entries.values(), key=lambda e: (-e.wall_s, e.key)
        )
        return ranked[: max(0, k)]

    def by_service(self) -> Dict[str, ProfileEntry]:
        """Entries collapsed to service groups (see :func:`service_of`)."""
        grouped: Dict[str, ProfileEntry] = {}
        for entry in self._entries.values():
            service = service_of(entry.key)
            agg = grouped.get(service)
            if agg is None:
                agg = grouped[service] = ProfileEntry(service)
            agg.count += entry.count
            agg.wall_s += entry.wall_s
            if entry.first_sim_t is not None and (
                agg.first_sim_t is None or entry.first_sim_t < agg.first_sim_t
            ):
                agg.first_sim_t = entry.first_sim_t
            agg.last_sim_t = max(agg.last_sim_t, entry.last_sim_t)
        return grouped

    def snapshot(self, top_k: int = 10) -> Dict[str, Any]:
        return {
            "total_events": self.total_events,
            "total_wall_s": self.total_wall_s,
            "keys": len(self._entries),
            "top": [entry.to_dict() for entry in self.top(top_k)],
            "services": {
                name: entry.to_dict()
                for name, entry in sorted(self.by_service().items())
            },
        }

    def summary_lines(self, top_k: int = 10) -> List[str]:
        """Human-readable top-K block for the run summary / CLI."""
        lines = [
            f"profile: {self.total_events} events, "
            f"{self.total_wall_s * 1e3:.1f} ms wall, {len(self._entries)} keys"
        ]
        for entry in self.top(top_k):
            lines.append(
                f"  {entry.key:<40s} {entry.count:>8d} events  "
                f"{entry.wall_s * 1e3:>9.2f} ms  "
                f"{entry.events_per_sim_hour:>8.1f} ev/simh"
            )
        return lines

    def install_metrics(self, registry) -> None:
        """Register lazy ``profile.*`` gauges on the run's registry."""
        registry.register_callback("profile.keys", lambda: float(len(self._entries)))
        registry.register_callback("profile.events", lambda: float(self.total_events))
        registry.register_callback("profile.wall_s", lambda: self.total_wall_s)
        registry.register_callback(
            "profile.hottest_wall_s",
            lambda: self.top(1)[0].wall_s if self._entries else 0.0,
        )
