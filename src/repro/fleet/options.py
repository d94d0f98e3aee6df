"""Typed options for a fleet run."""

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional

from repro.simkernel.errors import ReproError

#: Pilot names accepted without importing the heavy builder module here.
_KNOWN_PILOTS = ("cbec", "intercrop", "guaspari", "matopiba")


class FleetError(ReproError):
    """Invalid fleet options or a shard-level failure."""


@dataclass
class FarmSpec:
    """One farm in the fleet: a pilot name plus builder overrides."""

    pilot: str
    #: Shard display name; defaults to ``{pilot}-{index}``.
    name: Optional[str] = None
    #: Extra builder kwargs for this farm (must be picklable — they cross
    #: the worker-process boundary).
    kwargs: Dict[str, Any] = dataclass_field(default_factory=dict)


def parse_farm_specs(spec: str) -> List[FarmSpec]:
    """Parse the CLI farm list: ``"matopiba:2,guaspari"`` → 3 farms.

    Each comma-separated entry is ``pilot`` or ``pilot:count``.
    """
    farms: List[FarmSpec] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        pilot, _, count_str = entry.partition(":")
        pilot = pilot.strip()
        if pilot not in _KNOWN_PILOTS:
            raise FleetError(
                f"unknown pilot {pilot!r} in farm spec; "
                f"choose from {', '.join(_KNOWN_PILOTS)}"
            )
        count = 1
        if count_str:
            try:
                count = int(count_str)
            except ValueError:
                raise FleetError(f"bad farm count {count_str!r} in {entry!r}")
            if count < 1:
                raise FleetError(f"farm count must be >= 1, got {count} in {entry!r}")
        farms.extend(FarmSpec(pilot=pilot) for _ in range(count))
    if not farms:
        raise FleetError(f"farm spec {spec!r} names no farms")
    return farms


@dataclass
class FleetOptions:
    """Everything a fleet run needs.

    ``executor`` picks how shards execute: ``"inprocess"`` runs them one
    after another in this process (tests, debugging),
    ``"multiprocessing"`` fans out over a spawn-context pool of
    ``workers`` processes, and ``"auto"`` uses multiprocessing whenever
    ``workers > 1``.  All three produce bit-identical merged reports —
    the executor is a throughput knob, never a semantics knob.
    """

    farms: List[FarmSpec]
    seed: int = 0
    #: Days per shard (None = each farm's full season).
    days: Optional[float] = None
    #: Epoch barrier spacing: each shard pauses every ``epoch_days`` and
    #: its fog→cloud sync-progress delta is drained to the merge layer.
    epoch_days: float = 1.0
    workers: int = 1
    executor: str = "auto"  # "auto" | "inprocess" | "multiprocessing"

    def validate(self) -> None:
        if not self.farms:
            raise FleetError("fleet needs at least one farm")
        if self.epoch_days <= 0:
            raise FleetError(f"epoch_days must be positive, got {self.epoch_days!r}")
        if self.workers < 1:
            raise FleetError(f"workers must be >= 1, got {self.workers!r}")
        if self.executor not in ("auto", "inprocess", "multiprocessing"):
            raise FleetError(
                f"unknown executor {self.executor!r}; choose auto, "
                "inprocess or multiprocessing"
            )
        if self.days is not None and self.days <= 0:
            raise FleetError(f"days must be positive, got {self.days!r}")
