"""Detection engine: wires the detectors to the platform.

Subscribes to context-broker updates, learns per-(entity, attribute)
baselines during a training window, then scores every subsequent update
through the full detector bank.  Scores ≥ 1.0 raise an
:class:`Alert`; the :class:`AlertManager` debounces alerts per device and
invokes a quarantine hook once a device crosses the alert budget —
typically deprovisioning it at the IoT agent and/or blocking it at the
SDN controller.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.context.broker import ContextBroker
from repro.context.entities import ContextEntity
from repro.security.detection.detectors import (
    CusumDriftDetector,
    JumpDetector,
    RangeDetector,
    RateDetector,
    StuckDetector,
    ZScoreDetector,
)
from repro.simkernel.simulator import Simulator


@dataclass
class Alert:
    time: float
    entity_id: str
    attribute: str
    detector: str
    score: float
    value: float
    source_device: Optional[str]


def default_detector_bank():
    return {
        "range": RangeDetector(),
        "zscore": ZScoreDetector(),
        "jump": JumpDetector(),
        "stuck": StuckDetector(),
        "cusum": CusumDriftDetector(),
        "rate": RateDetector(),
    }


class AlertManager:
    """Debounce + quarantine policy over the alert stream."""

    def __init__(
        self,
        quarantine_threshold: int = 5,
        window_s: float = 86400.0,
        on_quarantine: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.quarantine_threshold = quarantine_threshold
        self.window_s = window_s
        self.on_quarantine = on_quarantine
        self.alerts: List[Alert] = []
        self.quarantined: Dict[str, float] = {}
        self._recent: Dict[str, List[float]] = defaultdict(list)

    def handle(self, alert: Alert) -> None:
        self.alerts.append(alert)
        key = alert.source_device or alert.entity_id
        if key in self.quarantined:
            return
        timestamps = self._recent[key]
        timestamps.append(alert.time)
        cutoff = alert.time - self.window_s
        self._recent[key] = [t for t in timestamps if t >= cutoff]
        if len(self._recent[key]) >= self.quarantine_threshold:
            self.quarantined[key] = alert.time
            if self.on_quarantine is not None:
                self.on_quarantine(key)

    def alerts_for(self, device_or_entity: str) -> List[Alert]:
        return [
            a for a in self.alerts
            if a.source_device == device_or_entity or a.entity_id == device_or_entity
        ]


class DetectionEngine:
    def __init__(
        self,
        sim: Simulator,
        context: ContextBroker,
        alert_manager: Optional[AlertManager] = None,
        training_window_s: float = 7 * 86400.0,
        watched_attributes: Optional[List[str]] = None,
        alert_threshold: float = 1.0,
        detector_factory: Callable[[], dict] = default_detector_bank,
    ) -> None:
        self.sim = sim
        self.context = context
        self.alert_manager = alert_manager or AlertManager()
        self.training_window_s = training_window_s
        self.watched_attributes = set(watched_attributes) if watched_attributes else None
        self.alert_threshold = alert_threshold
        self.detector_factory = detector_factory
        self._banks: Dict[Tuple[str, str], dict] = {}
        self._started_at = sim.now
        self.samples_trained = 0
        self.samples_scored = 0
        self.alerts_raised = 0
        registry = sim.metrics
        registry.register_counter("security.detector_samples_trained", lambda: self.samples_trained)
        registry.register_counter("security.detector_samples_scored", lambda: self.samples_scored)
        registry.register_counter("security.detector_alerts", lambda: self.alerts_raised)
        context.update_hooks.append(self._on_update)

    @property
    def training(self) -> bool:
        return self.sim.now - self._started_at < self.training_window_s

    def _bank(self, entity_id: str, attribute: str) -> dict:
        key = (entity_id, attribute)
        bank = self._banks.get(key)
        if bank is None:
            bank = self.detector_factory()
            self._banks[key] = bank
        return bank

    def _on_update(self, entity: ContextEntity, changed: List[str]) -> None:
        for name in changed:
            if self.watched_attributes is not None and name not in self.watched_attributes:
                continue
            attribute = entity.attribute(name)
            if attribute is None or isinstance(attribute.value, bool):
                continue
            if not isinstance(attribute.value, (int, float)):
                continue
            value = float(attribute.value)
            source = attribute.metadata.get("sourceDevice")
            bank = self._bank(entity.entity_id, name)
            now = self.sim.now
            if self.training:
                for detector in bank.values():
                    detector.train(now, value)
                self.samples_trained += 1
                continue
            self.samples_scored += 1
            for detector_name, detector in bank.items():
                score = detector.score(now, value)
                if score >= self.alert_threshold:
                    self.alerts_raised += 1
                    self.alert_manager.handle(
                        Alert(
                            time=now,
                            entity_id=entity.entity_id,
                            attribute=name,
                            detector=detector_name,
                            score=score,
                            value=value,
                            source_device=source,
                        )
                    )

    # -- reporting -----------------------------------------------------------

    def profile_confidence(self, entity_id: str, attribute: str) -> float:
        """How much baseline the engine has for a signal, in [0, 1].

        The paper's partial-observability caveat: with few training
        samples the profile "does not necessarily correspond to that
        crop"; consumers should weight alerts by this confidence.
        """
        bank = self._banks.get((entity_id, attribute))
        if bank is None:
            return 0.0
        range_detector = bank.get("range")
        count = getattr(getattr(range_detector, "_stats", None), "count", 0)
        return min(1.0, count / 50.0)
