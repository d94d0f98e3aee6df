"""Configuration for the resilience layer.

One dataclass gathers every knob so ``PilotConfig.resilience`` stays a
single optional field: ``None`` (the default) skips the layer's
assembly step, so the seed-pinned event sequences of fault-free pilots
stay exactly as they were before the layer existed.
"""

from dataclasses import dataclass


@dataclass
class ResilienceConfig:
    # -- supervisor --------------------------------------------------------
    #: Watchdog cadence: how often every health probe / heartbeat is read.
    check_interval_s: float = 30.0
    #: Seeded restart backoff: first retry delay, doubling per attempt.
    restart_backoff_initial_s: float = 5.0
    restart_backoff_max_s: float = 600.0
    #: Attempts after which a still-unhealthy service is surfaced as
    #: ``degraded`` (retries continue at the capped backoff) ...
    degraded_after_restarts: int = 3
    #: ... and after which the supervisor gives up entirely (``failed``).
    failed_after_restarts: int = 8
    #: Heartbeat staleness bound for the context broker watch (beats come
    #: from the update hot path, so this must exceed the longest quiet
    #: period of a healthy fleet).
    context_heartbeat_timeout_s: float = 2 * 3600.0

    # -- cloud-uplink circuit breaker --------------------------------------
    breaker_failure_threshold: int = 3
    breaker_open_timeout_s: float = 300.0

    # -- fog degraded-mode autonomy ----------------------------------------
    #: Staleness bound for last-known-good context while the uplink is
    #: open: the scheduler keeps deciding on data up to this old.
    degraded_max_data_age_s: float = 72 * 3600.0
    #: Journal capacity for decisions taken while degraded (oldest-first
    #: eviction; reconciled to the cloud on reconnect).
    journal_limit: int = 512
