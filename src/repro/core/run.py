"""The single run entrypoint: one typed options object, one function.

Four PRs of organic growth left three overlapping ways to start a run —
``run_pilot(config)``, the ``build_*_pilot`` factories and the CLI's own
argument plumbing, plus ``run_chaos`` with its separate signature.  This
module consolidates them: :class:`RunOptions` carries every knob (pilot,
seed, days, security, faults, resilience, tracing, profiling, store,
service) and :func:`run` interprets it, so the CLI, notebooks and tests
all drive the same code path.

Bit-identity contract: ``run(RunOptions(config=cfg))`` builds exactly
``PilotRunner(cfg)`` — no option is folded into an explicit config
unless the caller set it, so reports stay bit-identical to the
historical ``run_pilot`` outputs (the shim completed its deprecation
cycle and is gone).  ``serve_trace`` opts the run into the north-facing
service layer: the trace's tenants are registered and its requests
replayed against the pilot on the simulation clock.  With the option
unset nothing service-related is constructed, so pinned fixtures are
untouched.
"""

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Optional, Union

from repro.core.pilot import PilotConfig, PilotReport, PilotRunner
from repro.core.security_profile import SecurityConfig
from repro.simkernel.clock import DAY
from repro.faults.plan import FaultPlan
from repro.resilience import ResilienceConfig
from repro.telemetry.tracing import TraceConfig

__all__ = ["RunOptions", "RunResult", "parse_security_spec", "run"]

SECURITY_FLAGS = ("auth", "encryption", "detection", "ledger", "command_rhythm")


def parse_security_spec(spec: Optional[str]) -> SecurityConfig:
    """Parse a comma-separated flag list (``"auth,encryption"``).

    Raises :class:`ValueError` on unknown flags; the CLI converts that to
    a ``SystemExit`` with the same message.
    """
    config = SecurityConfig()
    if not spec:
        return config
    for flag in spec.split(","):
        flag = flag.strip()
        if not flag:
            continue
        if flag not in SECURITY_FLAGS:
            raise ValueError(
                f"unknown security flag {flag!r}; choose from {', '.join(SECURITY_FLAGS)}"
            )
        setattr(config, flag, True)
    return config


@dataclass
class RunOptions:
    """Everything a run needs, in one typed object.

    Exactly one of two modes applies:

    * ``config`` set — run that :class:`PilotConfig` as-is (the
      ``run_pilot`` replacement).  Tracing/profiling options are applied
      as config overrides *only when explicitly enabled*, so a bare
      ``RunOptions(config=cfg)`` reproduces ``run_pilot(cfg)``
      bit-identically.
    * ``pilot`` named — build the pilot through its factory with the
      seed/security/faults/resilience/tracing knobs below (the CLI path).

    ``chaos=True`` switches to the seeded chaos harness
    (:func:`repro.faults.chaos.run_chaos`) instead of a plain season.
    """

    pilot: str = "matopiba"
    config: Optional[PilotConfig] = None
    seed: int = 0
    # Truncate the season to N days (None = full season).
    days: Optional[float] = None
    # SecurityConfig, a "auth,encryption" spec string, or None (defaults).
    security: Union[SecurityConfig, str, None] = None
    # FaultPlan, a path to a fault-plan JSON file, or None.
    faults: Union[FaultPlan, str, None] = None
    # ResilienceConfig, True (defaults), or None/False (off).
    resilience: Union[ResilienceConfig, bool, None] = None
    # Tracing: ``trace=True`` (or a trace_path) enables span collection;
    # the exported Chrome-trace JSON is written to ``trace_path``.
    trace: bool = False
    trace_path: Optional[str] = None
    trace_sample_rate: float = 1.0
    # Kernel profiling (top-K hottest event keys; ``profile.*`` metrics).
    profile: bool = False
    profile_top: int = 10
    # Builder-path extras: scheduler policy arm and any pilot-specific
    # factory kwargs (e.g. matopiba's rows/cols/probe_interval_s).
    scheduler_kind: Optional[str] = None
    pilot_kwargs: Dict[str, Any] = dataclass_field(default_factory=dict)
    # Chaos mode (see repro.faults.chaos).
    chaos: bool = False
    # Checkpoint/restore (see repro.core.checkpoint).  ``checkpoint``
    # writes a restorable checkpoint file during the run (every
    # ``checkpoint_every_s`` sim-seconds, or once at mid-run); ``restore``
    # ignores the build knobs above and resumes the checkpointed run.
    checkpoint: Optional[str] = None
    checkpoint_every_s: Optional[float] = None
    restore: Optional[str] = None
    # North-facing service layer (see repro.service): a RequestTrace (or
    # path to its JSON) replayed against the running pilot, and an
    # optional path for the canonical response log.
    serve_trace: Any = None
    serve_responses: Optional[str] = None
    # Durable history (see repro.store): a directory for the append-only
    # segment store behind ShortTermHistory.  None (default) constructs
    # nothing, keeping pinned fixtures byte-identical.
    store_dir: Optional[str] = None
    store_flush_s: float = 60.0
    store_segment_bytes: int = 4 * 1024 * 1024
    # Columnar compaction (see repro.store.columnar): drain sealed WAL
    # segments into zone-mapped chunk files every this many sim-seconds
    # (None = no compaction), optionally applying retention caps —
    # drops are deterministic whole-chunk evictions at compaction time.
    store_compact_s: Optional[float] = None
    store_retention_age_s: Optional[float] = None
    store_retention_bytes: Optional[int] = None

    def trace_config(self) -> Optional[TraceConfig]:
        if not (self.trace or self.trace_path):
            return None
        return TraceConfig(sample_rate=self.trace_sample_rate)

    def resolved_security(self) -> Optional[SecurityConfig]:
        if isinstance(self.security, str):
            return parse_security_spec(self.security)
        return self.security

    def resolved_faults(self) -> Optional[FaultPlan]:
        if isinstance(self.faults, str):
            return FaultPlan.load(self.faults)
        return self.faults

    def resolved_serve_trace(self):
        if self.serve_trace is None:
            return None
        if isinstance(self.serve_trace, str):
            from repro.service.loadgen import RequestTrace

            return RequestTrace.load(self.serve_trace)
        return self.serve_trace

    def resolved_resilience(self) -> Optional[ResilienceConfig]:
        if self.resilience is True:
            return ResilienceConfig()
        if self.resilience is False:
            return None
        return self.resilience


@dataclass
class RunResult:
    """What :func:`run` hands back: the report plus live handles."""

    report: PilotReport
    # The finished PilotRunner — tracer, profiler, metrics, services.
    runner: Any = None
    # The ChaosRunResult when options.chaos was set (invariants, plan,
    # fingerprint); None for plain runs.
    chaos: Any = None
    # The NgsiService when options.serve_trace was set; None otherwise.
    service: Any = None


def run(options: RunOptions) -> RunResult:
    """Build, run and post-process one run per ``options``."""
    tracing = options.trace_config()
    serve_trace = options.resolved_serve_trace()
    if serve_trace is not None and (
        options.chaos or options.checkpoint is not None or options.restore is not None
    ):
        raise ValueError(
            "serve_trace is not supported with chaos, checkpoint or restore "
            "(the service pump is not part of the rebuild recipe)"
        )
    if options.store_dir is not None and (
        options.chaos or options.checkpoint is not None or options.restore is not None
    ):
        raise ValueError(
            "store_dir is not supported with chaos, checkpoint or restore "
            "(the store's flush pump is not part of the rebuild recipe)"
        )

    if options.restore is not None:
        from repro.core import checkpoint as _checkpoint

        restored = _checkpoint.restore(options.restore)
        report = _checkpoint.resume(restored)
        _write_trace(options, restored.runner)
        return RunResult(report=report, runner=restored.runner)

    if options.checkpoint is not None and options.chaos:
        raise ValueError(
            "checkpointing is not supported in chaos mode (the chaos "
            "harness owns the run loop)"
        )

    if options.chaos:
        from repro.faults.chaos import run_chaos as _run_chaos

        result = _run_chaos(
            options.seed,
            plan=options.resolved_faults(),
            tracing=tracing,
            profile=options.profile,
        )
        _write_trace(options, result.runner)
        return RunResult(report=result.report, runner=result.runner, chaos=result)

    recipe = None
    if options.config is not None:
        config = options.config
        # Apply overrides only when explicitly enabled: the untouched path
        # must construct exactly PilotRunner(config) for bit-identity with
        # the deprecated run_pilot shim.
        if tracing is not None or options.profile:
            config = dataclasses.replace(
                config,
                tracing=tracing if tracing is not None else config.tracing,
                profile=options.profile or config.profile,
            )
        runner = PilotRunner(config)
        if options.checkpoint is not None:
            from repro.core.checkpoint import RunRecipe

            recipe = RunRecipe(config=config)
    else:
        from repro.core.pilots import PILOT_BUILDERS

        builder = PILOT_BUILDERS.get(options.pilot)
        if builder is None:
            raise ValueError(
                f"unknown pilot {options.pilot!r}; choose from {sorted(PILOT_BUILDERS)}"
            )
        kwargs: Dict[str, Any] = {
            "seed": options.seed,
            "security": options.resolved_security(),
            "fault_plan": options.resolved_faults(),
            "resilience": options.resolved_resilience(),
            "tracing": tracing,
            "profile": options.profile,
        }
        if options.scheduler_kind is not None:
            kwargs["scheduler_kind"] = options.scheduler_kind
        kwargs.update(options.pilot_kwargs)
        runner = builder(**kwargs)
        if options.checkpoint is not None:
            from repro.core.checkpoint import RunRecipe

            # The kwargs are resolved values (dataclasses, not spec
            # strings), all picklable — the recipe rebuilds through the
            # same builder with the same inputs.
            recipe = RunRecipe(pilot=options.pilot, builder_kwargs=kwargs)

    if options.store_dir is not None:
        from repro.store.durable import attach_durable_history

        retention = None
        if (options.store_retention_age_s is not None
                or options.store_retention_bytes is not None):
            from repro.store.columnar import RetentionConfig, RetentionPolicy

            retention = RetentionConfig(default=RetentionPolicy(
                max_age_s=options.store_retention_age_s,
                max_bytes=options.store_retention_bytes,
            ))
        attach_durable_history(
            runner, options.store_dir,
            flush_interval_s=options.store_flush_s,
            max_segment_bytes=options.store_segment_bytes,
            compact_interval_s=options.store_compact_s,
            retention=retention,
        )

    service = None
    if serve_trace is not None:
        from repro.service.loadgen import schedule_trace
        from repro.service.app import NgsiService

        service = NgsiService(
            runner.sim, runner.context, runner.history, runner.security
        )
        schedule_trace(service, serve_trace)

    if options.checkpoint is not None:
        from repro.core.checkpoint import run_with_checkpoints

        horizon_s = (
            runner.sim.now + options.days * DAY
            if options.days is not None
            else runner.season_end_s
        )
        report = run_with_checkpoints(
            runner, recipe, horizon_s,
            options.checkpoint, every_s=options.checkpoint_every_s,
        )
    elif options.days is not None:
        runner.run_days(options.days)
        report = runner.report()
    else:
        report = runner.run_season()
    _write_trace(options, runner)
    if service is not None and options.serve_responses:
        with open(options.serve_responses, "w", encoding="utf-8") as fh:
            fh.write(service.response_log())
            fh.write("\n")
    return RunResult(report=report, runner=runner, service=service)


def _write_trace(options: RunOptions, runner) -> None:
    """Write the Chrome-trace export, if requested."""
    if options.trace_path:
        import json

        with open(options.trace_path, "w", encoding="utf-8") as fh:
            json.dump(runner.tracer.chrome_trace(), fh, indent=1)
            fh.write("\n")
