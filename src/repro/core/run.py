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

:func:`run` writes no run artifacts: the Chrome trace, response log and
metrics snapshot are read off the returned handles (``result.runner``,
``result.service``) by whoever wants them on disk — the CLI does.
"""

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Optional

from repro.core.pilot import PilotConfig, PilotReport, PilotRunner
from repro.core.security_profile import SecurityConfig
from repro.simkernel.clock import DAY
from repro.faults.plan import FaultPlan
from repro.resilience import ResilienceConfig
from repro.telemetry.tracing import TraceConfig

__all__ = ["RunOptions", "RunResult", "run"]


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
    # None keeps each layer's default (security off, no faults,
    # resilience off).
    security: Optional[SecurityConfig] = None
    faults: Optional[FaultPlan] = None
    resilience: Optional[ResilienceConfig] = None
    # Tracing: ``trace=True`` enables span collection on the runner's
    # tracer (export it with ``result.runner.tracer.chrome_trace()``).
    trace: bool = False
    trace_sample_rate: float = 1.0
    # Kernel profiling (``profile.*`` metrics, ``runner.profiler``).
    profile: bool = False
    # Builder-path extras: any pilot-specific factory kwargs (e.g.
    # scheduler_kind, or matopiba's rows/cols/probe_interval_s).
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
    # North-facing service layer (see repro.service): a RequestTrace
    # replayed against the running pilot; ``result.service`` holds the
    # response log.
    serve_trace: Any = None
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
        if not self.trace:
            return None
        return TraceConfig(sample_rate=self.trace_sample_rate)


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
    if options.serve_trace is not None and (
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
            plan=options.faults,
            tracing=tracing,
            profile=options.profile,
        )
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
            "security": options.security,
            "fault_plan": options.faults,
            "resilience": options.resilience,
            "tracing": tracing,
            "profile": options.profile,
        }
        kwargs.update(options.pilot_kwargs)
        runner = builder(**kwargs)
        if options.checkpoint is not None:
            from repro.core.checkpoint import RunRecipe

            # The kwargs are plain picklable values — the recipe
            # rebuilds through the same builder with the same inputs.
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
    if options.serve_trace is not None:
        from repro.service.loadgen import schedule_trace
        from repro.service.app import NgsiService

        service = NgsiService(
            runner.sim, runner.context, runner.history, runner.security
        )
        schedule_trace(service, options.serve_trace)

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
    return RunResult(report=report, runner=runner, service=service)
