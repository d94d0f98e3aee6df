"""The single run entrypoint: one typed options object, one function.

:class:`RunOptions` carries every knob and :func:`run` interprets it, so
the CLI, notebooks and tests all drive the same code path.  Each
run-level option is a :class:`~repro.core.pilot.PilotConfig` field, and
the runner is built from one :class:`~repro.core.checkpoint.RunRecipe`,
so a checkpoint restore rebuilds whatever the run selected.  One
combination is refused: ``store_dir`` with ``checkpoint`` or
``restore``, because the replay would append the store's records a
second time.

Bit-identity contract: ``run(RunOptions(config=cfg))`` builds exactly
``PilotRunner(cfg)`` — no option is folded into an explicit config
unless the caller set it, so reports stay bit-identical to the
historical ``run_pilot`` outputs.  With ``serve_trace`` and
``store_dir`` unset nothing service- or store-related is constructed, so
pinned fixtures are untouched.

:func:`run` writes no run artifacts: the Chrome trace, response log and
metrics snapshot are read off the returned handles (``result.runner``,
``result.service``) by whoever wants them on disk — the CLI does.
"""

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Optional

from repro.core import checkpoint
from repro.core.pilot import PilotConfig, PilotReport
from repro.core.pilots import PILOT_BUILDERS
from repro.core.security_profile import SecurityConfig
from repro.simkernel.clock import DAY
from repro.faults.plan import FaultPlan
from repro.resilience import ResilienceConfig
from repro.store.durable import StoreConfig
from repro.telemetry.tracing import TraceConfig

__all__ = ["RunOptions", "RunResult", "run"]


@dataclass
class RunOptions:
    """Everything a run needs, in one typed object.

    Either ``config`` is the :class:`PilotConfig` to run, or ``pilot``
    names the factory that builds one from the knobs below.  The tracing,
    profiling, store and service options become config fields only when
    set, so ``RunOptions(config=cfg)`` builds exactly ``PilotRunner(cfg)``.
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
    # Checkpoint/restore (see repro.core.checkpoint).  ``checkpoint``
    # writes a restorable checkpoint file during the run (every
    # ``checkpoint_every_s`` sim-seconds, or once at mid-run); ``restore``
    # ignores every build knob and resumes the checkpointed run, whose
    # recipe rebuilds what it selected.
    checkpoint: Optional[str] = None
    checkpoint_every_s: Optional[float] = None
    restore: Optional[str] = None
    # North-facing service layer (see repro.service): a RequestTrace
    # replayed against the running pilot (PilotConfig.serve_trace);
    # ``result.service`` holds the response log.
    serve_trace: Any = None
    # Durable history (see repro.store): a directory for the append-only
    # segment store behind ShortTermHistory.  None (default) constructs
    # nothing, keeping pinned fixtures byte-identical.  With the five
    # settings below it becomes PilotConfig.store, a StoreConfig.
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
    # ``runner.service``: the NgsiService when the run replayed a
    # serve_trace, restored runs included; None otherwise.
    service: Any = None


def run(options: RunOptions) -> RunResult:
    """Build, run and post-process one run per ``options``."""
    if options.store_dir is not None and (
        options.checkpoint is not None or options.restore is not None
    ):
        raise ValueError(
            "store_dir is not supported with checkpoint or restore: replaying "
            "the run to its barrier would append the store's records a "
            "second time"
        )

    if options.restore is not None:
        restored = checkpoint.restore(options.restore)
        report = checkpoint.resume(restored)
        runner = restored.runner
        return RunResult(report=report, runner=runner, service=runner.service)

    # Only the options that are set, so that an explicit config without
    # them builds exactly PilotRunner(config).
    overrides: Dict[str, Any] = {}
    tracing = options.trace_config()
    if tracing is not None:
        overrides["tracing"] = tracing
    if options.profile:
        overrides["profile"] = True
    if options.store_dir is not None:
        overrides["store"] = StoreConfig(
            root=options.store_dir,
            flush_interval_s=options.store_flush_s,
            max_segment_bytes=options.store_segment_bytes,
            compact_interval_s=options.store_compact_s,
            retention_age_s=options.store_retention_age_s,
            retention_bytes=options.store_retention_bytes,
        )
    if options.serve_trace is not None:
        overrides["serve_trace"] = options.serve_trace

    if options.config is not None:
        config = options.config
        if overrides:
            config = dataclasses.replace(config, **overrides)
        recipe = checkpoint.RunRecipe(config=config)
    else:
        if options.pilot not in PILOT_BUILDERS:
            raise ValueError(
                f"unknown pilot {options.pilot!r}; choose from {sorted(PILOT_BUILDERS)}"
            )
        # Plain picklable values: a restore rebuilds through the same
        # builder with the same inputs.
        kwargs: Dict[str, Any] = {
            "seed": options.seed,
            "security": options.security,
            "fault_plan": options.faults,
            "resilience": options.resilience,
            **overrides,
            **options.pilot_kwargs,
        }
        recipe = checkpoint.RunRecipe(pilot=options.pilot, builder_kwargs=kwargs)
    runner = recipe.build()

    if options.checkpoint is not None:
        horizon_s = (
            runner.sim.now + options.days * DAY
            if options.days is not None
            else runner.season_end_s
        )
        report = checkpoint.run_with_checkpoints(
            runner, recipe, horizon_s,
            options.checkpoint, every_s=options.checkpoint_every_s,
        )
    elif options.days is not None:
        runner.run_days(options.days)
        report = runner.report()
    else:
        report = runner.run_season()
    return RunResult(report=report, runner=runner, service=runner.service)
