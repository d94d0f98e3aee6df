"""The single run entrypoint: one typed options object, one function.

:class:`RunOptions` says how to drive a run and carries the run-level
:class:`~repro.core.pilot.PilotConfig` fields under their own names, and
:func:`run` interprets it, so the CLI, notebooks and tests all drive the
same code path.  The runner is built from one
:class:`~repro.core.checkpoint.RunRecipe`, so a checkpoint restore
rebuilds whatever the run selected.  One combination is refused: a
durable ``store`` with ``checkpoint`` or ``restore``, because the replay
would append the store's records a second time.

Bit-identity contract: ``run(RunOptions(config=cfg))`` builds exactly
``PilotRunner(cfg)`` — no run field is folded into an explicit config
unless the caller set it, so reports stay bit-identical to the
historical ``run_pilot`` outputs.  With ``serve_trace`` and ``store``
unset nothing service- or store-related is constructed, so pinned
fixtures are untouched.

:func:`run` writes no run artifacts: the Chrome trace, response log and
metrics snapshot are read off the returned handles (``result.runner``,
``result.service``) by whoever wants them on disk — the CLI does.
"""

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Optional

from repro.core import checkpoint
from repro.core.pilot import PilotConfig, PilotReport
from repro.core.pilots import PILOT_BUILDERS, RUN_FIELDS
from repro.core.security_profile import SecurityConfig
from repro.simkernel.clock import DAY
from repro.faults.plan import FaultPlan
from repro.resilience import ResilienceConfig
from repro.service.loadgen import RequestTrace
from repro.store.durable import StoreConfig
from repro.telemetry.tracing import TraceConfig

__all__ = ["RunOptions", "RunResult", "run"]


@dataclass
class RunOptions:
    """Everything a run needs, in one typed object.

    The first group says how to drive the run: either ``config`` is the
    :class:`PilotConfig` to run, or ``pilot`` names the builder that
    makes one from ``pilot_kwargs``.  The second group is
    :data:`~repro.core.pilots.RUN_FIELDS`, the run-level ``PilotConfig``
    fields under their own names and types; ``None`` keeps the config's
    value or the builder's default, so ``RunOptions(config=cfg)`` builds
    exactly ``PilotRunner(cfg)``.
    """

    pilot: str = "matopiba"
    config: Optional[PilotConfig] = None
    # The named pilot's own builder parameters (e.g. scheduler_kind, or
    # matopiba's rows/cols/probe_interval_s); refused with ``config``.
    pilot_kwargs: Dict[str, Any] = dataclass_field(default_factory=dict)
    # Truncate the season to N days (None = full season).
    days: Optional[float] = None
    # Checkpoint/restore (see repro.core.checkpoint).  ``checkpoint``
    # writes a restorable checkpoint file during the run (every
    # ``checkpoint_every_s`` sim-seconds, or once at mid-run); ``restore``
    # ignores every build option and resumes the checkpointed run, whose
    # recipe rebuilds what it selected.
    checkpoint: Optional[str] = None
    checkpoint_every_s: Optional[float] = None
    restore: Optional[str] = None

    # The run fields: PilotConfig's own names and types, in RUN_FIELDS
    # order.  ``tracing`` enables span collection on the runner's tracer,
    # ``store`` puts a durable segment store behind the history and
    # ``serve_trace`` replays a RequestTrace against the running pilot
    # (``result.service`` holds the response log).
    seed: Optional[int] = None
    security: Optional[SecurityConfig] = None
    fault_plan: Optional[FaultPlan] = None
    resilience: Optional[ResilienceConfig] = None
    tracing: Optional[TraceConfig] = None
    profile: Optional[bool] = None
    store: Optional[StoreConfig] = None
    serve_trace: Optional[RequestTrace] = None


@dataclass
class RunResult:
    """What :func:`run` hands back: the report plus live handles."""

    report: PilotReport
    # The finished PilotRunner — tracer, profiler, metrics, services.
    runner: Any = None
    # ``runner.service``: the NgsiService when the run replayed a
    # serve_trace, restored runs included; None otherwise.
    service: Any = None


def _recipe(options: RunOptions) -> checkpoint.RunRecipe:
    """The recipe that builds the run: the run fields that are set go
    into the explicit config or the named pilot's builder kwargs."""
    fields = {
        name: getattr(options, name) for name in RUN_FIELDS
        if getattr(options, name) is not None
    }
    if options.config is not None:
        if options.pilot_kwargs:
            raise ValueError(
                "pilot_kwargs are a named pilot's builder parameters and are "
                "not used with config; set those fields on the PilotConfig"
            )
        config = dataclasses.replace(options.config, **fields) if fields else options.config
        return checkpoint.RunRecipe(config=config)
    if options.pilot not in PILOT_BUILDERS:
        raise ValueError(
            f"unknown pilot {options.pilot!r}; choose from {sorted(PILOT_BUILDERS)}"
        )
    shadowed = sorted(set(options.pilot_kwargs) & set(RUN_FIELDS))
    if shadowed:
        raise ValueError(
            f"pilot_kwargs sets the run field(s) {', '.join(shadowed)}; "
            "set them on RunOptions instead"
        )
    # Plain picklable values: a restore rebuilds through the same
    # builder with the same inputs.
    return checkpoint.RunRecipe(
        pilot=options.pilot, builder_kwargs={**fields, **options.pilot_kwargs})


def run(options: RunOptions) -> RunResult:
    """Build, run and post-process one run per ``options``."""
    if options.store is not None and (
        options.checkpoint is not None or options.restore is not None
    ):
        raise ValueError(
            "a durable store is not supported with checkpoint or restore: "
            "replaying the run to its barrier would append the store's "
            "records a second time"
        )

    if options.restore is not None:
        restored = checkpoint.restore(options.restore)
        report = checkpoint.resume(restored)
        runner = restored.runner
        return RunResult(report=report, runner=runner, service=runner.service)

    recipe = _recipe(options)
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
