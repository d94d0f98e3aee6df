"""Run-level checkpoint/restore: the one way to pause and resume a run.

A live :class:`~repro.core.pilot.PilotRunner` cannot be pickled: its
scheduled callbacks close over lambdas, its processes are generators and
some pilot configs carry closures (the canal/source-mix ``supply_gate``).
So a checkpoint does not try to serialize the runner.  It serializes two
things that *are* picklable:

* a :class:`RunRecipe` — how to build an identical runner from scratch
  (a pilot name plus resolved builder kwargs, or a picklable
  :class:`~repro.core.pilot.PilotConfig`), which selects every optional
  part the run had (faults, resilience, tracing, the service and its
  request trace), and
* a :class:`~repro.simkernel.snapshot.KernelSnapshot` — the kernel's
  deterministic-state *fingerprint* at the checkpoint barrier (clock,
  events executed, event-queue signature incl. the tie-break sequence
  numbers, every RNG stream's ``getstate`` tuple, trace counts) plus the
  run's wall time.

Restore rebuilds the runner from the recipe, replays deterministically
from time zero to the barrier with
:meth:`~repro.simkernel.simulator.Simulator.run_until`, then verifies the
rebuilt kernel's fingerprint against the snapshot.  Because the whole
stack is deterministic by construction, the replay reconverges exactly —
and if the code changed between snapshot and restore, the fingerprint
check fails loudly (:class:`CheckpointStateMismatch`) instead of silently
producing a different run.  The guarantee the tests pin down:
``restore(snapshot(t))`` then run-to-end is byte-identical to the
uninterrupted run.

A run with a durable store (``PilotConfig.store``) cannot be
checkpointed: the replay would append every record up to the barrier to
the store a second time, so :func:`snapshot` refuses it.
"""

import dataclasses
import pickle
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Optional

from repro.core.pilot import PilotConfig, PilotRunner
from repro.simkernel.errors import ReproError
from repro.simkernel.snapshot import KernelSnapshot, compare_fingerprints
from repro.store.segment import CorruptBlobError, read_sealed, write_sealed

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointStateMismatch",
    "RestoredRun",
    "RunCheckpoint",
    "RunRecipe",
    "load_checkpoint",
    "restore",
    "restore_and_resume",
    "resume",
    "run_with_checkpoints",
    "save_checkpoint",
    "snapshot",
]

#: Checkpoint file-format version; bump when the pickled shape changes.
#: Version 2: the kernel snapshot holds only the fingerprint and wall time.
CHECKPOINT_VERSION = 2


class CheckpointError(ReproError):
    """A checkpoint could not be written, read or rebuilt."""


class CheckpointStateMismatch(CheckpointError):
    """The factory replay did not reconverge on the snapshotted state.

    Almost always means the code (or an input the recipe does not
    capture) changed between snapshot and restore.
    """


@dataclass
class RunRecipe:
    """A picklable description of how to rebuild one runner from scratch.

    Exactly one mode applies: ``pilot`` named (rebuild through
    ``PILOT_BUILDERS[pilot](**builder_kwargs)``) or ``config`` set
    (rebuild as ``PilotRunner(config)`` — only for configs that pickle,
    i.e. without ``supply_gate`` closures).  :func:`~repro.core.run.run`
    builds every runner through one, checkpointed or not.
    """

    pilot: Optional[str] = None
    builder_kwargs: Dict[str, Any] = dataclass_field(default_factory=dict)
    config: Optional[PilotConfig] = None

    def build(self) -> PilotRunner:
        if self.config is not None:
            return PilotRunner(self.config)
        from repro.core.pilots import PILOT_BUILDERS

        builder = PILOT_BUILDERS.get(self.pilot)
        if builder is None:
            raise CheckpointError(
                f"unknown pilot {self.pilot!r} in checkpoint recipe; "
                f"choose from {sorted(PILOT_BUILDERS)}"
            )
        return builder(**self.builder_kwargs)


@dataclass
class RunCheckpoint:
    """One run frozen at a barrier: the recipe plus the kernel fingerprint."""

    version: int
    recipe: RunRecipe
    #: Simulation time of the checkpoint barrier.
    barrier_s: float
    #: Simulation time the run is headed for (``sim.run(until=horizon_s)``).
    horizon_s: float
    #: The kernel's fingerprint at the barrier, plus its wall time.
    kernel: KernelSnapshot


def snapshot(
    runner: PilotRunner,
    recipe: Optional[RunRecipe] = None,
    horizon_s: Optional[float] = None,
) -> RunCheckpoint:
    """Freeze ``runner`` at its current (paused) simulation time.

    Call between :meth:`~repro.core.pilot.PilotRunner.run_until` segments;
    the kernel must not be mid-event.
    """
    if runner.config.store is not None:
        raise CheckpointError(
            "a run with a durable store cannot be checkpointed: restoring it "
            "would append the store's records a second time"
        )
    if recipe is None:
        recipe = RunRecipe(config=runner.config)
    if horizon_s is None:
        horizon_s = runner.season_end_s
    return RunCheckpoint(
        version=CHECKPOINT_VERSION,
        recipe=recipe,
        barrier_s=runner.sim.now,
        horizon_s=horizon_s,
        kernel=runner.sim.snapshot(),
    )


def save_checkpoint(checkpoint: RunCheckpoint, path: str) -> None:
    """Write ``checkpoint`` to ``path`` as a sealed, checksummed blob.

    The full crash-safe barrier (temp file, flush, fsync, atomic rename,
    directory fsync — :func:`repro.store.segment.write_sealed`): a crash
    at any point leaves the previous checkpoint intact, and a torn write
    is *detected* at load by the blob's CRC instead of surfacing as a
    pickle of garbage.
    """
    try:
        payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint does not pickle ({exc!r}); pilots whose config "
            "carries closures (supply_gate) need a named-pilot RunRecipe"
        ) from exc
    write_sealed(path, payload)


def load_checkpoint(path: str) -> RunCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The blob is checksum-verified first: a file that is empty, torn
    mid-write, bit-flipped or not a sealed blob at all is rejected loudly
    (:class:`CheckpointError`), never unpickled.
    """
    try:
        payload = read_sealed(path)
    except CorruptBlobError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is torn or corrupt; refusing to "
            f"restore from it ({exc})"
        ) from exc
    checkpoint = pickle.loads(payload)
    if not isinstance(checkpoint, RunCheckpoint):
        raise CheckpointError(f"{path!r} does not contain a RunCheckpoint")
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {checkpoint.version} is not supported "
            f"(this build writes version {CHECKPOINT_VERSION})"
        )
    return checkpoint


@dataclass
class RestoredRun:
    """A rebuilt runner, verified and positioned at the checkpoint barrier."""

    runner: PilotRunner
    checkpoint: RunCheckpoint
    #: Wall seconds the replay itself took (not part of run accounting).
    replay_wall_s: float


def restore(source: Any) -> RestoredRun:
    """Rebuild a run from a checkpoint (path or :class:`RunCheckpoint`).

    Replays from time zero to the barrier and verifies the kernel
    fingerprint; raises :class:`CheckpointStateMismatch` when the replay
    diverged from the snapshotted state.  On success the runner's
    ``wall_time_s`` is overlaid with the original run's accumulated wall
    time, so throughput accounting survives the process boundary.
    """
    checkpoint = load_checkpoint(source) if isinstance(source, str) else source
    if not isinstance(checkpoint, RunCheckpoint):
        raise CheckpointError(f"cannot restore from {type(checkpoint).__name__}")
    runner = checkpoint.recipe.build()
    runner.start_season()
    runner.sim.run_until(checkpoint.barrier_s)
    replay_wall_s = runner.sim.wall_time_s
    problems = compare_fingerprints(
        checkpoint.kernel.fingerprint(), runner.sim.fingerprint()
    )
    if problems:
        raise CheckpointStateMismatch(
            "replay did not reconverge on the checkpointed state "
            "(code changed between snapshot and restore?): "
            + "; ".join(problems)
        )
    # The replay's own wall cost is diagnostic, not run accounting: the
    # restored run reports the original run's wall time up to the barrier.
    runner.sim.wall_time_s = checkpoint.kernel.wall_time_s
    return RestoredRun(runner=runner, checkpoint=checkpoint,
                       replay_wall_s=replay_wall_s)


def resume(restored: RestoredRun):
    """Run a restored run from its barrier to its horizon; return the report."""
    restored.runner.sim.run(until=restored.checkpoint.horizon_s)
    return restored.runner.report()


def restore_and_resume(path: str) -> Dict[str, Any]:
    """Restore from ``path``, run to the horizon, return the report as a dict.

    Module-level (hence importable from a fresh process) — the
    bit-identity tests run this in a spawned interpreter to prove the
    checkpoint carries everything the run needs.
    """
    report = resume(restore(path))
    return dataclasses.asdict(report)


def run_with_checkpoints(
    runner: PilotRunner,
    recipe: RunRecipe,
    horizon_s: float,
    path: str,
    every_s: Optional[float] = None,
):
    """Drive ``runner`` to ``horizon_s``, checkpointing to ``path`` en route.

    Barriers sit at multiples of ``every_s`` (strictly inside the run);
    without ``every_s`` a single checkpoint is taken at ``horizon_s / 2``.
    Each write overwrites ``path`` — the file always holds the latest
    barrier, which is what a crash-resume wants.  Returns the report.
    """
    if every_s is not None and every_s <= 0:
        raise CheckpointError(f"checkpoint interval must be positive, got {every_s!r}")
    if every_s is None:
        barriers = [horizon_s / 2.0]
    else:
        barriers = []
        t = every_s
        while t < horizon_s:
            barriers.append(t)
            t += every_s
    runner.start_season()
    for barrier in barriers:
        runner.sim.run_until(barrier)
        if runner.sim.stopped_reason is not None:
            break
        save_checkpoint(
            snapshot(runner, recipe=recipe, horizon_s=horizon_s), path
        )
    runner.sim.run(until=horizon_s)
    return runner.report()
