"""One fleet shard: a single farm simulated to completion in segments.

A shard wraps one :class:`~repro.core.pilot.PilotRunner` and drives it
with :meth:`~repro.simkernel.simulator.Simulator.run_until` to successive
epoch barriers.  At each barrier it drains a :class:`ShardSyncBatch` —
the *delta* of fog→cloud sync progress (and cloud-side ingest) since the
previous barrier — which is what crosses the shard boundary to the merge
layer.  Everything here is picklable: tasks go down to worker processes,
results come back.
"""

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional

from repro.fleet.options import FleetError
from repro.simkernel.clock import DAY
from repro.simkernel.rng import derive_seed


@dataclass
class ShardTask:
    """A picklable work order: build this farm, run it, report back."""

    index: int
    name: str
    pilot: str
    kwargs: Dict[str, Any]
    #: The shard's own kernel seed (already derived from the fleet seed).
    seed: int
    days: Optional[float]
    epoch_s: float


@dataclass
class ShardSyncBatch:
    """Fog→cloud sync-progress delta for one shard over one epoch."""

    shard: int
    name: str
    epoch: int
    time_s: float
    updates_captured: int = 0
    updates_synced: int = 0
    batches_acked: int = 0
    measures_processed: int = 0


@dataclass
class ShardResult:
    """Everything a finished shard sends back to the merge layer."""

    index: int
    name: str
    #: ``dataclasses.asdict(PilotReport)`` — plain dict, stays picklable
    #: and trivially comparable across executors.
    report: Dict[str, Any]
    batches: List[ShardSyncBatch] = dataclass_field(default_factory=list)
    events_executed: int = 0
    wall_time_s: float = 0.0


class ShardExecution:
    """Drives one shard's runner through its epoch barriers."""

    def __init__(self, task: ShardTask) -> None:
        from repro.core.pilots import PILOT_BUILDERS

        builder = PILOT_BUILDERS.get(task.pilot)
        if builder is None:
            raise FleetError(f"unknown pilot {task.pilot!r} in shard {task.name!r}")
        self.task = task
        self.runner = builder(seed=task.seed, **task.kwargs)
        self.horizon_s = (
            task.days * DAY if task.days is not None else self.runner.season_end_s
        )
        self.batches: List[ShardSyncBatch] = []
        self._last_counts = (0, 0, 0, 0)
        self.runner.start_season()

    def barriers(self) -> List[float]:
        """The epoch barriers strictly inside this shard's run."""
        out: List[float] = []
        t = self.task.epoch_s
        while t < self.horizon_s:
            out.append(t)
            t += self.task.epoch_s
        return out

    def _counts(self) -> tuple:
        runner = self.runner
        replicator = runner.replicator
        return (
            replicator.updates_captured if replicator else 0,
            replicator.updates_synced if replicator else 0,
            replicator.batches_acked if replicator else 0,
            runner.agent.stats.measures_processed,
        )

    def drain(self, epoch: int) -> ShardSyncBatch:
        """Capture the sync-progress delta since the previous drain."""
        counts = self._counts()
        delta = tuple(now - prev for now, prev in zip(counts, self._last_counts))
        self._last_counts = counts
        batch = ShardSyncBatch(
            shard=self.task.index,
            name=self.task.name,
            epoch=epoch,
            time_s=self.runner.sim.now,
            updates_captured=delta[0],
            updates_synced=delta[1],
            batches_acked=delta[2],
            measures_processed=delta[3],
        )
        self.batches.append(batch)
        return batch

    def advance_to(self, barrier_s: float, epoch: int) -> ShardSyncBatch:
        """Run to the barrier and drain the epoch delta."""
        self.runner.sim.run_until(barrier_s)
        return self.drain(epoch)

    def finish(self) -> ShardResult:
        """Run the final segment to the horizon and build the result."""
        import dataclasses

        self.runner.sim.run(until=self.horizon_s)
        self.drain(len(self.batches))
        sim = self.runner.sim
        return ShardResult(
            index=self.task.index,
            name=self.task.name,
            report=dataclasses.asdict(self.runner.report()),
            batches=self.batches,
            events_executed=sim.events_executed,
            wall_time_s=sim.wall_time_s,
        )


def run_shard(task: ShardTask) -> ShardResult:
    """Execute one shard start to finish (the worker-process entrypoint).

    Module-level and driven purely by the picklable task, so
    ``multiprocessing.Pool.map`` can ship it to spawn-context workers.
    """
    execution = ShardExecution(task)
    for epoch, barrier in enumerate(execution.barriers()):
        execution.advance_to(barrier, epoch)
    return execution.finish()


def make_tasks(options) -> List[ShardTask]:
    """Expand :class:`~repro.fleet.options.FleetOptions` into shard tasks.

    Each shard's seed is derived from the fleet seed and the shard's
    index *and* name, so reordering or renaming farms changes only the
    affected shards and two same-named farms at different indices still
    get independent streams.
    """
    tasks: List[ShardTask] = []
    for index, farm in enumerate(options.farms):
        name = farm.name or f"{farm.pilot}-{index}"
        tasks.append(
            ShardTask(
                index=index,
                name=name,
                pilot=farm.pilot,
                kwargs=dict(farm.kwargs),
                seed=derive_seed(options.seed, f"shard:{index}:{name}"),
                days=options.days,
                epoch_s=options.epoch_days * DAY,
            )
        )
    return tasks
