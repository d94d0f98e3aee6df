"""One fleet shard: a single farm simulated to completion in segments.

:func:`run_shard` builds one :class:`~repro.core.pilot.PilotRunner` and
drives it with :meth:`~repro.simkernel.simulator.Simulator.run_until` to
successive epoch barriers.  At each barrier it drains a
:class:`ShardSyncBatch` — the *delta* of fog→cloud sync progress (and
cloud-side ingest) since the previous barrier — which is what crosses the
shard boundary to the merge layer.  Everything here is picklable: tasks
go down to worker processes, results come back.
"""

import dataclasses
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


def run_shard(task: ShardTask) -> ShardResult:
    """Execute one shard start to finish (the worker-process entrypoint).

    Builds the farm, runs it to each epoch barrier and drains that
    epoch's sync-progress delta, then runs to the horizon.  Module-level
    and driven purely by the picklable task, so ``multiprocessing.Pool.map``
    can ship it to spawn-context workers.
    """
    from repro.core.pilots import PILOT_BUILDERS

    builder = PILOT_BUILDERS.get(task.pilot)
    if builder is None:
        raise FleetError(f"unknown pilot {task.pilot!r} in shard {task.name!r}")
    runner = builder(seed=task.seed, **task.kwargs)
    sim = runner.sim
    horizon_s = task.days * DAY if task.days is not None else runner.season_end_s
    batches: List[ShardSyncBatch] = []
    last = (0, 0, 0, 0)

    def drain() -> None:
        nonlocal last
        replicator = runner.replicator
        counts = (
            replicator.updates_captured if replicator else 0,
            replicator.updates_synced if replicator else 0,
            replicator.batches_acked if replicator else 0,
            runner.agent.stats.measures_processed,
        )
        delta = [now - prev for now, prev in zip(counts, last)]
        last = counts
        batches.append(ShardSyncBatch(
            shard=task.index, name=task.name, epoch=len(batches),
            time_s=sim.now, updates_captured=delta[0], updates_synced=delta[1],
            batches_acked=delta[2], measures_processed=delta[3],
        ))

    runner.start_season()
    barrier = task.epoch_s
    while barrier < horizon_s:
        sim.run_until(barrier)
        drain()
        barrier += task.epoch_s
    sim.run(until=horizon_s)
    drain()
    return ShardResult(
        index=task.index,
        name=task.name,
        report=dataclasses.asdict(runner.report()),
        batches=batches,
        events_executed=sim.events_executed,
        wall_time_s=sim.wall_time_s,
    )


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
