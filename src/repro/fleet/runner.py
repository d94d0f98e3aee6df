"""Fleet execution and deterministic merge.

:func:`run_fleet` expands the options into per-farm shard tasks, runs
them on an executor, and folds the shard results into one
:class:`FleetReport`.  The merge is seeded and order-stable: shard
results arrive in task order from every executor (``Pool.map`` preserves
input order; in-process, the shards run one after another in index
order), sync batches are folded sorted by ``(epoch, shard index)``, and
the fingerprint hashes a canonical JSON rendering that excludes
wall-clock and worker information — so the same seed yields the same
fingerprint on 1, 2 or 8 workers, in-process or multiprocessing.
"""

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List

from repro.fleet.options import FleetError, FleetOptions
from repro.fleet.shard import ShardResult, ShardSyncBatch, make_tasks, run_shard

#: Report fields averaged (not summed) in the fleet totals.
_MEAN_FIELDS = ("relative_yield",)
#: Report fields where the fleet total is the maximum across farms.
_MAX_FIELDS = ("season_days",)
#: Multiprocessing start method: "spawn" is deterministic and portable.
_START_METHOD = "spawn"


@dataclass
class FleetReport:
    """The merged view of one fleet run."""

    #: Per-farm ``PilotReport`` dicts, ordered by shard index.
    farms: List[Dict[str, Any]]
    #: Fleet-wide totals: numeric report fields summed across farms
    #: (``relative_yield`` averaged, ``season_days`` maxed).
    totals: Dict[str, Any]
    #: Cloud-side ingest per epoch: every shard's sync delta summed,
    #: ordered by epoch.
    cloud_epochs: List[Dict[str, Any]]
    #: Every cross-shard sync batch, ordered by ``(epoch, shard)``.
    batches: List[Dict[str, Any]]


@dataclass
class FleetResult:
    """What :func:`run_fleet` returns."""

    report: FleetReport
    #: sha256 over the canonical report JSON — the determinism witness.
    fingerprint: str
    shards: List[ShardResult] = dataclass_field(default_factory=list)
    #: Which executor actually ran ("inprocess" | "multiprocessing").
    executor: str = "inprocess"
    events_executed: int = 0
    wall_time_s: float = 0.0


def _merge(results: List[ShardResult]) -> FleetReport:
    farms = [r.report for r in results]
    totals: Dict[str, Any] = {}
    for report in farms:
        for key, value in report.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            totals[key] = totals.get(key, 0) + value
    for key in _MEAN_FIELDS:
        if key in totals and farms:
            totals[key] = totals[key] / len(farms)
    for key in _MAX_FIELDS:
        if key in totals:
            totals[key] = max(r.get(key, 0) for r in farms)
    totals["farms"] = len(farms)

    ordered: List[ShardSyncBatch] = sorted(
        (b for r in results for b in r.batches),
        key=lambda b: (b.epoch, b.shard),
    )
    batches = [dataclasses.asdict(b) for b in ordered]
    epochs: Dict[int, Dict[str, Any]] = {}
    for batch in ordered:
        fold = epochs.setdefault(
            batch.epoch,
            {"epoch": batch.epoch, "updates_captured": 0, "updates_synced": 0,
             "batches_acked": 0, "measures_processed": 0},
        )
        fold["updates_captured"] += batch.updates_captured
        fold["updates_synced"] += batch.updates_synced
        fold["batches_acked"] += batch.batches_acked
        fold["measures_processed"] += batch.measures_processed
    cloud_epochs = [epochs[k] for k in sorted(epochs)]
    return FleetReport(
        farms=farms, totals=totals, cloud_epochs=cloud_epochs, batches=batches
    )


def fleet_fingerprint(report: FleetReport) -> str:
    """sha256 over the canonical JSON of the merged report.

    Deliberately excludes wall-clock and worker info: the fingerprint
    asserts *simulation* state, which must not depend on how the shards
    were scheduled onto hardware.
    """
    canonical = json.dumps(dataclasses.asdict(report), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run_multiprocessing(tasks, options: FleetOptions) -> List[ShardResult]:
    from multiprocessing import get_context

    ctx = get_context(_START_METHOD)
    processes = min(options.workers, len(tasks))
    with ctx.Pool(processes=processes) as pool:
        return pool.map(run_shard, tasks, chunksize=1)


def run_fleet(options: FleetOptions) -> FleetResult:
    """Run every farm in ``options`` and merge the results."""
    options.validate()
    tasks = make_tasks(options)
    executor = options.executor
    if executor == "auto":
        executor = "multiprocessing" if options.workers > 1 else "inprocess"
    wall_started = time.perf_counter()
    if executor == "inprocess":
        results = [run_shard(task) for task in tasks]
    elif executor == "multiprocessing":
        results = _run_multiprocessing(tasks, options)
    else:  # pragma: no cover - validate() already rejected it
        raise FleetError(f"unknown executor {executor!r}")
    wall_time_s = time.perf_counter() - wall_started
    report = _merge(results)
    return FleetResult(
        report=report,
        fingerprint=fleet_fingerprint(report),
        shards=results,
        executor=executor,
        events_executed=sum(r.events_executed for r in results),
        wall_time_s=wall_time_s,
    )
