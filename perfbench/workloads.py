"""The benchmark's three workloads, built and driven through public calls.

* ``season``: the secured MATOPIBA pilot (6x6 VRI, 36 probes every
  30 min, mobile fog, ``auth,encryption``) run for whole sim-days.
  Transport and crypto do most of the work; service and store are not
  built, so this workload is their bypass.
* ``service``: E19's four-tenant ``standard_trace`` replayed against the
  same secured pilot after a one-sim-day warm-up.  Each arrival is a
  kernel event that calls ``NgsiService.handle()``, the synchronous path
  (no pump), while the pilot's ingest keeps invalidating the cache.  In
  host time this is one closed-loop caller, so latencies exclude
  queueing; sim-time queueing is a modelled statistic inside the digest.
* ``store``: durable history on the platform's default store settings
  (4 MiB segments, 60 s flush barrier, hourly compaction, 512-sample
  blocks).  Every sim-minute 36 parcels x 2 attributes are written
  through ``ContextBroker.update_attributes``; at a fixed sim interval a
  seeded ``HistoryQuery`` is read with ``source="auto"`` (columnar) and
  checked against ``source="memory"`` outside the timed call.

A workload has ``inputs(seed, quick)`` (generated before anything is
timed), ``setup(inputs, work_dir)`` (timed as ``setup_s``),
``run(platform, inputs, clock, verify)`` (the timed phase; ``clock`` is
a :class:`layers.LayerClock` on traced runs, else None; ``verify`` adds
the checks that cost seconds, made on the first ``verify_reps`` untraced
repetitions) and ``teardown(platform)``.
"""

import dataclasses
import gc
import hashlib
import json
import os
import random
import shutil
import time
import types

from repro.context.broker import ContextBroker
from repro.context.history import HOUR_S, MINUTE_S, HistoryQuery, ShortTermHistory
from repro.core.pilots import build_matopiba_pilot
from repro.core.security_profile import SecurityConfig
from repro.service.app import NgsiService
from repro.service.http import Request
from repro.service.loadgen import standard_trace
from repro.simkernel.clock import DAY, HOUR, MINUTE
from repro.simkernel.simulator import Simulator
from repro.store.durable import attach_durable_history

from layers import layer_table
from pace import probe

FARM = "matopiba"
PARCELS = [f"urn:AgriParcel:{FARM}:{r}-{c}" for r in range(6) for c in range(6)]


@dataclasses.dataclass
class Phase:
    """What one timed phase measured and checked."""

    #: Host time of the timed calls that advanced the simulation.
    wall_s: float = 0.0
    sim_days: float = 0.0
    #: History samples written during the phase.
    samples: int = 0
    #: Call index -> host seconds of the workload's timed public call,
    #: and the segment it ran in.  Every repetition replays the same
    #: calls, so the indices line up.
    latencies: dict = dataclasses.field(default_factory=dict)
    call_segments: dict = dataclasses.field(default_factory=dict)
    #: Host seconds of each ``TimedPhase.advance``, in order: without the
    #: benchmark's own checks, and without the store workload's reads.
    segments: list = dataclasses.field(default_factory=list)
    write_segments: list = dataclasses.field(default_factory=list)
    #: Host seconds of ``pace.probe`` right before each segment.
    probes: list = dataclasses.field(default_factory=list)
    #: Host time of the store workload's read events (not the write side).
    read_s: float = 0.0
    #: Host time of the benchmark's own checks inside the timed calls.
    check_s: float = 0.0
    digest: str = ""
    attempted: int = 0
    #: Operations that failed a correctness check.
    failures: list = dataclasses.field(default_factory=list)
    success_ok: int = 0
    success_total: int = 0
    #: Counts taken from outside the boundaries (see layers.layer_metrics).
    extras: dict = dataclasses.field(default_factory=dict)
    #: Traced runs only: the frozen layer clock, layer -> self seconds,
    #: and the self seconds' sum over ``wall_s``.
    clock: object = None
    self_times: dict = None
    closure: float = 0.0
    #: Facts printed beside the metrics.
    notes: dict = dataclasses.field(default_factory=dict)

    def record_call(self, index, seconds):
        """Record timed call ``index``, made in the latest segment."""
        self.latencies[index] = seconds
        self.call_segments[index] = len(self.probes) - 1


class TimedPhase:
    """Brackets a timed phase; only :meth:`advance` calls are timed.

    On traced runs the layer clock is reset when the phase starts
    (set-up work done under the wrappers is not charged) and frozen when
    it ends, so later reads and recovery in the same repetition leave the
    table alone.  ``count_samples`` runs untimed, before and after.
    """

    def __init__(self, sim, clock, phase, advance, count_samples):
        self.sim = sim
        self.clock = clock
        self.phase = phase
        self._advance = advance
        self._count_samples = count_samples

    def __enter__(self):
        gc.collect()
        self._samples = self._count_samples()
        self._at = self.sim.now
        self._sim_wall = self.sim.wall_time_s
        if self.clock is not None:
            self.sim.profiler = self.clock
            self.clock.reset()
        return self

    def advance(self, until):
        """Run the simulation to ``until``; returns the host seconds taken.

        The host's pace is probed first, outside the timed interval.
        """
        phase = self.phase
        phase.probes.append(probe())
        check_s, read_s = phase.check_s, phase.read_s
        started = time.perf_counter()
        self._advance(until)
        elapsed = time.perf_counter() - started
        phase.wall_s += elapsed
        phase.segments.append(elapsed - (phase.check_s - check_s))
        phase.write_segments.append(elapsed - (phase.read_s - read_s))
        return elapsed

    def __exit__(self, *exc):
        phase = self.phase
        if self.clock is not None:
            self.clock.suspended = True
            self.sim.profiler = None
            phase.clock = self.clock
            phase.self_times, phase.closure = layer_table(
                self.clock, self.sim.wall_time_s - self._sim_wall, phase.wall_s)
        phase.sim_days = (self.sim.now - self._at) / DAY
        phase.samples = self._count_samples() - self._samples
        return False


def _digest(payload):
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _secured_pilot(seed):
    """The MATOPIBA pilot with the paper's required auth and encryption."""
    return build_matopiba_pilot(
        seed=seed, security=SecurityConfig(auth=True, encryption=True)
    )


def _devices(runner):
    devices = [runner.pump, runner.flow_meter, runner.weather_station,
               *runner.probes.values(), *runner.valves.values()]
    return devices + [d for d in (runner.pivot, runner.drone) if d is not None]


def _pilot_counts(runner):
    links = runner.net.links.values()
    return {
        "devices.readings": sum(d.sent_reports for d in _devices(runner)),
        "fog.synced": runner.replicator.updates_synced if runner.replicator else 0,
        "link.sent": sum(link.stats.sent for link in links),
        "link.delivered": sum(link.stats.delivered for link in links),
        "measures": runner.agent.stats.measures_processed,
    }


def _pilot_samples(runner):
    """A counter of history samples held by the pilot's fog and cloud tiers."""
    histories = [runner.history]
    if runner.cloud is not None and runner.cloud.history is not runner.history:
        histories.append(runner.cloud.history)

    def count():
        return sum(
            len(history.read(HistoryQuery(entity_id, attr), source="memory").rows)
            for history in histories
            for entity_id, attr in history.tracked_series()
        )
    return count


def _delta(after, before):
    return {key: after[key] - before[key] for key in after}


class Season:
    name = "season"
    #: Its checks are cheap and run on every repetition.
    verify_reps = 0

    def inputs(self, seed, quick):
        return {"seed": seed, "days": 2 if quick else 10}

    def setup(self, inputs, work_dir):
        return _secured_pilot(inputs["seed"])

    def run(self, runner, inputs, clock, verify):
        days = inputs["days"]
        phase = Phase()
        before = _pilot_counts(runner)
        with TimedPhase(runner.sim, clock, phase, runner.run_until,
                        _pilot_samples(runner)) as timed:
            for hour in range(1, days * 24 + 1):
                phase.record_call(hour, timed.advance(hour * HOUR))
        counts = _delta(_pilot_counts(runner), before)
        report = runner.report()
        phase.digest = _digest(json.dumps(dataclasses.asdict(report), sort_keys=True))
        agent = runner.agent.stats
        updates = runner.context.metrics.updates
        expected = agent.measures_processed + agent.commands_sent + agent.command_acks
        if report.decision_cycles != days:
            phase.failures.append(
                f"{report.decision_cycles} decision cycles in {days} sim-days")
        if updates != expected:
            phase.failures.append(
                f"context saw {updates} updates, agent accounts for {expected}")
        phase.attempted = counts["devices.readings"]
        phase.success_ok = counts["measures"]
        phase.success_total = counts["devices.readings"]
        phase.extras = dict(counts, **{"store.disk_bytes_per_sample": 0.0})
        phase.notes["measures"] = counts["measures"]
        phase.notes["events"] = runner.sim.events_executed
        return phase

    def teardown(self, runner):
        pass


def _over_quota(trace):
    """Tenants whose mean arrival rate exceeds their quota window."""
    duration = max(trace.duration_s, 1.0)
    arrivals = {}
    for request in trace.requests:
        arrivals[request.tenant] = arrivals.get(request.tenant, 0) + 1
    return {
        spec.name for spec in trace.tenants
        if arrivals.get(spec.name, 0) / duration * spec.quota.window_s
        > spec.quota.max_requests_per_window
    }


class Service:
    name = "service"
    #: Two response digests, so their equality is checked.
    verify_reps = 2

    def inputs(self, seed, quick):
        duration = 10 * MINUTE if quick else 4 * HOUR
        trace = standard_trace(seed=seed, duration_s=duration, entity_ids=PARCELS,
                               farm=FARM)
        return {"seed": seed, "duration_s": duration, "trace": trace,
                "over_quota": _over_quota(trace)}

    def setup(self, inputs, work_dir):
        runner = _secured_pilot(inputs["seed"])
        service = NgsiService(runner.sim, runner.context, runner.history, runner.security)
        for spec in inputs["trace"].tenants:
            service.register_tenant(spec)
        runner.run_until(DAY)
        return types.SimpleNamespace(runner=runner, service=service)

    def run(self, platform, inputs, clock, verify):
        runner, service = platform.runner, platform.service
        sim = runner.sim
        duration = inputs["duration_s"]
        over_quota = inputs["over_quota"]
        phase = Phase()
        statuses = {}
        perf_counter = time.perf_counter
        counts = clock.counts if clock is not None else None

        def fire(index, trace_request):
            tenant = trace_request.tenant
            if clock is not None:
                clock.suspended = True
                token = service.tenant_token(tenant)
                clock.suspended = False
                introspects = counts["security.oauth.introspects"]
            else:
                token = service.tenant_token(tenant)
            request = Request(trace_request.method, trace_request.path,
                              dict(trace_request.params), trace_request.body, token)
            started = perf_counter()
            response = service.handle(request)
            elapsed = perf_counter() - started
            if clock is not None:
                counts["service.introspects_in_handle"] += (
                    counts["security.oauth.introspects"] - introspects)
            status = response.status
            if status != 429:
                phase.record_call(index, elapsed)
            key = (tenant, status)
            statuses[key] = statuses.get(key, 0) + 1

        start = sim.now
        for index, trace_request in enumerate(inputs["trace"].requests):
            sim.schedule_at(start + trace_request.at_s, fire, (index, trace_request),
                            label="bench:arrival")
        before = _pilot_counts(runner)
        with TimedPhase(sim, clock, phase, runner.run_until,
                        _pilot_samples(runner)) as timed:
            for minute in range(1, int(duration // MINUTE) + 1):
                timed.advance(start + minute * MINUTE)
        counts_delta = _delta(_pilot_counts(runner), before)
        if verify:
            phase.digest = service.response_log_digest()
        in_quota_total = in_quota_ok = server_errors = 0
        for (tenant, status), n in statuses.items():
            if status >= 500:
                server_errors += n
            if tenant not in over_quota:
                in_quota_total += n
                if 200 <= status < 300:
                    in_quota_ok += n
        phase.attempted = sum(statuses.values())
        for tenant in sorted(over_quota):
            if not statuses.get((tenant, 429)):
                phase.failures.append(f"over-quota tenant {tenant} got no 429")
        if in_quota_ok != in_quota_total:
            phase.failures.append(
                f"{in_quota_total - in_quota_ok} non-2xx answers to in-quota tenants")
        if server_errors:
            phase.failures.append(f"{server_errors} 5xx answers")
        phase.success_ok = in_quota_ok
        phase.success_total = in_quota_total
        phase.extras = dict(counts_delta, **{"store.disk_bytes_per_sample": 0.0})
        phase.notes["requests"] = phase.attempted
        phase.notes["cache_hit_rate"] = service.cache.hit_rate if service.cache else 0.0
        return phase

    def teardown(self, platform):
        pass


STORE_ATTRS = ("soilMoisture", "soilTemperature")
#: The store's timed phase advances this far per timed segment.
STORE_STEP_S = 5 * MINUTE
ROLLUP_METHODS = ("mean", "min", "max", "sum", "count")
#: The store's read shapes, taken in turn so every seed reads the same mix
#: at the same sim times; the seed picks the series and the parameters.
READ_KINDS = ("lastn", "raw", "rollup", "aggregate")


class Store:
    """Durable history under a steady write load and seeded reads.

    The preload is long enough for one WAL rotation and one compaction,
    so reads decode chunks as well as the WAL tail.  The timed phase
    spans the next WAL fill and the hourly compaction that drains it, so
    reads see the whole resident-tail sawtooth and the write side pays
    for a rotation and a compaction.  One read every 20 sim-minutes gives
    42 reads per repetition, at fixed sim times; a run reports each read's
    median over its repetitions.
    """

    name = "store"
    #: One crash recovery (about 2 s) is enough to audit it.
    verify_reps = 1

    def inputs(self, seed, quick):
        preload_s = 14 * HOUR
        phase_s = 1.5 * HOUR if quick else 14 * HOUR
        read_every_s = 10 * MINUTE if quick else 20 * MINUTE
        rng = random.Random(f"{seed}:store-writes")
        state = {e: [rng.uniform(0.15, 0.35), rng.uniform(18.0, 28.0)] for e in PARCELS}
        writes = []
        for _minute in range(int((preload_s + phase_s) // MINUTE) + 1):
            batch = []
            for entity_id in PARCELS:
                moisture, temperature = state[entity_id]
                moisture = min(0.45, max(0.05, moisture + rng.gauss(0.0, 0.002)))
                temperature = temperature + rng.gauss(0.0, 0.05)
                state[entity_id] = [moisture, temperature]
                batch.append((entity_id, round(moisture, 6), round(temperature, 4)))
            writes.append(batch)
        rng = random.Random(f"{seed}:store-reads")
        reads = []
        at = preload_s + read_every_s
        while at <= preload_s + phase_s:
            entity_id = rng.choice(PARCELS)
            attr = rng.choice(STORE_ATTRS)
            kind = READ_KINDS[len(reads) % len(READ_KINDS)]
            if kind == "lastn":
                query = HistoryQuery(entity_id, attr, last_n=rng.randint(10, 120))
            elif kind == "raw":
                query = HistoryQuery(entity_id, attr,
                                     since=at - rng.uniform(1.0, 12.0) * HOUR, until=at)
            elif kind == "rollup":
                query = HistoryQuery(entity_id, attr,
                                     since=at - rng.uniform(2.0, 24.0) * HOUR, until=at,
                                     period_s=HOUR_S, method=rng.choice(ROLLUP_METHODS))
            else:
                query = HistoryQuery(entity_id, attr, aggregate=True)
            reads.append((at, query))
            at += read_every_s
        return {"preload_s": preload_s, "phase_s": phase_s, "writes": writes,
                "reads": reads}

    def setup(self, inputs, work_dir):
        root = os.path.join(work_dir, "store")
        shutil.rmtree(root, ignore_errors=True)
        sim = Simulator(seed=0)
        broker = ContextBroker(sim)
        history = ShortTermHistory(broker, rollup_periods=(MINUTE_S, HOUR_S))
        for entity_id in PARCELS:
            broker.create_entity(entity_id, "AgriParcel")
        durability = attach_durable_history(
            types.SimpleNamespace(sim=sim, history=history), root,
            compact_interval_s=3600.0)

        def write(batch):
            for entity_id, moisture, temperature in batch:
                broker.update_attributes(
                    entity_id, {"soilMoisture": moisture, "soilTemperature": temperature})

        for minute, batch in enumerate(inputs["writes"]):
            sim.schedule_at(minute * MINUTE, write, (batch,), label="bench:write")
        sim.run_until(inputs["preload_s"])
        return types.SimpleNamespace(root=root, sim=sim, broker=broker, history=history,
                                     durability=durability)

    def run(self, platform, inputs, clock, verify):
        sim, history, durability = platform.sim, platform.history, platform.durability
        phase = Phase()
        latencies = phase.latencies
        answers = hashlib.sha256()
        mismatches = []
        perf_counter = time.perf_counter

        def read(index, query):
            started = perf_counter()
            result = history.read(query, source="auto")
            answered = perf_counter()
            if clock is not None:
                clock.suspended = True
            reference = history.read(query, source="memory")
            if clock is not None:
                clock.suspended = False
            if result.rows != reference.rows or result.stats != reference.stats:
                mismatches.append(query)
            answers.update(repr((result.rows, result.stats)).encode("utf-8"))
            phase.record_call(index, answered - started)
            finished = perf_counter()
            phase.read_s += finished - started
            phase.check_s += finished - answered

        for index, (at, query) in enumerate(inputs["reads"]):
            sim.schedule_at(at, read, (index, query), label="bench:read")
        preload_s = inputs["preload_s"]
        with TimedPhase(sim, clock, phase, sim.run_until,
                        lambda: durability.run_appended) as timed:
            for step in range(1, int(inputs["phase_s"] // STORE_STEP_S) + 1):
                timed.advance(preload_s + step * STORE_STEP_S)
        phase.digest = answers.hexdigest()
        total_samples = len(STORE_ATTRS) * sum(len(batch) for batch in inputs["writes"])
        disk_bytes = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _dirs, names in os.walk(platform.root) for name in names)
        store = durability.store
        bad_commits = store.failed_commits + store.deferred_commits
        if bad_commits:
            phase.failures.append(f"{bad_commits} failed or deferred commits")
        if mismatches:
            phase.failures.append(
                f"{len(mismatches)} reads differ from the in-memory answer")
        if verify:
            durability.crash_and_recover()
            if durability.lost_committed:
                phase.failures.append(
                    f"crash lost {durability.lost_committed} committed records")
            if not durability.prefix_consistent:
                phase.failures.append(
                    "recovered records are not a prefix of the accepted ones")
        phase.attempted = phase.samples + len(latencies)
        phase.success_ok = phase.attempted - bad_commits - len(mismatches)
        phase.success_total = phase.attempted
        phase.extras = {
            "devices.readings": 0, "fog.synced": 0, "link.sent": 0, "link.delivered": 0,
            "store.disk_bytes_per_sample": disk_bytes / total_samples,
        }
        phase.notes["reads"] = len(latencies)
        phase.notes["store_dir"] = os.path.relpath(platform.root)
        return phase

    def teardown(self, platform):
        platform.durability.store.close()
        shutil.rmtree(platform.root, ignore_errors=True)


BY_NAME = {w.name: w for w in (Season(), Service(), Store())}
