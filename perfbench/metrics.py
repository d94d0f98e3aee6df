"""Metric definitions of the platform benchmark, and the reasoning behind them.

Every workload reports every end-to-end metric, so each one is defined on
all three workloads:

* ``setup_s``: median time to build and warm the platform before the
  timed phase, over at least three set-ups, at the reference pace.  season = secured pilot
  build (key exchange, identity registration); service = that build,
  tenant registration and a one-sim-day warm-up; store = durable store
  and a 14 sim-hour history preload.  Input generation is excluded.
* ``peak_rss_mb``: max RSS of the process, which ran only this workload.
* ``success_share``: 1 - failed_share.  season: telemetry publishes that
  became a context update (the rest is modelled radio loss); service:
  2xx answers to in-quota tenants; store: samples and reads with no
  failed or deferred commit and no read differing from the in-memory
  answer.  A metric may not read 0, so the share that succeeded is
  reported rather than the share that failed.
* ``sim_days_per_s``: simulated days of the timed phase per host second
  of it (at the reference pace, see below), the benchmark's own checks
  excluded.  For the fixed service trace it is proportional to
  requests per second; for store it covers writes and reads together.
* ``ingest_per_s``: history samples written per host second of the
  write side (the timed phase minus the store workload's reads).
* ``call_p50_us`` and ``call_tail_us``: median and tail host time of the
  workload's timed public call.  season = ``PilotRunner.run_until`` one
  sim-hour ahead (p95 of 240 calls); service = ``NgsiService.handle()``
  on the ~17.9k requests admitted past quota (p99); store =
  ``ShortTermHistory.read(source="auto")`` (p95 of 42 reads, so two lie
  beyond it; each read is the median of its replays).

A run repeats its workload on a fresh platform and replays the same
inputs each time.  The timed phase is cut into segments (one sim-hour of
season, one sim-minute of service, five sim-minutes of store) and
``pace.probe`` is timed right before each.  Every segment and timed call
is rescaled to a reference pace (``pace.rescale``), then reduced to its
median over the repetitions; throughputs and percentiles are taken over
those medians.  A set-up is one call, so a timer probes the pace every
50 ms inside it (``pace.Sampler``).

The shared host these runs were tuned on changes speed by up to 2x from
one second to the next, in stretches that can outlast a run
(neighbouring load; process CPU time tracks wall time, so the slowdown
is real).  Over ten seeds, medians of raw wall time spread (quartile
distance over median) by 8-30% between runs minutes apart; at the
reference pace by 1.3-9.8% in loaded hours.  Raw set-up medians moved
by up to 1.9x between a calm and a loaded hour.

The workload-specific names a reader may look for (``req_p99_us``,
``read_p95_ms``, ...) are printed beside the metric that carries them
(``ALIASES``).

``PER_LAYER`` records, for every layer metric, which end-to-end metric on
which workload it should move and on which workloads it should stay flat.
A faster layer saves at most its share of the traced wall time, so the
``moves`` column is an upper bound, not a promise.

``BENCHMARK.json`` at the repository root carries the same names, units,
directions and bounds; the quick self-check (``run.py --quick``) fails
when the two disagree.
"""

import math

WORKLOADS = ("season", "service", "store")

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: Every timing keeps the largest bound allowed: the pace rescaling
#: removes most, not all, of the host's drift (see above).  Peak RSS
#: moves by a few percent with the seed; the success share repeats
#: within 0.3%.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "success_share": ("ratio", "higher", 0.01),
    "sim_days_per_s": ("sim-day/s", "higher", 0.25),
    "ingest_per_s": ("samples/s", "higher", 0.25),
    "call_p50_us": ("us", "lower", 0.25),
    "call_tail_us": ("us", "lower", 0.25),
}

#: Tail percentile of ``call_tail_us`` per workload.
TAIL_PERCENTILE = {"season": 95.0, "service": 99.0, "store": 95.0}

#: workload -> [(name, unit, value from (metrics, untraced phases))]: the
#: workload-specific names of these figures, printed beside the metrics.
ALIASES = {
    "season": [
        ("failed_share", "ratio", lambda m, phases: 1.0 - m["success_share"]),
    ],
    "service": [
        ("failed_share", "ratio", lambda m, phases: 1.0 - m["success_share"]),
        ("req_per_s", "req/s",
         lambda m, phases: m["sim_days_per_s"] * phases[0].attempted / phases[0].sim_days),
        ("req_p50_us", "us", lambda m, phases: m["call_p50_us"]),
        ("req_p99_us", "us", lambda m, phases: m["call_tail_us"]),
    ],
    "store": [
        ("failed_share", "ratio", lambda m, phases: 1.0 - m["success_share"]),
        ("read_p50_ms", "ms", lambda m, phases: m["call_p50_us"] / 1e3),
        ("read_p95_ms", "ms", lambda m, phases: m["call_tail_us"] / 1e3),
        ("disk_bytes_per_sample", "B",
         lambda m, phases: phases[0].extras["store.disk_bytes_per_sample"]),
    ],
}

#: name -> (unit, better, moves, flat on).  ``moves`` lists
#: (end-to-end metric, workload) pairs; ``flat`` lists workloads where a
#: change to this layer alone should leave every end-to-end metric flat.
PER_LAYER = {
    "simkernel.self_s": ("s", "lower", [("sim_days_per_s", "season")], ["store"]),
    "simkernel.events": ("count", "lower", [("sim_days_per_s", "season")], ["store"]),
    "network.self_s": ("s", "lower", [("sim_days_per_s", "season")], ["store"]),
    "network.transmits": ("count", "lower", [("sim_days_per_s", "season")], ["store"]),
    "network.delivery_ratio": ("ratio", "higher", [("success_share", "season")], ["store"]),
    "mqtt.self_s": ("s", "lower",
                    [("sim_days_per_s", "season"), ("sim_days_per_s", "service")],
                    ["store"]),
    "mqtt.packets": ("count", "lower", [("sim_days_per_s", "season")], ["store"]),
    "mqtt.timer_events": ("count", "lower",
                          [("sim_days_per_s", "season"), ("sim_days_per_s", "service")],
                          ["store"]),
    "devices.self_s": ("s", "lower", [("sim_days_per_s", "season")], ["service", "store"]),
    "devices.readings": ("count", "higher", [("ingest_per_s", "season")],
                         ["service", "store"]),
    "agents.self_s": ("s", "lower", [("sim_days_per_s", "season")], ["store"]),
    "agents.measures": ("count", "higher", [("success_share", "season")], ["store"]),
    "security.crypto.self_s": ("s", "lower", [("sim_days_per_s", "season")],
                               ["service", "store"]),
    "security.crypto.calls": ("count", "lower", [("sim_days_per_s", "season")],
                              ["service", "store"]),
    "security.auth.self_s": ("s", "lower",
                             [("call_p50_us", "service"), ("sim_days_per_s", "service")],
                             ["store"]),
    "security.pdp.self_s": ("s", "lower",
                            [("call_p50_us", "service"), ("sim_days_per_s", "service")],
                            ["store"]),
    "security.pdp.decisions": ("count", "lower", [("call_p50_us", "service")], ["store"]),
    "security.oauth.introspects_per_request": ("1/req", "lower",
                                               [("call_p50_us", "service")], ["store"]),
    "context.self_s": ("s", "lower",
                       [("sim_days_per_s", "season"), ("ingest_per_s", "store")], []),
    "context.updates": ("count", "higher", [("ingest_per_s", "store")], []),
    "context.query.self_s": ("s", "lower", [("call_tail_us", "service")], []),
    "history.ingest.self_s": ("s", "lower",
                              [("ingest_per_s", "store"), ("sim_days_per_s", "season")], []),
    "history.read.self_s": ("s", "lower", [("call_tail_us", "service")], []),
    "fog.self_s": ("s", "lower", [("sim_days_per_s", "season")], ["store"]),
    "fog.synced": ("count", "higher", [("sim_days_per_s", "season")], ["store"]),
    "store.append.self_s": ("s", "lower", [("ingest_per_s", "store")], ["season", "service"]),
    "store.commit.self_s": ("s", "lower", [("ingest_per_s", "store")], ["season", "service"]),
    "store.commits": ("count", "lower", [("ingest_per_s", "store")], ["season", "service"]),
    "store.compaction.self_s": ("s", "lower", [("ingest_per_s", "store")],
                                ["season", "service"]),
    "store.compacted_records": ("count", "higher", [("call_p50_us", "store")],
                                ["season", "service"]),
    "store.bytes_written_per_sample": ("B", "lower", [("ingest_per_s", "store")],
                                       ["season", "service"]),
    "store.disk_bytes_per_sample": ("B", "lower", [("ingest_per_s", "store")],
                                    ["season", "service"]),
    "store.read.self_s": ("s", "lower",
                          [("call_p50_us", "store"), ("call_tail_us", "store")],
                          ["season", "service"]),
    "store.read.wal_scan_s": ("s", "lower",
                              [("call_p50_us", "store"), ("call_tail_us", "store")],
                              ["season", "service"]),
    "store.read.chunk_decode_s": ("s", "lower",
                                  [("call_p50_us", "store"), ("call_tail_us", "store")],
                                  ["season", "service"]),
    "store.wal_records_per_read": ("count", "lower", [("call_p50_us", "store")],
                                   ["season", "service"]),
    "store.chunks_decoded_per_read": ("count", "lower", [("call_tail_us", "store")],
                                      ["season", "service"]),
    "store.scanned_per_row": ("ratio", "lower", [("call_p50_us", "store")],
                              ["season", "service"]),
    "service.self_s": ("s", "lower",
                       [("call_p50_us", "service"), ("sim_days_per_s", "service")],
                       ["season", "store"]),
    "service.handler.self_s": ("s", "lower", [("call_tail_us", "service")],
                               ["season", "store"]),
    "service.router.self_s": ("s", "lower", [("call_p50_us", "service")],
                              ["season", "store"]),
    "service.cache.self_s": ("s", "lower", [("call_p50_us", "service")],
                             ["season", "store"]),
    "service.cache.hit_rate": ("ratio", "higher", [("call_p50_us", "service")],
                               ["season", "store"]),
    "resilience.self_s": ("s", "lower", [("sim_days_per_s", "service")],
                          ["season", "store"]),
    "service.quota_rejected": ("count", "higher", [("success_share", "service")],
                               ["season", "store"]),
    "physics.self_s": ("s", "lower", [], list(WORKLOADS)),
    "irrigation.self_s": ("s", "lower", [], list(WORKLOADS)),
    "irrigation.cycles": ("count", "higher", [], list(WORKLOADS)),
    "bench.self_s": ("s", "lower", [], list(WORKLOADS)),
    "other.self_s": ("s", "lower", [], list(WORKLOADS)),
    "trace.wall_s": ("s", "lower", [], []),
    "trace.overhead_ratio": ("ratio", "lower", [], []),
}


def percentile(values, p):
    """Nearest-rank percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
