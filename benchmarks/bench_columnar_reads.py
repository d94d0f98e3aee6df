"""E21 — Columnar history reads: zone-map pruning, bit-identity, kill safety.

The columnar tentpole's contract, measured at full-season scale:

* **bit-identity**: every STH query shape (raw range, lastN, minute
  rollups, aggregate) answered from sealed chunk files plus the WAL tail
  is byte-for-byte the answer an unbounded in-memory oracle gives;
* **pruning**: bounded-window queries skip most on-disk blocks via the
  per-block zone maps without reading them — the scan touches a small
  fraction of the season, where ``rebuild_from_samples`` re-folds all
  of it;
* **kill safety**: a simulated kill at every compaction crash point
  (chunk seal, meta advance, retention meta) recovers with zero
  lost/duplicated committed samples and reads identical to the
  uninterrupted run.

Two entry points:

* pytest-benchmark (``python -m pytest benchmarks/bench_columnar_reads.py -s``);
* CLI (``python benchmarks/bench_columnar_reads.py [--smoke]``): ``--smoke``
  runs a reduced season and enforces the gates.
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

if __name__ == "__main__":  # allow `python benchmarks/bench_columnar_reads.py`
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
else:
    from _harness import print_table, record_rows, run_once

from repro.context.broker import ContextBroker
from repro.context.history import MINUTE_S, HistoryQuery, ShortTermHistory
from repro.simkernel.simulator import Simulator
from repro.store import (
    CompactionKilled,
    DurabilityService,
    RetentionConfig,
    RetentionPolicy,
    SegmentStore,
)

SEED = 42
EID = "urn:AgriParcel:matopiba:0-0"
ATTR = "soilMoisture"
SAMPLE_INTERVAL_S = 60.0
SEGMENT_BYTES = 16 * 1024
FLUSH_INTERVAL_S = 600.0
COMPACT_INTERVAL_S = 6 * 3600.0
KILL_STAGES = ("chunk_sealed", "meta_written", "retention_meta")
READ_HEADERS = ("query", "rows", "identical", "scanned", "pruned_blk",
                "scanned_blk", "col_ms", "mem_ms")
KILL_HEADERS = ("stage", "cut", "lost", "prefix_ok", "reads_identical")


def _rig(root, seed=SEED, retention=None, oracle_caps=True,
         compact_interval_s=COMPACT_INTERVAL_S):
    """Broker + history + durable store with compaction attached.

    The in-memory side doubles as the oracle, so its ring/bucket caps are
    raised beyond the season size — memory the columnar path never needs.
    """
    sim = Simulator(seed=seed)
    broker = ContextBroker(sim)
    caps = (dict(max_samples_per_series=2_000_000,
                 max_buckets_per_series=2_000_000) if oracle_caps else {})
    history = ShortTermHistory(broker, rollup_periods=(MINUTE_S,), **caps)
    broker.create_entity(EID, "AgriParcel")
    store = SegmentStore(root, max_segment_bytes=SEGMENT_BYTES)
    service = DurabilityService(
        sim, history, store, flush_interval_s=FLUSH_INTERVAL_S)
    service.start()
    compaction = service.enable_compaction(
        interval_s=compact_interval_s, retention=retention)
    return sim, broker, history, service, compaction


def _feed(sim, broker, n, start=0):
    for i in range(start, start + n):
        sim.run_until(sim.now + SAMPLE_INTERVAL_S)
        broker.update_attributes(EID, {ATTR: 0.2 + 0.01 * (i % 37)})


def _season_queries(season_s):
    day = 86400.0
    return [
        ("raw-window", HistoryQuery(EID, ATTR, since=season_s * 0.4,
                                    until=season_s * 0.4 + day)),
        ("lastN-60", HistoryQuery(EID, ATTR, last_n=60)),
        ("rollup-min-sum", HistoryQuery(EID, ATTR, period_s=MINUTE_S,
                                        method="sum")),
        ("rollup-window", HistoryQuery(EID, ATTR, period_s=MINUTE_S,
                                       method="mean", since=season_s * 0.6,
                                       until=season_s * 0.6 + day)),
        ("aggregate", HistoryQuery(EID, ATTR, aggregate=True)),
    ]


def read_comparison(workdir, days):
    """Feed a season, compact, answer every shape both ways; return rows."""
    samples = int(days * 86400.0 / SAMPLE_INTERVAL_S)
    root = os.path.join(workdir, "season")
    sim, broker, history, service, compaction = _rig(root)
    _feed(sim, broker, samples)
    service.flush_now()
    compaction.compact_once()

    season_s = sim.now
    rows, failures = [], []
    for name, query in _season_queries(season_s):
        t0 = time.perf_counter()
        col = history.read(query, source="columnar")
        col_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        mem = history.read(query, source="memory")
        mem_ms = (time.perf_counter() - t0) * 1e3
        identical = col.rows == mem.rows and col.stats == mem.stats
        rows.append((name, len(col.rows), identical, col.scanned_samples,
                     col.pruned_blocks, col.scanned_blocks, col_ms, mem_ms))
        if not identical:
            failures.append(name)
    report = compaction.report()
    stats = {
        "season_samples": samples,
        "chunks": len(compaction.columnar.chunk_indexes()),
        "chunk_records": report["chunk_records"],
        "wal_records": service.store.appended,
        # Bounded-memory figure: the windowed scans touch this fraction
        # of the season where a rebuild re-folds all of it.
        "window_scan_fraction": max(
            r[3] for r in rows if r[0] in ("raw-window", "lastN-60")
        ) / max(1, samples),
    }
    return rows, failures, stats


def kill_matrix(workdir, days, cuts=3):
    """Kill each compaction crash point mid-season; gate on identity."""
    samples = int(days * 86400.0 / SAMPLE_INTERVAL_S)
    retention = RetentionConfig(
        default=RetentionPolicy(max_age_s=days * 86400.0 * 0.5))

    def one_run(root, cut, stage):
        # Park the pump (1e9 s) so the matrix drives compaction — and the
        # armed kill — at deterministic points, not mid-feed.
        sim, broker, history, service, compaction = _rig(
            root, retention=retention, compact_interval_s=1e9)
        compaction.kill_after = stage
        fired = lost = 0
        prefix_ok = True
        for leg, count in enumerate(
                (cut, samples - cut) if cut else (samples,)):
            if leg:
                _feed(sim, broker, count, start=cut)
            else:
                _feed(sim, broker, count)
            service.flush_now()
            try:
                compaction.compact_once()
            except CompactionKilled:
                service.crash_and_recover()
                fired += 1
                lost += service.lost_committed
                prefix_ok = prefix_ok and service.prefix_consistent
                compaction.compact_once()
        reads = [
            (history.read(q, source="columnar").rows,
             history.read(q, source="columnar").stats)
            for _name, q in _season_queries(sim.now)
        ]
        return reads, fired, lost, prefix_ok

    rows, failures = [], []
    cut_points = [samples * (i + 1) // (cuts + 1) for i in range(cuts)]
    for cut in cut_points:
        reference, _f, _l, _p = one_run(
            os.path.join(workdir, f"ref-{cut}"), cut, stage=None)
        for stage in KILL_STAGES:
            root = os.path.join(workdir, f"{stage}-{cut}")
            reads, fired, lost, prefix_ok = one_run(root, cut, stage)
            identical = reads == reference
            rows.append((stage, cut, lost, prefix_ok, identical))
            if lost or not prefix_ok or not identical or not fired:
                failures.append(rows[-1])
            shutil.rmtree(root)
        shutil.rmtree(os.path.join(workdir, f"ref-{cut}"))
    return rows, failures


def assert_gates(read_rows, read_failures, stats, kill_failures):
    assert not read_failures, (
        f"columnar answers diverged from the in-memory oracle: "
        f"{read_failures}")
    assert stats["chunks"] > 1, stats
    # Zone maps must prune on every bounded-window shape.
    window_rows = [r for r in read_rows
                   if r[0] in ("raw-window", "lastN-60", "rollup-window")]
    assert all(r[4] > 0 for r in window_rows), window_rows
    # Bounded memory: windowed scans touch a minority of the season.
    assert stats["window_scan_fraction"] < 0.5, stats
    assert not kill_failures, (
        f"{len(kill_failures)} kill points violated the compaction "
        f"recovery contract: {kill_failures[:3]}")


def test_columnar_reads(benchmark):
    workdir = tempfile.mkdtemp(prefix="bench-columnar-")
    try:
        def experiment():
            reads, read_failures, stats = read_comparison(workdir, days=14)
            kills, kill_failures = kill_matrix(workdir, days=2, cuts=3)
            return reads, read_failures, stats, kills, kill_failures

        reads, read_failures, stats, kills, kill_failures = run_once(
            benchmark, experiment)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record_rows(benchmark, READ_HEADERS, reads)
    benchmark.extra_info["stats"] = {k: round(v, 6) if isinstance(v, float)
                                     else v for k, v in stats.items()}
    benchmark.extra_info["kill_points"] = len(kills)
    print_table(
        f"E21 columnar reads: {stats['season_samples']} samples over "
        f"{stats['chunks']} chunks, "
        f"window scan fraction {stats['window_scan_fraction']:.1%}",
        READ_HEADERS, reads)
    print_table("compaction kill matrix", KILL_HEADERS, kills)
    assert len(kills) >= 9
    assert_gates(reads, read_failures, stats, kill_failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced season, gated on bit-identity + pruning + kill "
             "recovery")
    parser.add_argument("--days", type=float, default=None,
                        help="season length for the read comparison")
    args = parser.parse_args(argv)

    days = args.days if args.days is not None else (3 if args.smoke else 14)
    started = time.perf_counter()
    workdir = tempfile.mkdtemp(prefix="bench-columnar-")
    try:
        reads, read_failures, stats = read_comparison(workdir, days=days)
        kills, kill_failures = kill_matrix(
            workdir, days=1 if args.smoke else 2, cuts=2 if args.smoke else 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started

    print(f"season: {stats['season_samples']} samples → {stats['chunks']} "
          f"chunks ({stats['chunk_records']} records) + "
          f"{stats['wal_records']} in the WAL tail")
    for row in reads:
        print("  {:<16} rows {:>6}  identical {!s:<5}  scanned {:>7}  "
              "pruned blocks {:>5}  scanned blocks {:>5}  col {:>7.2f}ms  "
              "mem {:>7.2f}ms".format(*row))
    print(f"window scan fraction: {stats['window_scan_fraction']:.1%}")
    print(f"kill matrix: {len(kills)} points, "
          f"{sum(r[2] for r in kills)} lost")
    print(f"wall: {wall:.2f}s")

    if args.smoke:
        try:
            assert_gates(reads, read_failures, stats, kill_failures)
        except AssertionError as exc:
            print(f"FAIL: {exc}")
            return 1
        print("smoke gate passed: bit-identical columnar reads, zone maps "
              "pruning, every compaction kill point recovered clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
