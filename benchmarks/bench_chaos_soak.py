"""E15 — chaos soak: seeded fault campaigns vs the resilience layer.

Real pilot deployments proved SWAMP's availability story by surviving
actual field outages; the repo substitutes *seeded chaos*: many random
compositions of the typed fault events (partitions, jams, fog crashes,
broker restarts, sensor dropouts/stuck-at, brownouts), each audited
against platform invariants after the run (see ``repro.faults.chaos``):

* the season terminates and the decision loop never stalls,
* fault accounting balances (injected == recovered + still-active,
  nothing left active since every generated window closes in-run),
* supervision converges (no service stuck restarting, replicator alive,
  uplink breaker not latched open),
* irrigation continues through every anchor outage window, and
* the sync backlog stays bounded.

The benchmark also pins the two headline claims:

1. **Bit-identical chaos** — the same seed run twice yields the same
   SHA-256 fingerprint over (plan, report, decision log, supervision
   outcome).  Chaos here is a reproducible experiment, not noise.
2. **Degraded-mode autonomy** — the canonical fog-crash scenario run
   with and without supervision: the supervised arm's inter-decision gap
   stays bounded by the cycle interval and its journal reconciles to the
   cloud, while the naive arm simply stops deciding for the whole outage.

Run standalone (CI smoke, seeds 0-3, one ``fingerprint`` line per seed,
which CI compares with ``tests/digests_pinned.json``):

    python benchmarks/bench_chaos_soak.py --smoke

or the full 50-seed soak under pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos_soak.py -s
"""

import argparse
import os
import sys

if __name__ == "__main__":  # allow `python benchmarks/bench_chaos_soak.py`
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
else:
    from _harness import print_table, record_rows

from repro.faults.chaos import (
    build_chaos_runner,
    check_invariants,
    degraded_mode_scenario_plan,
    run_chaos,
)
from repro.simkernel.clock import DAY

SOAK_SEEDS = 50
SMOKE_SEEDS = 4
SEASON_DAYS = 6

HEADERS = ("seed", "events", "anchor", "restarts", "breaker opens",
           "degraded eps", "reconciled", "invariants")


def soak_row(seed: int):
    result = run_chaos(seed, season_days=SEASON_DAYS)
    anchor = next(
        e.kind for e in result.plan.events
        if e.kind in ("link_partition", "fog_crash")
    )
    failures = result.failures()
    return result, (
        seed,
        len(result.plan.events),
        anchor,
        result.report.resilience_restarts,
        result.report.breaker_opens,
        result.report.degraded_episodes,
        result.report.reconciled_decisions,
        "all green" if result.ok else "; ".join(f.name for f in failures),
    )


def run_soak(seeds):
    rows, results = [], []
    for seed in seeds:
        result, row = soak_row(seed)
        results.append(result)
        rows.append(row)
    return results, rows


def check_repeatability(seed: int) -> bool:
    """Same seed, two invocations, one fingerprint."""
    first = run_chaos(seed, season_days=SEASON_DAYS)
    second = run_chaos(seed, season_days=SEASON_DAYS)
    return first.fingerprint == second.fingerprint


def run_degraded_scenario(seed: int = 7):
    """The pinned cloud-partition scenario, supervised vs naive arms."""
    plan = degraded_mode_scenario_plan(SEASON_DAYS)
    event = plan.events[0]
    window = (event.at_s, event.at_s + event.duration_s)

    def arm(supervised: bool):
        runner = build_chaos_runner(
            plan, seed=seed, season_days=SEASON_DAYS, supervised=supervised
        )
        runner.run_season()
        decided_at = [entry["t"] for entry in runner.scheduler.decision_log]
        in_window = sum(1 for t in decided_at if window[0] <= t <= window[1])
        max_gap = max(
            (b - a for a, b in zip(decided_at, decided_at[1:])), default=float("inf")
        )
        return runner, in_window, max_gap

    supervised, sup_in_window, sup_gap = arm(True)
    naive, naive_in_window, naive_gap = arm(False)
    invariants = check_invariants(supervised, plan)
    journal_in_cloud = True
    try:
        supervised.cloud.context.get_entity(
            supervised.degraded_mode.entity_id
        )
    except Exception:
        journal_in_cloud = False
    return {
        "window_days": round((window[1] - window[0]) / DAY, 2),
        "supervised_decisions_in_window": sup_in_window,
        "supervised_max_gap_days": round(sup_gap / DAY, 2),
        "naive_decisions_in_window": naive_in_window,
        "naive_max_gap_days": round(naive_gap / DAY, 2),
        "reconciled": supervised.degraded_mode.reconciled,
        "journal_in_cloud": journal_in_cloud,
        "invariants_ok": all(r.ok for r in invariants),
        "cycle_interval_days": supervised.scheduler.cycle_interval_s / DAY,
    }


def assert_degraded_contract(scenario: dict) -> None:
    assert scenario["invariants_ok"], "supervised arm violated invariants"
    assert scenario["supervised_decisions_in_window"] > 0, (
        "supervised scheduler stopped deciding during the outage"
    )
    assert scenario["naive_decisions_in_window"] == 0, (
        "naive arm decided during the outage — scenario no longer stresses staleness"
    )
    # Bounded latency vs stall: the supervised gap never exceeds ~one
    # cycle; the naive gap spans the whole outage.
    assert scenario["supervised_max_gap_days"] <= 1.1 * scenario["cycle_interval_days"]
    assert scenario["naive_max_gap_days"] >= scenario["window_days"]
    assert scenario["reconciled"] > 0 and scenario["journal_in_cloud"], (
        "degraded-mode journal never reconciled to the cloud"
    )


def test_e15_chaos_soak(benchmark):
    from _harness import run_once

    def experiment():
        results, rows = run_soak(range(SOAK_SEEDS))
        scenario = run_degraded_scenario()
        return results, rows, scenario

    results, rows, scenario = run_once(benchmark, experiment)
    print_table("E15 chaos soak", HEADERS, rows)
    record_rows(benchmark, HEADERS, rows)
    benchmark.extra_info["degraded_scenario"] = scenario

    failed = [r for r in results if not r.ok]
    assert not failed, {
        r.seed: [(f.name, f.detail) for f in r.failures()] for r in failed
    }
    # The soak must actually exercise the machinery, not just pass vacuously.
    assert any(r.report.degraded_episodes > 0 for r in results)
    assert any(r.report.resilience_restarts > 0 for r in results)
    assert check_repeatability(seed=0), "same-seed chaos runs diverged"
    assert_degraded_contract(scenario)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SEEDS} seeds + scenario checks (CI gate)")
    parser.add_argument("--seeds", type=int, default=None,
                        help="override the number of soak seeds")
    args = parser.parse_args()
    n_seeds = args.seeds if args.seeds is not None else (
        SMOKE_SEEDS if args.smoke else SOAK_SEEDS
    )

    results, rows = run_soak(range(n_seeds))
    print(f"\n=== E15 chaos soak ({n_seeds} seeds) ===")
    print(" | ".join(str(h) for h in HEADERS))
    for row in rows:
        print(" | ".join(str(v) for v in row))
    for result in results:
        print(f"seed {result.seed} fingerprint {result.fingerprint}")
    failed = [r for r in results if not r.ok]
    for result in failed:
        for failure in result.failures():
            print(f"FAIL seed {result.seed}: {failure.name} ({failure.detail})")
    if failed:
        return 1

    if not check_repeatability(seed=0):
        print("FAIL: same-seed chaos runs diverged")
        return 1
    print("\nrepeatability: same-seed fingerprints identical")

    scenario = run_degraded_scenario()
    print("degraded-mode scenario:", scenario)
    try:
        assert_degraded_contract(scenario)
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        return 1
    print("degraded-mode contract holds: supervised gap "
          f"{scenario['supervised_max_gap_days']}d bounded, naive stalls "
          f"{scenario['naive_max_gap_days']}d, journal reconciled")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
