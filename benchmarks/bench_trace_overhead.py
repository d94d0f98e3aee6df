"""E16 — tracing overhead: what does end-to-end causality cost?

The tracing design (DESIGN.md) promises two things at once: tracing off
is *free* — the ``NULL_TRACER`` run is bit-identical to the seed
fixtures — and tracing on is *cheap enough* to leave enabled during
investigation runs.  This experiment quantifies both on the same small
MATOPIBA pilot:

* **arms**: untraced baseline, full tracing (sample_rate 1.0), sampled
  tracing (sample_rate 0.1), and tracing+profiling;
* **measurement**: kernel wall-clock per arm (median of repeats), span
  counts, and the per-span cost implied by the delta;
* **contract checks**: every arm's season report is bit-identical to the
  baseline's (tracing never perturbs the simulation), and the sampled
  arm stores strictly fewer spans than the full arm.

Expected shape: full tracing costs a modest constant factor (well under
~2x on this workload), sampling reduces the cost roughly with the rate,
and reports never change.

Run standalone (CI smoke, 1 repeat, contract checks only):

    python benchmarks/bench_trace_overhead.py --smoke

or under pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_trace_overhead.py -s
"""

import argparse
import dataclasses
import os
import sys
import time

if __name__ == "__main__":  # allow `python benchmarks/bench_trace_overhead.py`
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
else:
    from _harness import print_table, record_rows, run_once

from repro.core.run import RunOptions, run
from repro.telemetry.tracing import TraceConfig

PILOT_KWARGS = {"rows": 3, "cols": 3, "season_days": 4}
SEED = 16
SAMPLED_RATE = 0.1
HEADERS = ("arm", "wall_s", "spans", "overhead")


def _arm_options(arm: str) -> RunOptions:
    options = RunOptions(pilot="matopiba", seed=SEED,
                         pilot_kwargs=dict(PILOT_KWARGS))
    if arm == "traced":
        options.tracing = TraceConfig()
    elif arm == "sampled":
        options.tracing = TraceConfig(sample_rate=SAMPLED_RATE)
    elif arm == "traced+profiled":
        options.tracing = TraceConfig()
        options.profile = True
    return options


def run_arms(repeats: int):
    """Run every arm ``repeats`` times; return (rows, reports, spans)."""
    arms = ("untraced", "traced", "sampled", "traced+profiled")
    walls = {arm: [] for arm in arms}
    reports = {}
    span_counts = {}
    for _ in range(repeats):
        for arm in arms:
            started = time.perf_counter()
            result = run(_arm_options(arm))
            walls[arm].append(time.perf_counter() - started)
            reports[arm] = result.report
            span_counts[arm] = len(result.runner.tracer)
    rows = []
    baseline = sorted(walls["untraced"])[len(walls["untraced"]) // 2]
    for arm in arms:
        wall = sorted(walls[arm])[len(walls[arm]) // 2]
        rows.append((arm, round(wall, 3), span_counts[arm], f"{wall / baseline:.2f}x"))
    return rows, reports, span_counts


def check_contracts(reports, span_counts):
    """The invariants every arm must satisfy; returns failure strings."""
    failures = []
    baseline = dataclasses.asdict(reports["untraced"])
    for arm, report in reports.items():
        if dataclasses.asdict(report) != baseline:
            failures.append(f"{arm}: report differs from untraced baseline")
    if span_counts["untraced"] != 0:
        failures.append("untraced arm stored spans")
    if not 0 < span_counts["sampled"] < span_counts["traced"]:
        failures.append(
            f"sampling did not thin spans: sampled={span_counts['sampled']} "
            f"full={span_counts['traced']}"
        )
    return failures


def test_e16_trace_overhead(benchmark):
    rows, reports, span_counts = run_once(benchmark, lambda: run_arms(repeats=3))
    failures = check_contracts(reports, span_counts)
    assert failures == [], failures
    print_table("E16 tracing overhead", HEADERS, rows)
    record_rows(benchmark, HEADERS, rows)
    # Shape assertion only: tracing must not blow the run up wholesale.
    overhead = float(rows[1][3].rstrip("x"))
    assert overhead < 3.0, f"full tracing overhead {overhead}x"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="one repeat, contract checks only (CI gate)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    repeats = 1 if args.smoke else args.repeats

    rows, reports, span_counts = run_arms(repeats)
    print(f"\n=== E16 tracing overhead (median of {repeats}) ===")
    print(f"{'arm':<16} {'wall_s':>8} {'spans':>8} {'overhead':>9}")
    for arm, wall, spans, overhead in rows:
        print(f"{arm:<16} {wall:>8.3f} {spans:>8} {overhead:>9}")

    failures = check_contracts(reports, span_counts)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("\ncontract checks passed: reports bit-identical across arms, "
          "sampling thins spans")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
