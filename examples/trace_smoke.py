"""CI smoke check: causal tracing must produce valid, complete span trees.

Runs a small MATOPIBA pilot through the ``run(RunOptions(...))``
entrypoint with tracing and profiling on, exports the Chrome-trace JSON,
and verifies the tracing contract end to end:

* the span-tree invariants hold (single root per trace, resolvable
  parents, nested time ranges) — both on the live tracer and on the
  JSON round-trip;
* at least one full sensor→actuation causal chain was captured: a
  ``scheduler.decision`` linked back through ``context.update``,
  ``broker.route`` and ``mqtt.publish`` to a ``device.report`` root;
* every scheduler cycle produced a traced cycle span;
* the same run with tracing off yields a bit-identical report;
* the kernel profiler accounted for every executed event.

Run:  python examples/trace_smoke.py          (~10 s)

Exits non-zero when any check fails, so CI can gate on it.
"""

import dataclasses
import json
import os
import sys

if __name__ == "__main__":  # allow `python examples/trace_smoke.py`
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api import (
    RunOptions, TraceConfig, run, validate_chrome_trace, validate_span_trees,
)

PILOT_KWARGS = {"rows": 2, "cols": 2, "season_days": 3}


def main() -> int:
    traced = run(RunOptions(
        pilot="matopiba", seed=5, tracing=TraceConfig(), profile=True,
        pilot_kwargs=dict(PILOT_KWARGS),
    ))
    exported = json.loads(json.dumps(traced.runner.tracer.chrome_trace()))
    plain = run(RunOptions(pilot="matopiba", seed=5, pilot_kwargs=dict(PILOT_KWARGS)))

    tracer = traced.runner.tracer
    tree_problems = validate_span_trees(tracer.spans())
    chrome_problems = validate_chrome_trace(exported)

    decisions = [s for s in tracer.find("scheduler.decision") if s.links]
    full_chains = 0
    for decision in decisions:
        chain = tracer.causal_chain(decision)
        for linked in chain["linked"]:
            if linked and linked[0] == "device.report" and "context.update" in linked:
                full_chains += 1
                break

    cycles = len(tracer.find("scheduler.cycle"))
    profiler = traced.runner.profiler

    checks = [
        ("spans were collected", len(tracer) > 0),
        ("span-tree invariants hold", tree_problems == []),
        ("chrome export is valid", chrome_problems == []),
        ("export covers every span",
         len(exported["traceEvents"]) == len(tracer)),
        ("at least one full sensor->actuation chain", full_chains > 0),
        ("every scheduler cycle traced",
         cycles == traced.runner.scheduler.stats.cycles),
        ("report bit-identical with tracing off",
         dataclasses.asdict(traced.report) == dataclasses.asdict(plain.report)),
        ("profiler accounted every kernel event",
         profiler.total_events == traced.runner.sim.events_executed),
    ]

    failed = False
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failed = failed or not ok
    for problem in (tree_problems + chrome_problems)[:10]:
        print(f"      {problem}")
    print(
        f"\nspans={len(tracer)} traces={tracer.traces_sampled} "
        f"linked_decisions={len(decisions)} full_chains={full_chains} "
        f"profiled_events={profiler.total_events}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
