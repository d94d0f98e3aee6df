"""Platform benchmark: secured season, tenant service trace and durable store.

One workload per process (single-threaded):

    python3 perfbench/run.py --workload season --seed 42 --seconds 35 --trace 0

repeats the workload -- a fresh platform each time, built from inputs
generated from ``--seed`` before anything is timed -- for about
``--seconds`` seconds and prints the end-to-end metrics: every timing,
set-up included, rescaled to a reference host pace (``pace.py``) and
reduced to its median over the repetitions.  ``--trace 1`` alternates untraced and
traced repetitions instead and prints the
per-layer exclusive wall-time table of the median traced one (see
``layers.py``).  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed correctness
check sets ``correct`` false and exits 1.

    python3 perfbench/run.py [--seed N] [--seconds S]

runs all three workloads, untraced then traced, each in its own process.

    python3 perfbench/run.py --quick

is the self-check: every workload cut to a few seconds, asserting that
every metric is emitted with its unit and a finite value, that the
metric names agree with ``BENCHMARK.json``, and that untraced runs leave
every boundary method unwrapped.  Run it first.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

from layers import Boundaries, LayerClock, layer_metrics, self_metric, wrapped_boundaries
from metrics import (ALIASES, END_TO_END, PER_LAYER, TAIL_PERCENTILE, WORKLOADS,
                     median, percentile)
from pace import REFERENCE_S, Sampler, rescale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
#: Scratch space for the store workload, inside the checkout.
WORK = os.path.join(HERE, ".work")
DEFAULT_SEED = 42
DEFAULT_SECONDS = 35
#: Every untraced run makes at least this many repetitions, so each
#: median (set-up time included) has something to choose from.
MIN_REPS = 3


def _timed_reps(workload, inputs, traced, seconds, work_dir):
    """Run repetitions until the next one would end past ``seconds``.

    Untraced runs make at least ``MIN_REPS``; traced runs alternate an
    untraced and a traced repetition, at least one of each.  Returns the
    untraced and traced phases, the untraced set-ups (``pace.Sampler``)
    and any failures found between repetitions.
    """
    untraced, traced_reps, setups, failures = [], [], [], []
    started = time.perf_counter()
    while True:
        left = wrapped_boundaries()
        if left:
            failures.append(f"untraced repetition found wrapped boundaries: {left}")
        # The checks that cost seconds (the service's response digest, the
        # store's crash recovery) run on the first untraced repetitions
        # and on every traced one.
        phase, setup = _rep(workload, inputs, False, work_dir,
                            verify=traced or len(untraced) < workload.verify_reps)
        untraced.append(phase)
        setups.append(setup)
        if traced:
            phase, _setup = _rep(workload, inputs, True, work_dir, verify=True)
            traced_reps.append(phase)
            left = wrapped_boundaries()
            if left:
                failures.append(f"wrappers left after the traced repetition: {left}")
        elapsed = time.perf_counter() - started
        per_rep = elapsed / len(untraced)
        if (traced or len(untraced) >= MIN_REPS) and elapsed + per_rep > seconds:
            break
    return untraced, traced_reps, setups, failures


def _rep(workload, inputs, traced, work_dir, verify):
    """One repetition: set up (timed), run the timed phase, tear down.

    Traced repetitions install the boundary wrappers before the platform
    is built and remove them when the repetition ends.
    """
    clock = boundaries = None
    if traced:
        clock = LayerClock()
        boundaries = Boundaries(clock)
        boundaries.install()
    platform = None
    try:
        gc.collect()
        with Sampler() as setup:
            platform = workload.setup(inputs, work_dir)
        phase = workload.run(platform, inputs, clock, verify)
    finally:
        if boundaries is not None:
            boundaries.remove()
        if platform is not None:
            workload.teardown(platform)
    return phase, setup


def _median_per_index(series):
    """Element-wise median over repetitions of index-aligned timings.

    Every repetition replays the same inputs on a fresh platform, so the
    n-th timed call (or segment) does the same work each time.  Returns
    None when the repetitions disagree on which calls they timed.
    """
    if isinstance(series[0], dict):
        keys = set(series[0])
        if any(set(s) != keys for s in series[1:]):
            return None
        return [median([s[key] for s in series]) for key in sorted(keys)]
    if any(len(s) != len(series[0]) for s in series[1:]):
        return None
    return [median(values) for values in zip(*series)]


def _end_to_end(name, phases, setups, failures):
    """Run-level values, every timing taken at the reference pace.

    Each call and segment is rescaled to the reference pace
    (``pace.rescale``) and then reduced to its median over the
    repetitions.  Throughputs divide the phase's work by the sum of its
    segments; call percentiles are taken over the calls.  ``setup_s`` is
    the median set-up time at the reference pace.
    """
    paced = [rescale(p) for p in phases]
    calls = _median_per_index([c for c, _s, _w in paced])
    segments = _median_per_index([s for _c, s, _w in paced])
    write_segments = _median_per_index([w for _c, _s, w in paced])
    if calls is None or segments is None or write_segments is None:
        failures.append("repetitions timed different calls or segments")
        return {key: float("nan") for key in END_TO_END}
    first = phases[0]
    return {
        "setup_s": median([setup.paced for setup in setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_share": (sum(p.success_ok for p in phases)
                          / sum(p.success_total for p in phases)),
        "sim_days_per_s": first.sim_days / sum(segments),
        "ingest_per_s": first.samples / sum(write_segments),
        "call_p50_us": percentile(calls, 50.0) * 1e6,
        "call_tail_us": percentile(calls, TAIL_PERCENTILE[name]) * 1e6,
    }


def _check_digests(phases, label, failures):
    digests = {p.digest for p in phases if p.digest}
    if len(digests) != 1:
        failures.append(f"{label} digest differs across repetitions: {sorted(digests)}")


def run_workload(name, seed, seconds, traced, quick):
    """One workload in this process; prints its block and the JSON line."""
    from workloads import BY_NAME

    workload = BY_NAME[name]
    inputs = workload.inputs(seed, quick)
    work_dir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        untraced, traced_reps, setups, failures = _timed_reps(
            workload, inputs, traced, seconds, work_dir)
    finally:
        _remove_tree(work_dir)
    phases = untraced + traced_reps
    for phase in phases:
        failures.extend(phase.failures)
    _check_digests(phases, name, failures)
    first = untraced[0]
    mode = "traced" if traced else "untraced"
    print(f"== {name} seed {seed} ({mode}): {len(untraced)} untraced"
          + (f" + {len(traced_reps)} traced" if traced else "")
          + f" repetition(s), {first.sim_days * 24:g} sim-hours timed in each")
    print(f"   digest {first.digest}")
    for key, value in sorted(first.notes.items()):
        print(f"   {key} = {value}")
    if traced:
        metrics, table_failures = _layer_report(name, untraced, traced_reps)
        failures.extend(table_failures)
        units = {key: spec[0] for key, spec in PER_LAYER.items()}
    else:
        metrics = _end_to_end(name, untraced, setups, failures)
        units = {key: spec[0] for key, spec in END_TO_END.items()}
        probes = [x for p in untraced for x in p.probes]
        print(f"   end-to-end metrics at the reference pace (probe {REFERENCE_S * 1e3:g} ms; "
              f"this run's probes: fastest {min(probes) * 1e3:.4f} ms, median "
              f"{median(probes) * 1e3:.4f} ms), each call and segment the median of its "
              f"{len(untraced)} replays; call tail = p{TAIL_PERCENTILE[name]:g} of "
              f"{len(first.latencies)} calls:")
        for key, value in metrics.items():
            print(f"     {key:<16} {value:>16.6g} {units[key]}")
        print("   the same figures under workload-specific names:")
        for alias, unit, value in ALIASES[name]:
            print(f"     {alias:<21} {value(metrics, untraced):>11.6g} {unit}")
        print("   setup_s samples (host s -> at the reference pace): " + ", ".join(
            f"{s.seconds:.4f}->{s.paced:.4f}" for s in setups))
    for failure in failures:
        print(f"   CHECK FAILED: {failure}")
    print("   checks: " + ("ok" if not failures else f"{len(failures)} failed"))
    result = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in phases),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def _layer_report(name, untraced, traced_reps):
    """Print the per-layer table of the median traced rep; return metrics."""
    failures = []
    for phase in traced_reps:
        if abs(phase.closure - 1.0) > 0.01:
            failures.append(
                f"layer self times sum to {phase.closure:.2%} of the traced wall time")
    ordered = sorted(traced_reps, key=lambda p: p.wall_s)
    phase = ordered[(len(ordered) - 1) // 2]
    overhead = median([p.wall_s for p in traced_reps]) / median([p.wall_s for p in untraced])
    extras = dict(phase.extras)
    extras["trace.wall_s"] = phase.wall_s
    extras["trace.overhead_ratio"] = overhead
    metrics = layer_metrics(phase.clock, phase.self_times, extras)
    print(f"   per-layer exclusive wall time (traced repetition with the median "
          f"wall time, {phase.wall_s:.4f} s; a faster layer saves at most its share):")
    total = sum(phase.self_times.values())
    busy = sorted(((s, layer) for layer, s in phase.self_times.items() if s > 0.0),
                  reverse=True)
    for seconds, layer in busy:
        _unit, _better, moves, flat = PER_LAYER[self_metric(layer)]
        print(f"     {layer:<24} {seconds:>9.4f} s {seconds / phase.wall_s:>6.1%}   "
              f"moves {', '.join(f'{m}@{w}' for m, w in moves) or '-'}"
              f"; flat on {', '.join(flat) or '-'}")
    print(f"     {'sum':<24} {total:>9.4f} s {phase.closure:>6.1%} of traced wall")
    idle = [layer for layer, s in phase.self_times.items() if s <= 0.0]
    if idle:
        print(f"     idle: {', '.join(idle)}")
    print("   layer counts: " + ", ".join(
        f"{key} {value:.6g}" for key, value in metrics.items()
        if not key.endswith("_s") and not key.startswith("trace.") and value))
    print(f"   tracing overhead: traced / untraced wall = {overhead:.3f}")
    return metrics, failures


def _remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass


def run_all(seed, seconds, quick):
    """Every workload, untraced then traced, each in a child process."""
    results = {}
    status = 0
    for traced in (0, 1):
        for name in WORKLOADS:
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(traced)]
            if quick:
                command.append("--quick")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"!! {name} (trace {traced}) printed no result; exit {child.returncode}")
                status = 1
                continue
            if child.returncode != 0 or not result["correct"]:
                status = 1
            results[(name, traced)] = result
            sys.stdout.flush()
    return status, results


def self_check(seed):
    """``--quick``: short runs of everything, then schema assertions."""
    status, results = run_all(seed, 0, quick=True)
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    e2e = {m["name"]: m for m in declared["end_to_end"]}
    layers = {m["name"]: m for m in declared["per_layer"]}
    if set(e2e) != set(END_TO_END):
        problems.append("BENCHMARK.json end_to_end names differ from metrics.END_TO_END")
    if set(layers) != set(PER_LAYER):
        problems.append("BENCHMARK.json per_layer names differ from metrics.PER_LAYER")
    for name, (unit, better, bound) in END_TO_END.items():
        entry = e2e.get(name, {})
        if (entry.get("unit"), entry.get("better"), entry.get("bound")) != (unit, better, bound):
            problems.append(f"BENCHMARK.json disagrees on {name}")
    for name, (unit, better, _moves, _flat) in PER_LAYER.items():
        entry = layers.get(name, {})
        if (entry.get("unit"), entry.get("better")) != (unit, better):
            problems.append(f"BENCHMARK.json disagrees on {name}")
    for (workload, traced), result in sorted(results.items()):
        expected = PER_LAYER if traced else END_TO_END
        got = result["metrics"]
        if set(got) != set(expected):
            problems.append(f"{workload} trace {traced}: metrics {sorted(set(got) ^ set(expected))}")
        for name, entry in got.items():
            value = entry.get("value")
            if entry.get("unit") != expected.get(name, ("?",))[0]:
                problems.append(f"{workload}: {name} has unit {entry.get('unit')!r}")
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                problems.append(f"{workload}: {name} is not a finite number: {value!r}")
    if len(results) != 6:
        problems.append(f"only {len(results)} of 6 runs produced a result")
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    ok = status == 0 and not problems
    print("self-check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="cut every workload to a few seconds (self-check)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: the platform sources are missing ({SOURCE}/repro); run this "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    if args.workload is None:
        if args.quick:
            return self_check(args.seed)
        status, _results = run_all(args.seed, args.seconds, quick=False)
        return status
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.quick)


if __name__ == "__main__":
    sys.exit(main())
