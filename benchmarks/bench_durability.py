"""E20 — Crash-safe durable history and at-least-once delivery.

Two properties the storage tentpole must hold under fire:

* **crash recovery**: killing the history+store "process" at every
  record boundary of a seeded run and recovering from disk never loses a
  committed record, always yields a bit-identical prefix of the
  uninterrupted run, and recovers fast (the recovery scan is a single
  forward pass — milliseconds at this scale);
* **delivery resilience**: against a flaky endpoint with an outage
  window, the per-endpoint circuit breaker *defers* attempts instead of
  burning them, so the post-heal success rate with the breaker beats an
  unguarded pipeline and no accepted notification is ever silently lost.

Two entry points:

* pytest-benchmark (``python -m pytest benchmarks/bench_durability.py -s``):
  runs the full kill-point matrix plus the breaker comparison and files
  the rows into ``extra_info``;
* CLI (``python benchmarks/bench_durability.py [--smoke]``): ``--smoke``
  runs a reduced matrix and enforces the gates (zero committed loss,
  prefix consistency, bounded recovery time, breaker ≥ unguarded
  success, conservation).
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

if __name__ == "__main__":  # allow `python benchmarks/bench_durability.py`
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
else:
    from _harness import print_table, record_rows, run_once

from repro.context.broker import ContextBroker
from repro.context.delivery import DeliveryConfig, DeliveryManager, SimulatedEndpoint
from repro.context.history import MINUTE_S, ShortTermHistory
from repro.context.subscriptions import Subscription
from repro.simkernel.simulator import Simulator
from repro.store import DurabilityService, SegmentStore

SEED = 42
EID = "urn:AgriParcel:matopiba:0-0"
ATTR = "soilMoisture"
FLUSH_INTERVAL_S = 50.0
#: Recovery of a log this size is one forward scan; anything slower than
#: this generous bound means the recovery path regressed algorithmically.
RECOVERY_GATE_S = 1.0
MATRIX_HEADERS = ("kill_at", "surviving_b", "committed", "recovered",
                  "lost", "prefix_ok", "recovery_ms")
DELIVERY_HEADERS = ("pipeline", "accepted", "delivered", "dead",
                    "success_rate", "attempts", "deferrals", "events")


def _history_rig(root, seed=SEED):
    sim = Simulator(seed=seed)
    broker = ContextBroker(sim)
    history = ShortTermHistory(broker, rollup_periods=(MINUTE_S,))
    service = DurabilityService(
        sim, history, SegmentStore(root), flush_interval_s=FLUSH_INTERVAL_S)
    service.start()
    broker.create_entity(EID, "AgriParcel")
    return sim, broker, history, service


def _feed(sim, broker, n, dt=10.0):
    for i in range(n):
        broker.update_attributes(EID, {ATTR: 0.1 + 0.01 * (i % 30)})
        sim.run_until(sim.now + dt)


def crash_recovery_matrix(workdir, total_records=80, step=1, seed=SEED):
    """Kill at every ``step``-th record boundary; return per-kill rows.

    The reference run records the canonical payload sequence; each matrix
    entry replays the same seeded run, crashes mid-flush with a rotating
    surviving-tail length, recovers, and checks the recovered log against
    the reference prefix byte-for-byte.
    """
    ref_root = os.path.join(workdir, "ref")
    sim, broker, _history, service = _history_rig(ref_root, seed)
    _feed(sim, broker, total_records)
    reference = service.store.read_all()

    rows, failures = [], []
    for kill_at in range(1, total_records, step):
        surviving = (kill_at * 7) % 23
        root = os.path.join(workdir, f"kill-{kill_at}")
        sim, broker, _history, service = _history_rig(root, seed)
        _feed(sim, broker, kill_at)
        committed = service.store.committed
        service.crash_and_recover(surviving_tail_bytes=surviving)
        recovered = service.store.read_all()
        prefix_ok = recovered == reference[: len(recovered)]
        rows.append((kill_at, surviving, committed, len(recovered),
                     service.lost_committed, prefix_ok,
                     service.recovery_wall_s * 1e3))
        if (service.lost_committed or not prefix_ok
                or not service.prefix_consistent
                or service.recovery_wall_s > RECOVERY_GATE_S):
            failures.append(rows[-1])
        shutil.rmtree(root)
    return rows, failures


def run_delivery(with_breaker, notifications=120, seed=SEED):
    """One seeded delivery run against a flaky endpoint with an outage.

    ``with_breaker=False`` raises the failure threshold beyond reach, so
    every attempt hammers the dead endpoint and burns its retry budget —
    the pipeline the breaker exists to protect.
    """
    sim = Simulator(seed=seed)
    broker = ContextBroker(sim)
    config = DeliveryConfig(
        pump_interval_s=1.0, timeout_s=2.0, max_attempts=6,
        backoff_base_s=2.0, backoff_cap_s=60.0,
        breaker_failure_threshold=3 if with_breaker else 10**9,
        breaker_open_timeout_s=120.0)
    manager = DeliveryManager(sim, config)
    endpoint = manager.register_endpoint(
        SimulatedEndpoint("hook", fail_rate=0.05))
    broker.create_entity(EID, "AgriParcel", {ATTR: 0.2})
    sub = Subscription(callback=lambda _n: None, entity_id=EID)
    manager.bind_subscription(sub, "dash", "hook")
    broker.subscribe(sub)

    def outage():
        yield 200.0
        endpoint.down = True
        yield 600.0
        endpoint.down = False

    sim.spawn(outage(), name="outage")
    _feed(sim, broker, notifications, dt=10.0)
    sim.run_until(sim.now + 4000.0)
    audit = manager.audit()
    attempts = sum(i.attempts for i in manager._items)
    return {
        "pipeline": "breaker" if with_breaker else "unguarded",
        "audit": audit,
        "attempts": attempts,
        "success_rate": audit["delivered"] / max(1, audit["accepted"]),
        "events": sim.events_executed,
    }


def delivery_rows(results):
    return [
        (r["pipeline"], r["audit"]["accepted"], r["audit"]["delivered"],
         r["audit"]["dead"], r["success_rate"], r["attempts"],
         r["audit"]["breaker_deferrals"], r["events"])
        for r in results
    ]


def assert_gates(matrix_failures, guarded, unguarded):
    assert not matrix_failures, (
        f"{len(matrix_failures)} kill points violated the recovery "
        f"contract: {matrix_failures[:3]}")
    for result in (guarded, unguarded):
        assert result["audit"]["conserved"], result["pipeline"]
    assert guarded["success_rate"] > unguarded["success_rate"], (
        guarded["success_rate"], unguarded["success_rate"])
    assert guarded["attempts"] < unguarded["attempts"]


def test_durability(benchmark):
    workdir = tempfile.mkdtemp(prefix="bench-durability-")
    try:
        def experiment():
            matrix, failures = crash_recovery_matrix(
                workdir, total_records=80, step=1)
            guarded = run_delivery(with_breaker=True)
            unguarded = run_delivery(with_breaker=False)
            return matrix, failures, guarded, unguarded

        matrix, failures, guarded, unguarded = run_once(benchmark, experiment)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = delivery_rows([guarded, unguarded])
    record_rows(benchmark, DELIVERY_HEADERS, rows)
    worst_ms = max(r[-1] for r in matrix)
    benchmark.extra_info["kill_points"] = len(matrix)
    benchmark.extra_info["worst_recovery_ms"] = round(worst_ms, 3)
    print_table(
        f"E20 durability: {len(matrix)} kill points, zero committed loss, "
        f"worst recovery {worst_ms:.2f}ms",
        DELIVERY_HEADERS, rows,
    )
    assert len(matrix) >= 50
    assert_gates(failures, guarded, unguarded)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced kill-point matrix, gated on zero loss + prefix "
             "consistency + recovery time + breaker advantage")
    parser.add_argument("--records", type=int, default=None,
                        help="records in the crash-recovery run")
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)

    total = args.records if args.records is not None else (
        60 if args.smoke else 120)
    step = 2 if args.smoke else 1
    started = time.perf_counter()
    workdir = tempfile.mkdtemp(prefix="bench-durability-")
    try:
        matrix, failures = crash_recovery_matrix(
            workdir, total_records=total, step=step, seed=args.seed)
        guarded = run_delivery(with_breaker=True, seed=args.seed)
        unguarded = run_delivery(with_breaker=False, seed=args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started

    worst_ms = max(r[-1] for r in matrix)
    lost = sum(r[4] for r in matrix)
    print(f"crash matrix: {len(matrix)} kill points over {total} records  "
          f"lost_committed={lost}  worst recovery {worst_ms:.2f}ms")
    for row in delivery_rows([guarded, unguarded]):
        print("  {:<10} accepted {:>4}  delivered {:>4}  dead {:>3}  "
              "success {:>6.1%}  attempts {:>5}  deferrals {:>5}  "
              "events {:>5}".format(*row))
    print(f"wall: {wall:.2f}s")

    if args.smoke:
        try:
            assert_gates(failures, guarded, unguarded)
        except AssertionError as exc:
            print(f"FAIL: {exc}")
            return 1
        print("smoke gate passed: zero committed loss, prefix-identical "
              "recovery, breaker beats unguarded delivery")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
