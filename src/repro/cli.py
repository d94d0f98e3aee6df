"""Command-line interface: run pilots and inspect reports without code.

Usage::

    python -m repro.cli list
    python -m repro.cli run matopiba --seed 3 --days 30
    python -m repro.cli run guaspari --security auth,encryption
    python -m repro.cli run matopiba --days 5 --trace trace.json --profile-top 10
    python -m repro.cli run matopiba --checkpoint run.ck --checkpoint-every 432000
    python -m repro.cli run --restore run.ck             # resume a checkpoint
    python -m repro.cli compare guaspari --seed 3        # smart vs fixed
    python -m repro.cli fleet --farms matopiba:2,guaspari --workers 2
    python -m repro.cli serve matopiba --days 1 --record trace.json \
        --responses responses.jsonl                      # service-layer replay

``run`` executes a pilot (optionally truncated to ``--days``) and prints
the season report; ``compare`` runs the smart scheduler against the
fixed-calendar baseline on the same field and weather and prints the
business case (water, energy, money).

The subcommands share one options block that maps onto
:class:`repro.core.run.RunOptions`: the flags parse into the run fields'
own types (``SecurityConfig``, ``FaultPlan``, ``TraceConfig``,
``StoreConfig``), and every path executes through
:func:`repro.core.run.run`.
"""

import argparse
import json
import sys
from typing import Iterable, List, Optional

from repro.analytics.economics import Tariffs, deployment_benefit_eur, price_season
from repro.core.pilot import PilotReport
from repro.core.pilots import PILOT_BUILDERS
from repro.core.checkpoint import CheckpointError
from repro.core.run import RunOptions, run
from repro.core.security_profile import SecurityConfig
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.resilience import ResilienceConfig
from repro.service.errors import ServiceError
from repro.store import StoreConfig, StoreError
from repro.telemetry.tracing import TraceConfig

SECURITY_FLAGS = ("auth", "encryption", "detection", "ledger", "command_rhythm")

# Pilot-specific factory kwargs applied by ``compare``: the full-size
# MATOPIBA grid at the default probe cadence is too slow for a paired
# A/B run, so it keeps the coarse benchmark preset.
COMPARE_PRESETS = {
    "matopiba": {"rows": 4, "cols": 4, "probe_interval_s": 3600.0},
}


def parse_security_spec(spec: Optional[str]) -> SecurityConfig:
    """Parse a comma-separated flag list (``"auth,encryption"``).

    Unknown flags exit with a message naming the valid ones.
    """
    config = SecurityConfig()
    for flag in (spec or "").split(","):
        flag = flag.strip()
        if not flag:
            continue
        if flag not in SECURITY_FLAGS:
            raise SystemExit(
                f"unknown security flag {flag!r}; choose from {', '.join(SECURITY_FLAGS)}"
            )
        setattr(config, flag, True)
    return config


def _load_fault_plan(path: Optional[str]) -> Optional[FaultPlan]:
    if not path:
        return None
    try:
        return FaultPlan.load(path)
    except OSError as exc:
        raise SystemExit(f"cannot read fault plan {path!r}: {exc}")
    except FaultPlanError as exc:
        raise SystemExit(f"invalid fault plan {path!r}: {exc}")


def _options_from_args(args, pilot_kwargs: Optional[dict] = None) -> RunOptions:
    """Map the shared CLI options block onto one :class:`RunOptions`."""
    store = None
    if getattr(args, "store", None) is not None:  # compare has no store flags
        store = StoreConfig(
            root=args.store,
            flush_interval_s=args.store_flush,
            max_segment_bytes=args.store_segment_bytes,
            compact_interval_s=args.store_compact,
            retention_age_s=args.store_retention_age,
            retention_bytes=args.store_retention_bytes,
        )
    return RunOptions(
        pilot=args.pilot,
        pilot_kwargs=dict(pilot_kwargs or {}),
        days=args.days,
        checkpoint=getattr(args, "checkpoint", None),
        checkpoint_every_s=getattr(args, "checkpoint_every", None),
        restore=getattr(args, "restore", None),
        seed=args.seed,
        security=parse_security_spec(args.security),
        fault_plan=_load_fault_plan(args.faults),
        resilience=ResilienceConfig() if args.resilience else None,
        tracing=TraceConfig() if args.trace is not None else None,
        profile=args.profile_top is not None,
        store=store,
    )


def _print_report(report: PilotReport, out) -> None:
    rows = [
        ("season days", report.season_days),
        ("irrigation", f"{report.irrigation_m3:.1f} m3 ({report.irrigation_mm_per_ha:.1f} mm/ha)"),
        ("rain", f"{report.rain_mm:.1f} mm"),
        ("energy", f"{report.total_energy_kwh:.1f} kWh"),
        ("relative yield", f"{report.relative_yield:.3f}"),
        ("yield", f"{report.yield_t:.1f} t"),
        ("telemetry processed", report.measures_processed),
        ("decisions / commands", f"{report.decisions} / {report.commands_sent}"),
        ("skipped (no-data/stale)", f"{report.skipped_no_data} / {report.skipped_stale}"),
        ("devices dead", report.devices_dead),
        ("alerts / quarantined", f"{report.alerts} / {report.quarantined_devices}"),
    ]
    width = max(len(label) for label, _ in rows)
    print(f"--- {report.name} ---", file=out)
    for label, value in rows:
        print(f"{label.ljust(width)} : {value}", file=out)


def cmd_list(args, out) -> int:
    print("available pilots:", file=out)
    descriptions = {
        "cbec": "Emilia-Romagna tomato, canal distribution, cloud deployment",
        "intercrop": "Cartagena lettuce, desalination source mix, cloud deployment",
        "guaspari": "Pinhal wine grape, regulated deficit, fog deployment",
        "matopiba": "Barreiras soybean, VRI center pivot, mobile-fog deployment",
    }
    for name in sorted(PILOT_BUILDERS):
        print(f"  {name.ljust(10)} {descriptions[name]}", file=out)
    return 0


def _print_metrics_summary(runner, out) -> None:
    metrics = runner.sim.metrics
    if not metrics.enabled:
        return
    print(
        "metrics: "
        f"{runner.sim.events_per_sec():,.0f} events/s kernel, "
        f"{metrics.total('mqtt.publishes_in'):.0f} messages published, "
        f"{metrics.total('context.notifications'):.0f} notifications delivered",
        file=out,
    )
    if runner.supervisor is not None:
        states = runner.supervisor.states()
        healthy = sum(1 for s in states.values() if s == "healthy")
        report = runner.report()
        print(
            "resilience: "
            f"{healthy}/{len(states)} services healthy, "
            f"{report.resilience_restarts} restarts, "
            f"{report.breaker_opens} breaker opens, "
            f"{report.degraded_episodes} degraded episodes, "
            f"{report.reconciled_decisions} decisions reconciled",
            file=out,
        )


def _write_file(path: str, text: str, what: str) -> None:
    _write_lines(path, (text,), what)


def _write_lines(path: str, lines: Iterable[str], what: str) -> None:
    """Write each line as it comes, each ending in a newline."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise SystemExit(f"cannot write {what} to {path!r}: {exc}")


def _run_or_exit(options: RunOptions):
    """:func:`run`, with the library's option and trace errors as an error line."""
    try:
        return run(options)
    except (CheckpointError, StoreError, ServiceError, ValueError) as exc:
        raise SystemExit(str(exc))


def _write_run_artifacts(args, runner, out) -> None:
    """Profiler summary, Chrome-trace export and metrics snapshot."""
    if runner.profiler is not None:
        for line in runner.profiler.summary_lines(args.profile_top):
            print(line, file=out)
    if args.trace:
        _write_file(args.trace, json.dumps(runner.tracer.chrome_trace(), indent=1), "trace")
        print(
            f"trace written to {args.trace} ({len(runner.tracer.spans())} spans)",
            file=out,
        )
    if args.metrics:
        _write_file(args.metrics, runner.sim.metrics.to_json(), "metrics snapshot")
        print(f"metrics snapshot written to {args.metrics}", file=out)


def cmd_run(args, out) -> int:
    if args.checkpoint is not None and args.restore is not None:
        raise SystemExit("--checkpoint and --restore are mutually exclusive")
    options = _options_from_args(args)
    result = _run_or_exit(options)
    runner = result.runner
    if args.restore is not None:
        print(f"restored from {args.restore}", file=out)
    elif args.checkpoint is not None:
        print(f"checkpoint written to {args.checkpoint}", file=out)
    _print_report(result.report, out)
    _print_metrics_summary(runner, out)
    if runner.fault_injector is not None:
        injector = runner.fault_injector
        print(
            f"faults: plan {runner.config.fault_plan.name!r}, "
            f"{injector.injected} injected, {injector.recovered} recovered, "
            f"{injector.active_count} still active",
            file=out,
        )
    durability = getattr(runner, "durability", None)
    if durability is not None:
        store_report = durability.report()
        print(
            f"store: {store_report['appended']} records appended, "
            f"{store_report['committed']} committed across "
            f"{store_report['segments']} segments "
            f"({store_report['recoveries']} recoveries)",
            file=out,
        )
        compaction = store_report.get("compaction")
        if compaction is not None:
            print(
                f"columnar: {compaction['chunk_records']} records across "
                f"{compaction['chunks']} chunks "
                f"({compaction['compacted_segments']} segments compacted, "
                f"{compaction['dropped_chunks']} chunks dropped by retention)",
                file=out,
            )
    _write_run_artifacts(args, runner, out)
    return 0


def cmd_compare(args, out) -> int:
    preset = COMPARE_PRESETS.get(args.pilot, {})
    results = {}
    for kind in ("smart", "fixed"):
        results[kind] = _run_or_exit(
            _options_from_args(args, pilot_kwargs={**preset, "scheduler_kind": kind})
        )
    smart = results["smart"].report
    fixed = results["fixed"].report
    for report in (fixed, smart):
        _print_report(report, out)
        print(file=out)
    tariffs = Tariffs()
    smart_economics = price_season(smart, tariffs)
    fixed_economics = price_season(fixed, tariffs)
    benefit = deployment_benefit_eur(smart_economics, fixed_economics)
    water_saving = (
        1.0 - smart.irrigation_m3 / fixed.irrigation_m3 if fixed.irrigation_m3 else 0.0
    )
    print("--- business case: smart vs fixed calendar ---", file=out)
    print(f"water saved            : {water_saving:.1%}", file=out)
    print(f"input cost fixed       : EUR {fixed_economics.input_cost_eur:,.0f}", file=out)
    print(f"input cost smart       : EUR {smart_economics.input_cost_eur:,.0f}", file=out)
    print(f"season benefit (margin): EUR {benefit:,.0f}", file=out)
    # The smart arm carries the shared artifact flags (trace, profile,
    # metrics snapshot) so an A/B run can also be inspected span by span.
    _write_run_artifacts(args, results["smart"].runner, out)
    return 0


def cmd_serve(args, out) -> int:
    """Replay (or synthesize) a request trace against a running pilot."""
    from repro.service.loadgen import RequestTrace, standard_trace

    options = _options_from_args(args)
    if args.requests:
        try:
            trace = RequestTrace.load(args.requests)
        except (OSError, KeyError, ValueError) as exc:
            raise SystemExit(f"cannot read request trace {args.requests!r}: {exc}")
    else:
        # Synthesize the canonical multi-tenant workload for this pilot.
        # A probe build (construction only, nothing runs) supplies the
        # farm name and zone grid the trace's reads should target.
        probe = PILOT_BUILDERS[args.pilot](seed=args.seed)
        farm = probe.config.farm
        entity_ids = [
            f"urn:AgriParcel:{farm}:{r}-{c}"
            for r in range(probe.config.rows)
            for c in range(probe.config.cols)
        ]
        trace = standard_trace(
            seed=args.seed,
            duration_s=args.serve_duration,
            entity_ids=entity_ids,
            farm=farm,
        )
    if args.record:
        trace.save(args.record)
        print(f"request trace written to {args.record} "
              f"({len(trace.requests)} requests)", file=out)
    options.serve_trace = trace
    result = _run_or_exit(options)
    service = result.service
    report = service.report()
    print(f"--- service: {trace.name} ({len(trace.requests)} requests, "
          f"{len(trace.tenants)} tenants) ---", file=out)
    for name, stats in report["tenants"].items():
        print(
            f"  {name.ljust(10)} submitted {stats['submitted']:>5}  "
            f"ok {stats['completed']:>5}  429 {stats['rejected_quota']:>4}  "
            f"503 {stats['rejected_backlog']:>4}  "
            f"auth {stats['rejected_auth']:>3}",
            file=out,
        )
    latency = report["latency_s"]
    print(
        f"latency: p50 {latency['p50']:.3f}s  p95 {latency['p95']:.3f}s  "
        f"p99 {latency['p99']:.3f}s",
        file=out,
    )
    cache = report["cache"]
    print(
        f"cache: {cache['hits']} hits / {cache['hits'] + cache['misses']} "
        f"lookups ({cache['hit_rate']:.1%}), {cache['invalidated']} invalidated",
        file=out,
    )
    if args.responses:
        _write_lines(args.responses, service.response_lines(), "response log")
        print(f"response log written to {args.responses}", file=out)
    print(f"response digest: {report['digest']}", file=out)
    _write_run_artifacts(args, result.runner, out)
    return 0


def cmd_fleet(args, out) -> int:
    from repro.fleet import FleetOptions, run_fleet
    from repro.fleet.options import FleetError, parse_farm_specs

    try:
        options = FleetOptions(
            farms=parse_farm_specs(args.farms),
            seed=args.seed,
            days=args.days,
            epoch_days=args.epoch_days,
            workers=args.workers,
            executor=args.executor,
        )
        result = run_fleet(options)
    except FleetError as exc:
        raise SystemExit(str(exc))
    report = result.report
    print(f"--- fleet: {len(report.farms)} farms, {result.executor}, "
          f"{args.workers} worker(s) ---", file=out)
    for shard, farm in zip(result.shards, report.farms):
        print(
            f"  {shard.name.ljust(14)} yield {farm['relative_yield']:.3f}  "
            f"irrigation {farm['irrigation_m3']:.1f} m3  "
            f"telemetry {farm['measures_processed']}",
            file=out,
        )
    totals = report.totals
    print(
        f"totals: irrigation {totals['irrigation_m3']:.1f} m3, "
        f"mean yield {totals['relative_yield']:.3f}, "
        f"telemetry {totals['measures_processed']}, "
        f"{len(report.batches)} sync batches over "
        f"{len(report.cloud_epochs)} epochs",
        file=out,
    )
    print(
        f"kernel: {result.events_executed:,} events in "
        f"{result.wall_time_s:.1f}s wall",
        file=out,
    )
    print(f"fingerprint: {result.fingerprint}", file=out)
    return 0


def _options_parent() -> argparse.ArgumentParser:
    """The options block shared by ``run`` and ``compare``.

    One flag per :class:`RunOptions` knob, so the subcommands cannot
    drift apart — new run options land in both by construction.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--days", type=float, default=None,
                        help="truncate the season to N days")
    common.add_argument("--security", default="",
                        help=f"comma list of {','.join(SECURITY_FLAGS)}")
    common.add_argument("--metrics", default=None, metavar="PATH",
                        help="write a JSON metrics snapshot to PATH")
    common.add_argument("--faults", default=None, metavar="PATH",
                        help="run under the fault plan in this JSON file")
    common.add_argument("--resilience", action="store_true",
                        help="enable the supervision/backpressure/degraded-mode layer")
    common.add_argument("--trace", default=None, metavar="PATH",
                        help="trace the run and export Chrome-trace JSON to PATH")
    common.add_argument("--profile-top", dest="profile_top", type=int, default=None,
                        metavar="K",
                        help="profile the kernel and print the K hottest event keys")
    return common


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """Durable-store flags shared by ``run`` and ``serve``."""
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="write history through a durable segment store "
                             "under DIR (crash-recoverable)")
    parser.add_argument("--store-flush", dest="store_flush", type=float,
                        default=StoreConfig.flush_interval_s, metavar="SECS",
                        help="fsync-barrier interval of the durable store "
                             "in sim-seconds (default %(default)g)")
    parser.add_argument("--store-segment-bytes", dest="store_segment_bytes",
                        type=int, default=StoreConfig.max_segment_bytes, metavar="N",
                        help="WAL segment rotation threshold in bytes "
                             "(default %(default)d)")
    parser.add_argument("--store-compact", dest="store_compact", type=float,
                        default=None, metavar="SECS",
                        help="compact sealed WAL segments into columnar "
                             "chunks every SECS sim-seconds (default: off)")
    parser.add_argument("--store-retention-age", dest="store_retention_age",
                        type=float, default=None, metavar="SECS",
                        help="drop columnar chunks whose newest sample is "
                             "older than SECS sim-seconds (implies compaction)")
    parser.add_argument("--store-retention-bytes", dest="store_retention_bytes",
                        type=int, default=None, metavar="N",
                        help="cap retained columnar bytes per tenant at N "
                             "(oldest chunks dropped first; implies compaction)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="SWAMP platform pilot runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available pilots")

    common = _options_parent()
    run_parser = sub.add_parser("run", parents=[common],
                                help="run one pilot season")
    run_parser.add_argument("pilot", nargs="?", default="matopiba",
                            choices=sorted(PILOT_BUILDERS))
    run_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                            help="write a restorable checkpoint to PATH during the run")
    run_parser.add_argument("--checkpoint-every", dest="checkpoint_every",
                            type=float, default=None, metavar="SECS",
                            help="checkpoint every SECS sim-seconds "
                                 "(default: once at mid-run)")
    run_parser.add_argument("--restore", default=None, metavar="PATH",
                            help="resume the run checkpointed at PATH "
                                 "(ignores the pilot/build flags)")
    _add_store_flags(run_parser)

    compare_parser = sub.add_parser("compare", parents=[common],
                                    help="smart vs fixed-calendar business case")
    compare_parser.add_argument("pilot", choices=sorted(PILOT_BUILDERS))

    serve_parser = sub.add_parser(
        "serve", parents=[common],
        help="replay a multi-tenant request trace against a running pilot")
    serve_parser.add_argument("pilot", nargs="?", default="matopiba",
                              choices=sorted(PILOT_BUILDERS))
    serve_parser.add_argument("--requests", default=None, metavar="PATH",
                              help="request-trace JSON to replay "
                                   "(default: synthesize the standard workload)")
    serve_parser.add_argument("--record", default=None, metavar="PATH",
                              help="save the (synthesized or loaded) trace to PATH")
    serve_parser.add_argument("--responses", default=None, metavar="PATH",
                              help="write the canonical response log to PATH")
    serve_parser.add_argument("--serve-duration", dest="serve_duration",
                              type=float, default=600.0, metavar="SECS",
                              help="synthesized trace length in sim-seconds "
                                   "(default 600)")
    _add_store_flags(serve_parser)

    fleet_parser = sub.add_parser("fleet", help="run a sharded multi-farm fleet")
    fleet_parser.add_argument("--farms", default="matopiba:2", metavar="SPEC",
                              help="comma list of pilot[:count] entries "
                                   "(default: matopiba:2)")
    fleet_parser.add_argument("--seed", type=int, default=0)
    fleet_parser.add_argument("--days", type=float, default=None,
                              help="truncate every farm's season to N days")
    fleet_parser.add_argument("--epoch-days", dest="epoch_days", type=float,
                              default=1.0,
                              help="epoch barrier spacing in days (default 1)")
    fleet_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes (default 1)")
    fleet_parser.add_argument("--executor", default="auto",
                              choices=("auto", "inprocess", "multiprocessing"))
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(args, out)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "compare":
        return cmd_compare(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    if args.command == "fleet":
        return cmd_fleet(args, out)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
