"""Seeded chaos: random fault compositions plus platform invariants (E15).

The :class:`ChaosPlanGenerator` composes the typed fault events from
:mod:`repro.faults.plan` into randomized-but-valid campaigns: every plan
is drawn from a plain ``random.Random(seed)`` *before* the simulation
starts, so the same seed always yields the same plan, the same run and —
because the injector executes plans on the sim clock — the same final
platform state, bit for bit.

A generated plan is not uniform noise.  The generator enforces the
structural constraints that make the post-run invariants decidable:

* one **anchor outage** per plan — a WAN partition or a fog-node crash —
  long enough to cover at least one scheduler decision time, so every
  campaign exercises the degraded-mode story (breaker opens, the fog
  keeps irrigating from last-known-good context, reconciliation on heal);
* every window ends by ``latest_end_fraction`` of the horizon, so
  recoveries (and the post-heal resync) always land inside the run;
* same-target windows never overlap (the injector's recover actions
  assume exclusive ownership of a link pair / device / replicator);
* at most one infrastructure event (fog crash or broker restart) per
  plan — their recovery paths would otherwise fight over the same
  replicator and session state;
* at least one soil probe is *protected* from sensor faults so the
  decision-continuity invariant ("the scheduler keeps deciding") is
  well-defined even under maximal sensor chaos.

:func:`check_invariants` then audits a finished runner against the plan:
termination, fault accounting (injected == recovered + still-active ==
plan size), supervision health (nothing stuck restarting, replicator
alive, uplink breaker not latched open), decision continuity through
every anchor window, and bounded sync backlog.  ``benchmarks/
bench_chaos_soak.py`` drives this across many seeds; ``--smoke`` is the
CI gate.

This module deliberately imports nothing from :mod:`repro.core` at module
level (core's stages import :mod:`repro.faults`); the pilot-builder
helper resolves core lazily.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultEvent, FaultPlan
from repro.simkernel.clock import DAY, HOUR

__all__ = [
    "ChaosPlanGenerator",
    "ChaosRunResult",
    "ChaosTargets",
    "InvariantResult",
    "build_chaos_runner",
    "check_invariants",
    "check_storage_invariants",
    "degraded_mode_scenario_plan",
    "run_chaos",
    "standard_targets",
]


# -- targets -----------------------------------------------------------------


@dataclass
class ChaosTargets:
    """The injector aliases a generated plan may aim at.

    ``protected_devices`` are excluded from sensor faults so at least one
    probe keeps feeding the context broker — without it, "irrigation
    continues under chaos" would not be a checkable claim.
    """

    wan_pairs: Tuple[str, ...] = ("wan",)
    fogs: Tuple[str, ...] = ("fog",)
    brokers: Tuple[str, ...] = ("broker",)
    devices: Tuple[str, ...] = ()
    protected_devices: Tuple[str, ...] = ()
    # Storage/delivery targets default to empty: with no store or endpoint
    # registered the generator's candidate pool — and therefore the RNG
    # draw sequence of every pinned seed — is unchanged.
    stores: Tuple[str, ...] = ()
    endpoints: Tuple[str, ...] = ()

    @property
    def faultable_devices(self) -> Tuple[str, ...]:
        protected = set(self.protected_devices)
        return tuple(d for d in self.devices if d not in protected)


def standard_targets(farm: str = "chaosfarm", rows: int = 2, cols: int = 2) -> ChaosTargets:
    """Targets matching the pilot :func:`build_chaos_runner` assembles.

    Device ids follow the fleet stage's naming; the first probe is
    protected so every zone-0 decision input survives the campaign.
    """
    probes = tuple(
        f"{farm}-probe-{row}-{col}" for row in range(rows) for col in range(cols)
    )
    return ChaosTargets(devices=probes, protected_devices=probes[:1])


# -- plan generation ---------------------------------------------------------


class ChaosPlanGenerator:
    """Draw seeded random fault campaigns satisfying the E15 constraints."""

    #: (kind, weight) pool for the non-anchor events.
    EXTRA_KINDS: Tuple[Tuple[str, int], ...] = (
        ("link_partition", 2),
        ("radio_jam", 2),
        ("broker_restart", 1),
        ("sensor_dropout", 3),
        ("sensor_stuck", 2),
        ("battery_brownout", 2),
        ("disk_torn_write", 2),
        ("disk_stall", 2),
        ("fsync_lost", 2),
        ("process_kill", 1),
        ("endpoint_outage", 2),
    )

    def __init__(
        self,
        seed: int,
        targets: Optional[ChaosTargets] = None,
        horizon_s: float = 6 * DAY,
        min_events: int = 3,
        max_events: int = 7,
        latest_end_fraction: float = 0.85,
        cycle_interval_s: float = DAY,
    ) -> None:
        if max_events < min_events:
            raise ValueError("max_events must be >= min_events")
        self.seed = seed
        self.targets = targets or standard_targets()
        self.horizon_s = horizon_s
        self.min_events = min_events
        self.max_events = max_events
        self.latest_end_s = latest_end_fraction * horizon_s
        self.cycle_interval_s = cycle_interval_s
        # Plain stdlib RNG, seeded once: generation happens before the sim
        # exists, so it must not (and cannot) touch the kernel's streams.
        self._rng = random.Random(seed)

    def generate(self, name: Optional[str] = None) -> FaultPlan:
        rng = self._rng
        plan = FaultPlan(name=name or f"chaos-{self.seed}")
        busy: Dict[str, List[Tuple[float, float]]] = {}
        infra_used = self._add_anchor(plan, busy)

        extras = rng.randint(self.min_events, self.max_events) - 1
        for _ in range(extras):
            kind = self._pick_kind(infra_used)
            if kind is None:
                break
            if self._add_event(plan, busy, kind):
                if kind in ("fog_crash", "broker_restart"):
                    infra_used = True
        plan.events.sort(key=lambda e: (e.at_s, e.kind, e.target))
        plan.validate()
        return plan

    # The anchor is the campaign's backbone: a cloud-facing outage wide
    # enough to contain a scheduler cycle, forcing the degraded-mode path.
    def _add_anchor(self, plan: FaultPlan, busy) -> bool:
        rng = self._rng
        is_crash = bool(self.targets.fogs) and rng.random() < 0.5
        duration = self.cycle_interval_s * rng.uniform(1.05, 1.6)
        latest_start = self.latest_end_s - duration
        start = rng.uniform(min(0.1 * self.horizon_s, latest_start), latest_start)
        if is_crash:
            target = rng.choice(self.targets.fogs)
            plan.add("fog_crash", target, start, duration)
        else:
            target = rng.choice(self.targets.wan_pairs)
            plan.add("link_partition", target, start, duration)
        busy.setdefault(target, []).append((start, start + duration))
        return is_crash

    def _pick_kind(self, infra_used: bool) -> Optional[str]:
        pool: List[str] = []
        for kind, weight in self.EXTRA_KINDS:
            if kind in ("fog_crash", "broker_restart") and infra_used:
                continue
            if kind == "fog_crash" and not self.targets.fogs:
                continue
            if kind == "broker_restart" and not self.targets.brokers:
                continue
            if kind in ("link_partition", "radio_jam") and not self.targets.wan_pairs:
                continue
            if kind.startswith(("sensor_", "battery_")) and not self.targets.faultable_devices:
                continue
            if kind in ("disk_torn_write", "disk_stall", "fsync_lost", "process_kill") \
                    and not self.targets.stores:
                continue
            if kind == "endpoint_outage" and not self.targets.endpoints:
                continue
            pool.extend([kind] * weight)
        if not pool:
            return None
        return self._rng.choice(pool)

    def _add_event(self, plan: FaultPlan, busy, kind: str) -> bool:
        rng = self._rng
        if kind in ("link_partition", "radio_jam"):
            target = rng.choice(self.targets.wan_pairs)
            duration = rng.uniform(1.0, 6.0) * HOUR
        elif kind == "broker_restart":
            target = rng.choice(self.targets.brokers)
            duration = rng.uniform(0.5, 2.0) * HOUR
        elif kind == "fog_crash":
            target = rng.choice(self.targets.fogs)
            duration = rng.uniform(2.0, 8.0) * HOUR
        elif kind == "battery_brownout":
            target = rng.choice(self.targets.faultable_devices)
            at = rng.uniform(600.0, self.latest_end_s)
            plan.add(kind, target, at, fraction=round(rng.uniform(0.2, 0.6), 3))
            return True
        elif kind == "disk_torn_write":
            target = rng.choice(self.targets.stores)
            at = rng.uniform(600.0, self.latest_end_s)
            plan.add(kind, target, at, fraction=round(rng.uniform(0.1, 0.9), 3))
            return True
        elif kind == "process_kill":
            target = rng.choice(self.targets.stores)
            at = rng.uniform(600.0, self.latest_end_s)
            plan.add(kind, target, at, surviving_tail_bytes=rng.randint(0, 64))
            return True
        elif kind in ("disk_stall", "fsync_lost"):
            target = rng.choice(self.targets.stores)
            duration = rng.uniform(1.0, 6.0) * HOUR
        elif kind == "endpoint_outage":
            target = rng.choice(self.targets.endpoints)
            duration = rng.uniform(1.0, 6.0) * HOUR
        else:  # sensor_dropout / sensor_stuck
            target = rng.choice(self.targets.faultable_devices)
            duration = rng.uniform(2.0, 12.0) * HOUR
        window = self._place(busy, target, duration)
        if window is None:
            return False
        if kind == "radio_jam":
            plan.add(kind, target, window[0], duration, loss=round(rng.uniform(0.3, 0.9), 3))
        else:
            plan.add(kind, target, window[0], duration)
        return True

    def _place(self, busy, target: str, duration: float, attempts: int = 6):
        """Find a same-target-exclusive window, or None after a few tries."""
        rng = self._rng
        latest_start = self.latest_end_s - duration
        if latest_start <= 600.0:
            return None
        taken = busy.setdefault(target, [])
        for _ in range(attempts):
            start = rng.uniform(600.0, latest_start)
            end = start + duration
            if all(end <= s or start >= e for s, e in taken):
                taken.append((start, end))
                return (start, end)
        return None


# -- canonical degraded-mode scenario ---------------------------------------


def degraded_mode_scenario_plan(season_days: int = 6) -> FaultPlan:
    """The pinned cloud-partition → degraded-mode → reconcile scenario.

    A fog crash opens at 22:00 of day 0 and heals midway through day 2,
    so the day-1 and day-2 06:00 decisions run on context that is 8 h /
    32 h old — past the normal 6 h staleness bound (an unsupervised
    scheduler skips them) but inside the degraded-mode bound (a
    supervised one keeps irrigating from last-known-good and journals).
    """
    crash_at = 22.0 * HOUR
    heal_after = 2 * DAY  # heals at t = 70 h, well before 0.85 × horizon
    if crash_at + heal_after > 0.85 * season_days * DAY:
        raise ValueError("season too short for the degraded-mode scenario")
    return FaultPlan(name="degraded-mode-scenario").add(
        "fog_crash", "fog", crash_at, heal_after
    )


# -- pilot assembly ----------------------------------------------------------


def build_chaos_runner(
    plan: FaultPlan,
    seed: int = 0,
    season_days: int = 6,
    rows: int = 2,
    cols: int = 2,
    farm: str = "chaosfarm",
    supervised: bool = True,
    tracing=None,
    profile: bool = False,
):
    """A small fog pilot under ``plan``; ``supervised=False`` is the naive
    baseline arm (no resilience layer at all)."""
    # Lazy core import: repro.core.stages imports repro.faults.
    from repro.core.deployment import DeploymentKind
    from repro.core.pilot import PilotConfig, PilotRunner
    from repro.physics.crop import SOYBEAN
    from repro.physics.soil import LOAM
    from repro.physics.weather import BARREIRAS_MATOPIBA
    from repro.resilience import ResilienceConfig

    return PilotRunner(PilotConfig(
        name=f"chaos-{plan.name}",
        farm=farm,
        climate=BARREIRAS_MATOPIBA,
        crop=SOYBEAN,
        soil=LOAM,
        rows=rows, cols=cols,
        season_days=season_days,
        start_day_of_year=150,
        initial_theta=0.22,
        deployment=DeploymentKind.FOG,
        irrigation_kind="valves",
        scheduler_kind="smart",
        seed=seed,
        fault_plan=plan,
        resilience=ResilienceConfig() if supervised else None,
        tracing=tracing,
        profile=profile,
    ))


# -- invariants --------------------------------------------------------------


@dataclass
class InvariantResult:
    name: str
    ok: bool
    detail: str = ""


def _anchor_windows(plan: FaultPlan, cycle_interval_s: float) -> List[Tuple[float, float]]:
    return [
        (e.at_s, e.at_s + e.duration_s)
        for e in plan.events
        if e.kind in ("link_partition", "fog_crash")
        and e.duration_s is not None
        and e.duration_s >= cycle_interval_s
    ]


def check_invariants(runner, plan: FaultPlan, supervised: bool = True) -> List[InvariantResult]:
    """Audit a finished chaos run against its plan."""
    results: List[InvariantResult] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append(InvariantResult(name, bool(ok), detail))

    horizon = runner.config.effective_season_days * DAY
    check("terminated", runner.sim.now >= horizon,
          f"now={runner.sim.now} horizon={horizon}")

    injector = runner.fault_injector
    recovering = sum(1 for e in plan.events if e.recovers)
    check("all faults injected", injector.injected == len(plan.events),
          f"injected={injector.injected} planned={len(plan.events)}")
    check("fault accounting balances",
          injector.recovered == recovering and injector.active_count == 0,
          f"recovered={injector.recovered}/{recovering} active={injector.active_count}")

    scheduler = runner.scheduler
    expected_cycles = int((runner.sim.now - scheduler.first_cycle_at_s)
                          // scheduler.cycle_interval_s) + 1
    check("decision loop never stalled", scheduler.stats.cycles == expected_cycles,
          f"cycles={scheduler.stats.cycles} expected={expected_cycles}")

    replicator = runner.replicator
    check("replicator alive at end", replicator is not None and replicator.running)
    if replicator is not None:
        check("sync backlog bounded", replicator.backlog_depth <= 2 * replicator.batch_size,
              f"backlog={replicator.backlog_depth}")

    if supervised:
        states = runner.supervisor.states() if runner.supervisor is not None else {}
        stuck = {n: s for n, s in states.items() if s in ("restarting", "failed")}
        check("no service stuck restarting", runner.supervisor is not None and not stuck,
              f"states={states}")
        breaker = runner.uplink_breaker
        check("uplink breaker not latched open",
              breaker is not None and breaker.state.value != "open",
              f"state={breaker.state.value if breaker else 'missing'}")
        decided_at = [entry["t"] for entry in scheduler.decision_log]
        for start, end in _anchor_windows(plan, scheduler.cycle_interval_s):
            inside = [t for t in decided_at if start <= t <= end]
            check("irrigation continues through outage", bool(inside),
                  f"window=({start:.0f},{end:.0f}) decisions={len(inside)}")

    results.extend(check_storage_invariants(runner))
    return results


def check_storage_invariants(runner) -> List[InvariantResult]:
    """Durability and delivery audits, for runners that opted in.

    A runner without ``durability``, or without a service whose delivery
    is enabled (``runner.service.delivery``), passes trivially (no
    results) — these are the invariants the storage fault kinds attack,
    so they are only decidable when the subsystems exist.

    * **zero committed-record loss**: no recovery ever surfaced fewer
      records than the store had committed (`lost_committed == 0`), and
      every recovery produced a strict prefix of the accepted sample
      sequence;
    * **notification conservation**: every accepted notification is
      delivered, dead-lettered or still visibly pending — never silently
      dropped — regardless of outages, breaker state and replays;
    * **compaction boundary** (when columnar compaction is attached):
      every record ever drained from the WAL is in exactly one retained
      chunk or accounted as a retention drop (none lost), and no record
      is reachable from both a chunk and a WAL segment (none served
      twice).
    """
    results: List[InvariantResult] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append(InvariantResult(name, bool(ok), detail))

    durability = getattr(runner, "durability", None)
    if durability is not None:
        check("no committed record lost", durability.lost_committed == 0,
              f"lost={durability.lost_committed} "
              f"recoveries={durability.recoveries}")
        check("recovery prefix-consistent", durability.prefix_consistent,
              f"recoveries={durability.recoveries}")
        compaction = getattr(durability, "compaction", None)
        if compaction is not None:
            audit = compaction.audit()
            check("no record lost across WAL→chunk boundary",
                  audit["boundary_consistent"],
                  f"retained={audit['retained_records']} "
                  f"dropped={audit['dropped_records']} "
                  f"wal_base_seq={audit['wal_base_seq']}")
            check("no record served twice across WAL→chunk boundary",
                  audit["overlap_chunks"] == 0
                  and audit["overlap_segments"] == 0,
                  f"overlap_chunks={audit['overlap_chunks']} "
                  f"overlap_segments={audit['overlap_segments']}")

    # Stub runners in the store tests carry no ``service`` attribute.
    delivery = getattr(getattr(runner, "service", None), "delivery", None)
    if delivery is not None:
        audit = delivery.audit()
        check("accepted notifications conserved", audit["conserved"],
              f"accepted={audit['accepted']} delivered={audit['delivered']} "
              f"dead={audit['dead']} pending={audit['pending']}")

    return results


# -- one-call harness --------------------------------------------------------


@dataclass
class ChaosRunResult:
    seed: int
    plan: FaultPlan
    report: Any
    invariants: List[InvariantResult] = field(default_factory=list)
    fingerprint: str = ""
    # The finished PilotRunner, for post-run inspection (trace export,
    # metrics snapshots).  Excluded from the fingerprint.
    runner: Any = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.invariants)

    def failures(self) -> List[InvariantResult]:
        return [r for r in self.invariants if not r.ok]


def _fingerprint(runner, plan: FaultPlan, report) -> str:
    """A stable digest of everything the run produced.

    Two invocations with the same seed must produce the same digest —
    the bit-identity contract the soak benchmark pins.
    """
    from dataclasses import asdict

    payload = {
        "plan": plan.to_dict(),
        "report": asdict(report),
        "faults": {
            "injected": runner.fault_injector.injected,
            "recovered": runner.fault_injector.recovered,
        },
        "decisions": runner.scheduler.decision_log,
        "supervisor": runner.supervisor.states() if runner.supervisor else None,
        "restarts": runner.supervisor.total_restarts if runner.supervisor else 0,
        "breaker_opens": runner.uplink_breaker.opens if runner.uplink_breaker else 0,
        "degraded_episodes": (
            runner.degraded_mode.episodes if runner.degraded_mode else 0
        ),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_chaos(
    seed: int,
    targets: Optional[ChaosTargets] = None,
    season_days: int = 6,
    rows: int = 2,
    cols: int = 2,
    supervised: bool = True,
    plan: Optional[FaultPlan] = None,
    tracing=None,
    profile: bool = False,
    **generator_kwargs: Any,
) -> ChaosRunResult:
    """Generate (or accept) a plan, run it, audit it, fingerprint it."""
    if plan is None:
        generator = ChaosPlanGenerator(
            seed,
            targets=targets or standard_targets(rows=rows, cols=cols),
            horizon_s=season_days * DAY,
            **generator_kwargs,
        )
        plan = generator.generate()
    runner = build_chaos_runner(
        plan, seed=seed, season_days=season_days, rows=rows, cols=cols,
        supervised=supervised, tracing=tracing, profile=profile,
    )
    report = runner.run_season()
    invariants = check_invariants(runner, plan, supervised=supervised)
    return ChaosRunResult(
        seed=seed,
        plan=plan,
        report=report,
        invariants=invariants,
        fingerprint=_fingerprint(runner, plan, report),
        runner=runner,
    )
