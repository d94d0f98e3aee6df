"""Opt-in subsystems compose: the store and the service are assembly steps.

Each subsystem is selected by a ``PilotConfig`` field, so a checkpoint
recipe, a fleet shard and a chaos config all build it the same way.  The
matrix below runs a TINY MATOPIBA pilot with a 600 s request trace over
its four parcels (about 1.9k requests) and checks:

* checkpoint at a barrier inside the trace window, restore in a fresh
  interpreter: the report and each subsystem's witness are unchanged;
* a durable store is refused under checkpoint and restore;
* storage faults aim at a config-built store and it keeps every
  committed record;
* a two-farm fleet gives one fingerprint in-process and on 2 workers;
* a chaos plan composed with the service or a compacting store passes
  every invariant, and a checkpointed chaos run restores to the
  ``run_chaos`` result.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.context.delivery import SimulatedEndpoint
from repro.core import checkpoint as cp
from repro.core.pilot import PilotRunner
from repro.core.pilots import build_matopiba_pilot
from repro.core.run import RunOptions, run
from repro.faults.chaos import (
    build_chaos_runner,
    check_invariants,
    check_storage_invariants,
    run_chaos,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.fleet import FarmSpec, FleetOptions, run_fleet
from repro.resilience import ResilienceConfig
from repro.service.http import Request
from repro.service.loadgen import standard_trace
from repro.simkernel.clock import DAY, HOUR
from repro.store import SegmentStore, StoreConfig
from repro.telemetry.tracing import TraceConfig

TINY = dict(rows=2, cols=2, season_days=4, probe_interval_s=7200.0)
SEED = 5
#: A checkpoint barrier inside the request trace's 600 s window.
BARRIER_S = 300.0


def _parcels(farm):
    return [f"urn:AgriParcel:{farm}:{r}-{c}" for r in range(2) for c in range(2)]


def _trace(farm="matopiba", seed=SEED):
    return standard_trace(seed=seed, duration_s=600.0, entity_ids=_parcels(farm),
                          farm=farm)


def _witnesses(runner) -> dict:
    """The report plus one determinism witness per opted-in subsystem."""
    witnesses = {"report": dataclasses.asdict(runner.report())}
    if runner.service is not None:
        witnesses["responses"] = runner.service.response_log_digest()
    if runner.tracer.enabled:
        chrome = json.dumps(runner.tracer.chrome_trace(), sort_keys=True)
        witnesses["spans"] = len(runner.tracer.spans())
        witnesses["chrome"] = hashlib.sha256(chrome.encode("utf-8")).hexdigest()
    if runner.supervisor is not None:
        witnesses["supervisor"] = runner.supervisor.states()
        witnesses["restarts"] = runner.supervisor.total_restarts
    return witnesses


def restore_witnesses(path) -> dict:
    """Resume a checkpoint through ``run()``; the restored run's witnesses."""
    result = run(RunOptions(restore=str(path)))
    assert result.service is result.runner.service
    return _witnesses(result.runner)


def _fresh_process_witnesses(path) -> dict:
    """:func:`restore_witnesses` in a brand-new interpreter."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")])
    code = ("import json, sys; "
            "from tests.test_composition import restore_witnesses; "
            "print(json.dumps(restore_witnesses(sys.argv[1])))")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], cwd=root,
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("extra, witnesses", [
    ({}, {"responses"}),
    ({"tracing": TraceConfig()}, {"responses", "spans", "chrome"}),
    ({"resilience": ResilienceConfig()}, {"responses", "supervisor", "restarts"}),
], ids=["service", "service+tracing", "service+resilience"])
def test_checkpoint_restores_each_subsystem_in_a_fresh_process(extra, witnesses, tmp_path):
    recipe = cp.RunRecipe(pilot="matopiba", builder_kwargs=dict(
        seed=SEED, serve_trace=_trace(), **TINY, **extra))
    runner = recipe.build()
    runner.run_until(BARRIER_S)
    path = tmp_path / "run.ck"
    cp.save_checkpoint(cp.snapshot(runner, recipe=recipe), str(path))
    runner.sim.run(until=runner.season_end_s)
    expected = json.loads(json.dumps(_witnesses(runner)))
    assert set(expected) == {"report"} | witnesses
    assert expected["report"]["season_days"] == TINY["season_days"]
    assert _fresh_process_witnesses(path) == expected


class TestStoreUnderCheckpoint:
    @pytest.mark.parametrize("mode", ["checkpoint", "restore"])
    def test_run_refuses_before_building(self, mode, tmp_path):
        store = tmp_path / "wal"
        with pytest.raises(ValueError, match="durable store"):
            run(RunOptions(pilot="matopiba", pilot_kwargs=dict(TINY), days=0.1,
                           store=StoreConfig(root=str(store)),
                           **{mode: str(tmp_path / "c.ck")}))
        assert not store.exists()

    def test_snapshot_refuses_a_store_backed_runner(self, tmp_path):
        runner = build_matopiba_pilot(
            seed=SEED, store=StoreConfig(root=str(tmp_path / "wal")), **TINY)
        runner.run_until(BARRIER_S)
        with pytest.raises(cp.CheckpointError, match="durable store"):
            cp.snapshot(runner)


def test_storage_faults_hit_a_config_built_store(tmp_path):
    plan = FaultPlan("storage", [
        FaultEvent("fsync_lost", "store", at_s=2 * HOUR, duration_s=3 * HOUR),
        FaultEvent("disk_torn_write", "store", at_s=8 * HOUR, params={"fraction": 0.4}),
        FaultEvent("process_kill", "store", at_s=DAY + 3 * HOUR,
                   params={"surviving_tail_bytes": 11}),
    ])
    runner = build_matopiba_pilot(
        seed=SEED, **dict(TINY, season_days=2), fault_plan=plan,
        store=StoreConfig(root=str(tmp_path / "wal"), flush_interval_s=300.0))
    runner.run_season()
    assert runner.fault_injector.injected == 3
    assert runner.durability.store.failed_commits > 0
    assert runner.durability.store.faults.torn_writes == 1
    assert runner.durability.recoveries == 1
    audits = check_storage_invariants(runner)
    assert {r.name for r in audits} == {"no committed record lost",
                                        "recovery prefix-consistent"}
    assert [r for r in audits if not r.ok] == []


class TestFleet:
    @staticmethod
    def _fleet(kwargs_per_farm, workers):
        farms = [FarmSpec("matopiba", kwargs=kwargs) for kwargs in kwargs_per_farm]
        return run_fleet(FleetOptions(farms=farms, seed=SEED, days=1.0,
                                      workers=workers))

    def test_service_shards_agree_across_executors(self):
        kwargs = dict(TINY, serve_trace=_trace())
        inprocess = self._fleet([kwargs, kwargs], workers=1)
        pooled = self._fleet([kwargs, kwargs], workers=2)
        assert (inprocess.executor, pooled.executor) == ("inprocess", "multiprocessing")
        assert inprocess.fingerprint == pooled.fingerprint
        assert ([s.events_executed for s in inprocess.shards]
                == [s.events_executed for s in pooled.shards])

    def test_store_shards_agree_across_executors(self, tmp_path):
        def roots(run_name):
            return [str(tmp_path / f"{run_name}-{farm}") for farm in range(2)]

        results = {}
        for run_name, workers in (("inprocess", 1), ("pooled", 2)):
            results[run_name] = self._fleet(
                [dict(TINY, store=StoreConfig(root=root, flush_interval_s=300.0))
                 for root in roots(run_name)],
                workers=workers,
            )
        assert results["inprocess"].fingerprint == results["pooled"].fingerprint
        for mine, theirs in zip(roots("inprocess"), roots("pooled")):
            payloads = SegmentStore(mine).recover()
            assert payloads and payloads == SegmentStore(theirs).recover()


@pytest.fixture(scope="module")
def chaos_reference():
    """``run_chaos(7)``: the plan, report and decision log to reproduce."""
    return run_chaos(7)


class TestChaos:
    def _config(self, reference, **fields):
        return dataclasses.replace(
            build_chaos_runner(reference.plan, seed=7).config, **fields)

    def _assert_invariants_ok(self, runner, plan):
        invariants = check_invariants(runner, plan)
        assert [r for r in invariants if not r.ok] == []
        return {r.name for r in invariants}

    def test_service_under_chaos(self, chaos_reference):
        runner = PilotRunner(self._config(
            chaos_reference, serve_trace=_trace("chaosfarm", seed=7)))
        runner.run_season()
        self._assert_invariants_ok(runner, chaos_reference.plan)
        assert runner.service.report()["tenants"]["dash-a"]["completed"] > 0

    def test_compacting_store_under_chaos(self, chaos_reference, tmp_path):
        store = StoreConfig(root=str(tmp_path / "wal"), flush_interval_s=300.0,
                            max_segment_bytes=16384, compact_interval_s=21600.0)
        runner = PilotRunner(self._config(chaos_reference, store=store))
        runner.run_season()
        names = self._assert_invariants_ok(runner, chaos_reference.plan)
        assert {"no committed record lost", "recovery prefix-consistent",
                "no record lost across WAL→chunk boundary",
                "no record served twice across WAL→chunk boundary"} <= names
        assert runner.durability.compaction.columnar.chunk_indexes()

    def test_checkpointed_chaos_run_restores_to_the_run_chaos_result(
            self, chaos_reference, tmp_path):
        recipe = cp.RunRecipe(config=chaos_reference.runner.config)
        runner = recipe.build()
        path = str(tmp_path / "chaos.ck")
        cp.run_with_checkpoints(runner, recipe, runner.season_end_s, path)
        restored = cp.restore(path)
        assert 0 < restored.checkpoint.barrier_s < runner.season_end_s
        report = cp.resume(restored)
        assert dataclasses.asdict(report) == dataclasses.asdict(chaos_reference.report)
        assert (restored.runner.scheduler.decision_log
                == chaos_reference.runner.scheduler.decision_log)
        self._assert_invariants_ok(restored.runner, chaos_reference.plan)


def test_chaos_audit_reads_the_service_delivery():
    runner = build_matopiba_pilot(seed=SEED, serve_trace=_trace(), **TINY)
    service = runner.service
    service.enable_delivery(endpoints=(SimulatedEndpoint("hook"),))
    response = service.handle(Request(
        "POST", "/v2/subscriptions", token=service.tenant_token("dash-a"),
        body={"subject": {"entities": [{"type": "AgriParcel"}]},
              "notification": {"endpoint": "hook"}},
    ))
    assert response.status == 201
    runner.run_days(1)
    audits = {r.name: r for r in check_storage_invariants(runner)}
    conserved = audits["accepted notifications conserved"]
    assert conserved.ok, conserved.detail
    assert service.delivery.audit()["accepted"] > 0
