"""Checkpoint/restore: the pinned-fixture bit-identity guarantee.

The headline contract (ISSUE 6): for each pinned pilot fixture,
``snapshot`` at mid-season, restore **in a fresh process**, run to the
end — the report is byte-identical to the pinned uninterrupted run.  The
fresh process matters: it proves the checkpoint file carries everything
the run needs (no hidden in-process state).
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import checkpoint as cp
from repro.core.pilot import PilotConfig, PilotRunner
from repro.core.pilots import PILOT_BUILDERS
from repro.core.run import RunOptions, run
from repro.simkernel.clock import DAY, HOUR

from tests.test_pilot_pinned import FIXTURES, PINNED

TINY_MATOPIBA = dict(seed=3, rows=2, cols=2, season_days=4, probe_interval_s=7200.0)


def _fresh_process_restore(path) -> dict:
    """Run restore_and_resume(path) in a brand-new interpreter."""
    code = (
        "import json, sys; "
        "from repro.core.checkpoint import restore_and_resume; "
        "print(json.dumps(restore_and_resume(sys.argv[1])))"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_restore_in_fresh_process_is_byte_identical(fixture, tmp_path):
    """snapshot(mid-season) → fresh-process restore → run to end == PINNED."""
    config = PilotConfig(**FIXTURES[fixture])
    runner = PilotRunner(config)
    runner.run_until(5 * DAY)
    path = tmp_path / f"{fixture}.ck"
    cp.save_checkpoint(cp.snapshot(runner), str(path))
    report = _fresh_process_restore(path)
    assert report == PINNED[fixture]


@pytest.mark.parametrize("barrier_days", [2.5, 3.0], ids=["mid-partition", "at-heal"])
def test_restore_runs_the_optional_assembly_steps(barrier_days, tmp_path):
    """A pilot with a fault plan and resilience restores byte-identically.

    The WAN partition spans days 2-3; the heal fires at the 3-day barrier
    itself, with the uplink breaker still open.
    """
    from repro.resilience import ResilienceConfig

    from tests.test_fault_injection import TestFaultPlanEndToEnd

    fixture = TestFaultPlanEndToEnd()
    config = dataclasses.replace(
        fixture.config(fixture.plan()), resilience=ResilienceConfig())
    expected = dataclasses.asdict(PilotRunner(config).run_season())
    assert expected["breaker_opens"] > 0 and expected["degraded_episodes"] > 0
    runner = PilotRunner(config)
    runner.run_until(barrier_days * DAY)
    path = tmp_path / "faulted.ck"
    cp.save_checkpoint(cp.snapshot(runner), str(path))
    assert _fresh_process_restore(path) == expected


@pytest.fixture(scope="module")
def tiny_matopiba_report():
    """The uninterrupted TINY_MATOPIBA season, as the restore oracle."""
    return dataclasses.asdict(PILOT_BUILDERS["matopiba"](**TINY_MATOPIBA).run_season())


@settings(max_examples=20, deadline=None)
@example(barrier_s=HOUR)
@example(barrier_s=6 * HOUR)  # the first irrigation decision cycle
@given(barrier_s=st.floats(min_value=0.0, max_value=4 * DAY,
                           exclude_min=True, exclude_max=True))
def test_replay_restore_at_any_barrier(tiny_matopiba_report, barrier_s):
    """Snapshot at any barrier, restore, resume: the uninterrupted report."""
    runner = PILOT_BUILDERS["matopiba"](**TINY_MATOPIBA)
    runner.run_until(barrier_s)
    recipe = cp.RunRecipe(pilot="matopiba", builder_kwargs=TINY_MATOPIBA)
    report = cp.resume(cp.restore(cp.snapshot(runner, recipe=recipe)))
    assert dataclasses.asdict(report) == tiny_matopiba_report


class TestSnapshotRestore:
    def _paused_runner(self, barrier_days=2):
        runner = PILOT_BUILDERS["matopiba"](**TINY_MATOPIBA)
        runner.run_until(barrier_days * DAY)
        return runner

    def test_in_process_round_trip(self, tmp_path):
        baseline = PILOT_BUILDERS["matopiba"](**TINY_MATOPIBA)
        expected = dataclasses.asdict(baseline.run_season())

        runner = self._paused_runner()
        recipe = cp.RunRecipe(pilot="matopiba", builder_kwargs=TINY_MATOPIBA)
        path = tmp_path / "run.ck"
        cp.save_checkpoint(cp.snapshot(runner, recipe=recipe), str(path))
        assert cp.restore_and_resume(str(path)) == expected

    def test_restore_overlays_original_wall_time(self, tmp_path):
        runner = self._paused_runner()
        ck = cp.snapshot(
            runner, recipe=cp.RunRecipe(pilot="matopiba", builder_kwargs=TINY_MATOPIBA)
        )
        assert ck.kernel.wall_time_s == runner.sim.wall_time_s
        restored = cp.restore(ck)
        assert restored.runner.sim.wall_time_s == ck.kernel.wall_time_s
        assert restored.replay_wall_s > 0.0

    def test_tampered_checkpoint_raises_state_mismatch(self):
        runner = self._paused_runner()
        ck = cp.snapshot(
            runner, recipe=cp.RunRecipe(pilot="matopiba", builder_kwargs=TINY_MATOPIBA)
        )
        ck.kernel.events_executed += 1
        with pytest.raises(cp.CheckpointStateMismatch, match="reconverge"):
            cp.restore(ck)

    def test_unpicklable_config_raises_checkpoint_error(self, tmp_path):
        # cbec's config carries the canal-network supply_gate closure; a
        # config-mode recipe must fail loudly, pointing at the named-pilot
        # alternative.
        runner = PILOT_BUILDERS["cbec"](seed=1)
        runner.run_until(DAY)
        with pytest.raises(cp.CheckpointError, match="supply_gate"):
            cp.save_checkpoint(cp.snapshot(runner), str(tmp_path / "bad.ck"))

    def test_closure_pilot_restores_via_named_recipe(self, tmp_path):
        baseline = PILOT_BUILDERS["cbec"](seed=1)
        baseline.run_days(3)
        expected = dataclasses.asdict(baseline.report())

        runner = PILOT_BUILDERS["cbec"](seed=1)
        runner.run_until(DAY)
        ck = cp.snapshot(
            runner,
            recipe=cp.RunRecipe(pilot="cbec", builder_kwargs=dict(seed=1)),
            horizon_s=3 * DAY,
        )
        path = tmp_path / "cbec.ck"
        cp.save_checkpoint(ck, str(path))
        resumed = cp.resume(cp.restore(str(path)))
        assert dataclasses.asdict(resumed) == expected

    def test_version_gate(self, tmp_path):
        runner = self._paused_runner()
        ck = cp.snapshot(
            runner, recipe=cp.RunRecipe(pilot="matopiba", builder_kwargs=TINY_MATOPIBA)
        )
        ck.version = cp.CHECKPOINT_VERSION + 1
        path = tmp_path / "future.ck"
        cp.save_checkpoint(ck, str(path))
        with pytest.raises(cp.CheckpointError, match="version"):
            cp.load_checkpoint(str(path))

    def test_load_rejects_non_checkpoint_payload(self, tmp_path):
        import pickle

        from repro.store.segment import write_sealed

        path = tmp_path / "junk.ck"
        write_sealed(str(path), pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(cp.CheckpointError, match="RunCheckpoint"):
            cp.load_checkpoint(str(path))

    def test_saved_checkpoints_are_sealed_blobs(self, tmp_path):
        from repro.store.segment import SEALED_MAGIC, read_sealed

        runner = self._paused_runner()
        path = tmp_path / "sealed.ck"
        cp.save_checkpoint(cp.snapshot(
            runner,
            recipe=cp.RunRecipe(pilot="matopiba", builder_kwargs=TINY_MATOPIBA),
        ), str(path))
        assert path.read_bytes()[: len(SEALED_MAGIC)] == SEALED_MAGIC
        read_sealed(str(path))  # frame verifies end-to-end
        assert cp.load_checkpoint(str(path)).kernel is not None

    @pytest.mark.parametrize("cut_back", [1, 17, 4096])
    def test_torn_checkpoint_is_rejected_loudly(self, tmp_path, cut_back):
        """A crash mid-checkpoint-write must never restore garbage: any
        truncation of the sealed file fails the CRC gate with a typed
        error instead of unpickling a partial stream."""
        runner = self._paused_runner()
        path = tmp_path / "torn.ck"
        cp.save_checkpoint(cp.snapshot(
            runner,
            recipe=cp.RunRecipe(pilot="matopiba", builder_kwargs=TINY_MATOPIBA),
        ), str(path))
        blob = path.read_bytes()
        assert len(blob) > cut_back
        path.write_bytes(blob[:-cut_back])
        with pytest.raises(cp.CheckpointError, match="torn or corrupt"):
            cp.load_checkpoint(str(path))

    def test_corrupted_checkpoint_byte_is_rejected_loudly(self, tmp_path):
        runner = self._paused_runner()
        path = tmp_path / "flipped.ck"
        cp.save_checkpoint(cp.snapshot(
            runner,
            recipe=cp.RunRecipe(pilot="matopiba", builder_kwargs=TINY_MATOPIBA),
        ), str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(cp.CheckpointError, match="torn or corrupt"):
            cp.load_checkpoint(str(path))

    @pytest.mark.parametrize("damage", [
        lambda blob: bytes([blob[0] ^ 0xFF]) + blob[1:],
        lambda blob: blob[:3],
        lambda blob: b"",
    ], ids=["first-byte-flipped", "cut-to-3-bytes", "empty"])
    def test_damaged_magic_is_a_checkpoint_error(self, tmp_path, damage):
        """Damage to the blob's magic is reported like any other
        corruption, never handed to the unpickler."""
        runner = self._paused_runner()
        path = tmp_path / "damaged.ck"
        cp.save_checkpoint(cp.snapshot(
            runner,
            recipe=cp.RunRecipe(pilot="matopiba", builder_kwargs=TINY_MATOPIBA),
        ), str(path))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(cp.CheckpointError, match="torn or corrupt"):
            cp.load_checkpoint(str(path))


class TestRunOptionsIntegration:
    def test_checkpointed_run_report_matches_plain_run(self, tmp_path):
        plain = run(RunOptions(pilot="matopiba", seed=3,
                               pilot_kwargs=dict(TINY_MATOPIBA)))
        path = tmp_path / "run.ck"
        checkpointed = run(RunOptions(
            pilot="matopiba", seed=3, pilot_kwargs=dict(TINY_MATOPIBA),
            checkpoint=str(path),
        ))
        assert dataclasses.asdict(checkpointed.report) == dataclasses.asdict(plain.report)
        assert path.exists()
        # The file restores to the same end state.
        assert cp.restore_and_resume(str(path)) == dataclasses.asdict(plain.report)

    def test_checkpoint_every_writes_latest_barrier(self, tmp_path):
        path = tmp_path / "run.ck"
        result = run(RunOptions(
            pilot="matopiba", seed=3, pilot_kwargs=dict(TINY_MATOPIBA),
            checkpoint=str(path), checkpoint_every_s=float(DAY),
        ))
        ck = cp.load_checkpoint(str(path))
        # Horizon is season_end_s = 4*DAY + HOUR, so the last interior
        # daily barrier (and hence the surviving write) sits at day 4.
        assert ck.barrier_s == 4 * DAY
        assert cp.restore_and_resume(str(path)) == dataclasses.asdict(result.report)

    def test_restore_option_resumes(self, tmp_path):
        path = tmp_path / "run.ck"
        original = run(RunOptions(
            pilot="matopiba", seed=3, pilot_kwargs=dict(TINY_MATOPIBA),
            checkpoint=str(path),
        ))
        resumed = run(RunOptions(restore=str(path)))
        assert dataclasses.asdict(resumed.report) == dataclasses.asdict(original.report)

    def test_nonpositive_interval_rejected(self, tmp_path):
        with pytest.raises(cp.CheckpointError, match="positive"):
            run(RunOptions(
                pilot="matopiba", seed=3, pilot_kwargs=dict(TINY_MATOPIBA),
                checkpoint=str(tmp_path / "x.ck"), checkpoint_every_s=0.0,
            ))


class TestCliIntegration:
    def test_parser_accepts_checkpoint_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "matopiba", "--checkpoint", "x.ck", "--checkpoint-every", "86400"]
        )
        assert args.checkpoint == "x.ck"
        assert args.checkpoint_every == 86400.0

    def test_parser_accepts_restore_without_pilot(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "--restore", "x.ck"])
        assert args.restore == "x.ck"
        assert args.pilot == "matopiba"  # unused default

    def test_checkpoint_and_restore_mutually_exclusive(self, tmp_path):
        import io

        from repro.cli import main

        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["run", "matopiba", "--checkpoint", "a", "--restore", "b"],
                 out=io.StringIO())

    def test_cli_restore_round_trip(self, tmp_path):
        import io

        from repro.cli import main

        path = tmp_path / "run.ck"
        original = run(RunOptions(
            pilot="matopiba", seed=3, pilot_kwargs=dict(TINY_MATOPIBA),
            checkpoint=str(path),
        ))
        out = io.StringIO()
        assert main(["run", "--restore", str(path)], out=out) == 0
        text = out.getvalue()
        assert f"restored from {path}" in text
        assert f"{original.report.irrigation_m3:.1f} m3" in text
