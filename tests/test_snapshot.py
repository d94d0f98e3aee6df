"""Kernel snapshots: fingerprints and segmented execution.

The determinism-critical regressions pinned here:

* a snapshot is the kernel's fingerprint plus wall time, and a
  fingerprint of another format version is reported as a divergence;
* ``run_until`` segmented execution is bit-identical to one
  uninterrupted ``run``, and wall-clock accounting accumulates across
  segments;
* every pinned pilot, rebuilt and replayed to the same instant,
  reconverges on the same fingerprint, RNG stream states included.
"""

import pickle

import pytest

from repro.core.pilots import PILOT_BUILDERS
from repro.simkernel import SNAPSHOT_VERSION, Simulator, compare_fingerprints
from repro.simkernel.clock import HOUR

FIRED = []


def record(tag):
    FIRED.append(tag)


@pytest.fixture(autouse=True)
def _clear_fired():
    FIRED.clear()


class TestSimulatorSnapshot:
    def _loaded_sim(self):
        sim = Simulator(seed=4)
        sim.schedule(1.0, record, ("one",))
        sim.schedule(2.0, record, ("two",))
        sim.schedule(3.0, record, ("three",))
        sim.rng.stream("noise").random()
        return sim

    def test_version_gate(self):
        snap = self._loaded_sim().snapshot()
        assert snap.version == SNAPSHOT_VERSION
        future = {**snap.fingerprint(), "version": SNAPSHOT_VERSION + 1}
        problems = compare_fingerprints(future, self._loaded_sim().fingerprint())
        assert len(problems) == 1 and "version" in problems[0]

    def test_fingerprint_matches_snapshot_fingerprint(self):
        sim = self._loaded_sim()
        sim.run_until(1.5)
        snap = pickle.loads(pickle.dumps(sim.snapshot()))
        assert snap.fingerprint() == sim.fingerprint()
        assert compare_fingerprints(snap.fingerprint(), sim.fingerprint()) == []
        assert snap.wall_time_s == sim.wall_time_s

    def test_compare_fingerprints_describes_divergence(self):
        sim = self._loaded_sim()
        expected = sim.snapshot().fingerprint()
        sim.run(until=3.0)
        problems = compare_fingerprints(expected, sim.fingerprint())
        assert problems
        assert any("events_executed" in p for p in problems)


class TestRunUntil:
    def _sim(self):
        sim = Simulator(seed=1)
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, record, (t,))
        return sim

    def test_segmented_equals_uninterrupted(self):
        one_shot = self._sim()
        one_shot.run(until=4.0)
        expected = list(FIRED)

        FIRED.clear()
        segmented = self._sim()
        segmented.run_until(1.5)
        assert segmented.now == 1.5
        segmented.run_until(2.5)
        segmented.run(until=4.0)
        assert FIRED == expected
        assert segmented.fingerprint() == one_shot.fingerprint()

    def test_wall_time_accumulates_across_segments(self):
        sim = self._sim()
        sim.run_until(1.0)
        first = sim.wall_time_s
        assert first > 0.0
        sim.run_until(2.0)
        assert sim.wall_time_s > first

    def test_stop_inside_segment_still_ends_run(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, sim.stop, ("done",))
        sim.run_until(5.0)
        assert sim.stopped_reason == "done"


@pytest.mark.parametrize("pilot", sorted(PILOT_BUILDERS))
def test_pilot_rng_streams_round_trip(pilot):
    """Every pinned pilot's kernel state survives a snapshot and replay.

    Runs two hours of the real pilot (devices, radio, weather all drawing
    from their streams) and snapshots it, then rebuilds the pilot,
    replays it to the same instant and checks that the two fingerprints,
    every RNG stream's draw position included, compare equal.
    """
    def two_hours_in():
        runner = PILOT_BUILDERS[pilot](seed=13)
        runner.run_until(2 * HOUR)
        return runner.sim

    snap = pickle.loads(pickle.dumps(two_hours_in().snapshot()))
    assert snap.rng, f"{pilot} touched no RNG streams"
    assert compare_fingerprints(snap.fingerprint(), two_hours_in().fingerprint()) == []
