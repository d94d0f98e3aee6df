"""Kernel snapshot/restore: clock, queue, RNG, trace, whole simulator.

The determinism-critical regressions pinned here:

* the EventQueue tie-break sequence counter survives a snapshot
  boundary, so two events at the same ``(time, priority)`` keep their
  FIFO order after restore;
* ``run_until`` segmented execution is bit-identical to one
  uninterrupted ``run``, and wall-clock accounting accumulates across
  segments and survives restore;
* every pinned pilot's RNG stream states round-trip exactly.
"""

import pickle

import pytest

from repro.core.pilots import PILOT_BUILDERS
from repro.simkernel import (
    SNAPSHOT_VERSION,
    EventQueue,
    KernelSnapshot,
    Simulator,
    SnapshotError,
    compare_fingerprints,
)
from repro.simkernel.clock import DAY, HOUR, SimClock
from repro.simkernel.rng import RngRegistry
from repro.simkernel.trace import TraceLog

# Module-level so scheduled-event callbacks pickle (full kernel restore).
FIRED = []


def record(tag):
    FIRED.append(tag)


def record_a():
    FIRED.append("a")


def record_b():
    FIRED.append("b")


@pytest.fixture(autouse=True)
def _clear_fired():
    FIRED.clear()


class TestClockSnapshot:
    def test_round_trip(self):
        clock = SimClock()
        clock.advance_to(123.5)
        restored = SimClock()
        restored.restore(clock.snapshot())
        assert restored.now == 123.5

    def test_restore_may_move_backwards(self):
        clock = SimClock()
        clock.advance_to(10.0)
        clock.restore(2.5)
        assert clock.now == 2.5

    def test_restore_rejects_negative(self):
        with pytest.raises(Exception):
            SimClock().restore(-1.0)


class TestEventQueueSnapshot:
    def test_round_trip_preserves_execution_order(self):
        queue = EventQueue()
        queue.push(5.0, record, ("late",))
        queue.push(1.0, record, ("early",))
        queue.push(3.0, record, ("mid",), priority=10)
        restored = EventQueue()
        restored.restore(pickle.loads(pickle.dumps(queue.snapshot())))
        assert restored.signature() == queue.signature()
        order = [restored.pop().args[0] for _ in range(3)]
        assert order == ["early", "mid", "late"]

    def test_cancelled_events_excluded(self):
        queue = EventQueue()
        keep = queue.push(1.0, record, ("keep",))
        drop = queue.push(1.0, record, ("drop",))
        drop.cancel()
        queue.note_cancelled()
        snap = queue.snapshot()
        assert len(snap["events"]) == 1
        assert snap["events"][0][3] is record

    def test_tie_break_counter_survives_snapshot_boundary(self):
        # Two events at the same (time, priority): FIFO by sequence.
        # The regression this pins: a restore that re-derived sequence
        # numbers (instead of restoring the counter) could reorder them
        # or collide with post-restore pushes.
        queue = EventQueue()
        queue.push(7.0, record_a, priority=50)
        queue.push(7.0, record_b, priority=50)
        snap = pickle.loads(pickle.dumps(queue.snapshot()))

        restored = EventQueue()
        restored.restore(snap)
        # A push after restore continues the original counter: it must
        # sort *after* the two restored events despite the equal key.
        restored.push(7.0, record, ("c",), priority=50)
        first, second, third = (restored.pop() for _ in range(3))
        assert (first.callback, second.callback) == (record_a, record_b)
        assert third.args == ("c",)
        assert [first.seq, second.seq, third.seq] == [0, 1, 2]

    def test_malformed_snapshot_raises(self):
        with pytest.raises(SnapshotError):
            EventQueue().restore({"events": []})


class TestRngSnapshot:
    def test_round_trip_resumes_sequences(self):
        rng = RngRegistry(99)
        stream = rng.stream("weather")
        before = [stream.random() for _ in range(10)]
        snap = pickle.loads(pickle.dumps(rng.snapshot()))
        expected = [stream.random() for _ in range(10)]

        restored = RngRegistry(99)
        restored.restore(snap)
        assert [restored.stream("weather").random() for _ in range(10)] == expected
        assert before != expected  # the stream actually advanced

    def test_untouched_streams_start_from_derived_seed(self):
        rng = RngRegistry(5)
        rng.stream("a").random()
        restored = RngRegistry(5)
        restored.restore(rng.snapshot())
        # "b" was never touched before the snapshot: both sides derive it
        # lazily and must agree.
        assert restored.stream("b").random() == RngRegistry(5).stream("b").random()

    def test_master_seed_mismatch_rejected(self):
        with pytest.raises(SnapshotError):
            RngRegistry(1).restore(RngRegistry(2).snapshot())


class TestTraceSnapshot:
    def test_round_trip(self):
        trace = TraceLog(max_records=3)
        for i in range(5):
            trace.emit(float(i), "cat", f"m{i}", n=i)
        restored = TraceLog()
        restored.restore(pickle.loads(pickle.dumps(trace.snapshot())))
        assert len(restored) == 3
        assert restored.dropped == 2
        assert restored.count("cat") == 5
        assert [r.message for r in restored] == ["m2", "m3", "m4"]


class TestSimulatorSnapshot:
    def _loaded_sim(self):
        sim = Simulator(seed=4)
        sim.schedule(1.0, record, ("one",))
        sim.schedule(2.0, record, ("two",))
        sim.schedule(3.0, record, ("three",))
        sim.rng.stream("noise").random()
        return sim

    def test_full_restore_is_bit_identical(self):
        sim = self._loaded_sim()
        sim.run_until(1.5)
        snap = pickle.loads(pickle.dumps(sim.snapshot()))
        FIRED.clear()
        baseline = self._loaded_sim()
        baseline.run(until=3.0)
        full_fired = list(FIRED)

        FIRED.clear()
        FIRED.append("one")  # already executed before the snapshot
        restored = Simulator(seed=4)
        restored.restore(snap)
        assert restored.now == 1.5
        assert restored.events_executed == 1
        restored.run(until=3.0)
        assert FIRED == full_fired
        assert restored.fingerprint() == baseline.fingerprint()

    def test_restore_requires_events(self):
        sim = self._loaded_sim()
        snap = sim.snapshot(include_events=False)
        assert snap.queue is None
        with pytest.raises(SnapshotError, match="checkpoint"):
            Simulator(seed=4).restore(snap)

    def test_version_gate(self):
        snap = self._loaded_sim().snapshot()
        assert snap.version == SNAPSHOT_VERSION
        bad = KernelSnapshot(**{**snap.__dict__, "version": SNAPSHOT_VERSION + 1})
        with pytest.raises(SnapshotError, match="version"):
            Simulator(seed=4).restore(bad)

    def test_fingerprint_matches_snapshot_fingerprint(self):
        sim = self._loaded_sim()
        sim.run_until(1.5)
        assert compare_fingerprints(
            sim.snapshot(include_events=False).fingerprint(), sim.fingerprint()
        ) == []

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

    def test_wall_time_survives_restore(self):
        sim = self._sim()
        sim.run_until(2.5)
        snap = sim.snapshot()
        restored = Simulator(seed=1)
        restored.restore(snap)
        assert restored.wall_time_s == sim.wall_time_s
        restored.run(until=4.0)
        assert restored.wall_time_s > snap.wall_time_s

    def test_stop_inside_segment_still_ends_run(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, sim.stop, ("done",))
        sim.run_until(5.0)
        assert sim.stopped_reason == "done"


class TestProcessFactories:
    def test_spawn_registered_requires_registration(self):
        sim = Simulator()
        with pytest.raises(Exception, match="no process factory"):
            sim.spawn_registered("ghost")

    def test_registered_factory_spawns_and_lists(self):
        sim = Simulator()

        def loop():
            yield 1.0
            record("ticked")

        sim.register_process_factory("ticker", loop)
        sim.spawn_registered("ticker")
        assert "ticker" in sim.process_factory_names()
        sim.run(until=2.0)
        assert FIRED == ["ticked"]


@pytest.mark.parametrize("pilot", sorted(PILOT_BUILDERS))
def test_pilot_rng_streams_round_trip(pilot):
    """Satellite: every pinned pilot's RNG registry survives a snapshot.

    Runs two hours of the real pilot (devices, radio, weather all drawing
    from their streams), snapshots, and checks a rebuilt registry resumes
    every stream at exactly the captured draw position.
    """
    runner = PILOT_BUILDERS[pilot](seed=13)
    runner.start_season()
    runner.sim.run_until(2 * HOUR)
    snap = pickle.loads(pickle.dumps(runner.sim.rng.snapshot()))
    assert snap["streams"], f"{pilot} touched no RNG streams"

    restored = RngRegistry(13)
    restored.restore(snap)
    assert restored.snapshot() == runner.sim.rng.snapshot()
    # And the next draw of every stream agrees with the live kernel.
    for name in runner.sim.rng.stream_names():
        assert restored.stream(name).random() == runner.sim.rng.stream(name).random()
