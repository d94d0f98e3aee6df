"""The durable segment store: frames, barriers, crash recovery, faults.

The central property (E20): after a simulated ``process_kill`` at *any*
point in a run, the recovered state is bit-identical to an uninterrupted
run truncated at the commit point — committed records never vanish,
recovered records are always a strict prefix of what was accepted, and
the rebuilt history serves exactly the reads that prefix implies.
"""

import os
import random

import pytest

from repro.context.broker import ContextBroker
from repro.context.history import MINUTE_S, HistoryQuery, ShortTermHistory
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError
from repro.simkernel.simulator import Simulator
from repro.store import (
    CompactionKilled,
    CorruptBlobError,
    DurabilityService,
    ScanResult,
    SegmentStore,
    StorageFaults,
    StoreError,
    decode_sample,
    encode_record,
    encode_sample,
    read_sealed,
    scan_records,
    write_sealed,
)

EID = "urn:AgriParcel:demo:0-0"
ATTR = "soilMoisture"


def payloads_for(n, start=0):
    return [encode_sample(EID, ATTR, 10.0 * i, 0.1 * i) for i in range(start, n)]


class TestFraming:
    def test_sample_codec_round_trips(self):
        payload = encode_sample(EID, ATTR, 12.5, 0.375)
        assert decode_sample(payload) == (EID, ATTR, 12.5, 0.375)

    def test_scan_recovers_every_frame(self):
        data = b"".join(encode_record(p) for p in payloads_for(5))
        result = scan_records(b"SWS1" + data)
        assert result.payloads == payloads_for(5)
        assert not result.torn

    def test_scan_truncates_at_first_bad_checksum(self):
        frames = [encode_record(p) for p in payloads_for(3)]
        blob = bytearray(b"SWS1" + b"".join(frames))
        # Flip one payload byte inside the second frame.
        offset = 4 + len(frames[0]) + 8 + 2
        blob[offset] ^= 0xFF
        result = scan_records(bytes(blob))
        assert result.payloads == payloads_for(1)
        assert result.torn
        assert result.clean_end == 4 + len(frames[0])

    def test_scan_tolerates_partial_tail_and_garbage(self):
        whole = b"SWS1" + encode_record(b"x")
        for cut in range(len(whole) - 1, 4, -1):
            result = scan_records(whole[:cut])
            assert result.payloads == [] and result.torn
        assert scan_records(b"") == ScanResult([], 0, torn=False)
        assert scan_records(b"JUNKJUNK").torn

    def test_sealed_blob_round_trip_and_corruption(self, tmp_path):
        path = str(tmp_path / "blob")
        write_sealed(path, b"precious bytes")
        assert read_sealed(path) == b"precious bytes"
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.truncate()
        with pytest.raises(CorruptBlobError):
            read_sealed(path)


class TestSegmentStore:
    def test_append_commit_read_back(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        for p in payloads_for(10):
            store.append(p)
        assert store.volatile_records == 10
        assert store.commit()
        assert store.volatile_records == 0
        assert store.read_all() == payloads_for(10)

    def test_rotation_is_a_durability_barrier(self, tmp_path):
        store = SegmentStore(str(tmp_path), max_segment_bytes=200)
        for p in payloads_for(12):
            store.append(p)
        assert store.segment_count > 1
        # Every record in a sealed (non-final) segment is durable even
        # though no explicit commit ran.
        assert store.committed >= store.appended - store._records_in_active

    def test_recover_truncates_torn_tail_only(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        for p in payloads_for(8):
            store.append(p)
        store.commit()
        for p in payloads_for(12, start=8):
            store.append(p)
        store.crash(surviving_tail_bytes=5)  # a partial frame survives
        recovered = store.recover()
        assert recovered == payloads_for(8)
        assert store.torn_tails_truncated == 1
        # The reopened tail appends cleanly after the truncation.
        store.append(b"after")
        assert store.commit()
        assert store.read_all() == payloads_for(8) + [b"after"]

    def test_mid_log_corruption_fails_loudly(self, tmp_path):
        store = SegmentStore(str(tmp_path), max_segment_bytes=120)
        for p in payloads_for(12):
            store.append(p)
        store.commit()
        store.close()
        first = sorted(tmp_path.glob("seg-*.log"))[0]
        blob = bytearray(first.read_bytes())
        blob[-2] ^= 0xFF
        first.write_bytes(bytes(blob))
        reopened = SegmentStore(str(tmp_path), max_segment_bytes=120)
        with pytest.raises(StoreError, match="corrupt mid-log"):
            reopened.recover()

    def test_torn_write_is_repaired_in_place(self, tmp_path):
        faults = StorageFaults()
        store = SegmentStore(str(tmp_path), faults=faults)
        store.append(b"first")
        faults.arm_torn_write(0.5)
        store.append(b"second landed whole")
        assert store.commit()
        assert faults.torn_writes == 1
        assert store.read_all() == [b"first", b"second landed whole"]

    def test_stalled_and_failed_barriers_defer_durability(self, tmp_path):
        faults = StorageFaults()
        store = SegmentStore(str(tmp_path), faults=faults)
        store.append(b"a")
        faults.stalled = True
        assert not store.commit()
        faults.stalled = False
        faults.fsync_lost = True
        assert not store.commit()
        assert store.committed == 0
        assert store.deferred_commits == 1 and store.failed_commits == 1
        faults.fsync_lost = False
        assert store.commit()
        assert store.committed == 1


def durable_fixture(tmp_path, flush_interval_s=50.0):
    sim = Simulator(seed=9)
    broker = ContextBroker(sim)
    history = ShortTermHistory(broker, rollup_periods=(MINUTE_S,))
    store = SegmentStore(str(tmp_path))
    service = DurabilityService(sim, history, store,
                                flush_interval_s=flush_interval_s)
    service.start()
    broker.create_entity(EID, "AgriParcel")
    return sim, broker, history, service


def feed(sim, broker, n, dt=10.0):
    for i in range(n):
        broker.update_attributes(EID, {ATTR: 0.1 + 0.01 * (i % 30)})
        sim.run_until(sim.now + dt)


class TestCrashRecoveryProperty:
    def test_recovery_is_prefix_identical_over_many_kill_points(self, tmp_path):
        """E20's core property, swept over >= 50 kill points.

        A reference run records the full payload sequence; then for each
        kill point we re-run, crash mid-flush with a varying surviving
        tail, recover, and require (a) no committed record lost, (b) the
        recovered log is bit-identical to the reference prefix, (c) the
        rebuilt history answers exactly like a fresh history fed that
        prefix.
        """
        ref_dir = tmp_path / "ref"
        sim, broker, history, service = durable_fixture(ref_dir)
        feed(sim, broker, 120)
        reference = service.store.read_all()
        assert len(reference) == 120

        kill_points = [(k, (k * 7) % 23) for k in range(5, 115, 2)]
        assert len(kill_points) >= 50
        for samples_before_kill, surviving in kill_points:
            run_dir = tmp_path / f"kill-{samples_before_kill}-{surviving}"
            sim, broker, history, service = durable_fixture(run_dir)
            feed(sim, broker, samples_before_kill)
            committed_before = service.store.committed
            service.crash_and_recover(surviving_tail_bytes=surviving)
            recovered = service.store.read_all()

            assert len(recovered) >= committed_before
            assert recovered == reference[: len(recovered)], (
                samples_before_kill, surviving)
            assert service.lost_committed == 0
            assert service.prefix_consistent

            replica = ShortTermHistory(
                ContextBroker(Simulator(seed=1)), rollup_periods=(MINUTE_S,))
            replica.rebuild_from_samples(decode_sample(p) for p in recovered)
            raw = HistoryQuery(EID, ATTR)
            sums = HistoryQuery(EID, ATTR, period_s=MINUTE_S, method="sum")
            assert history.read(raw, source="memory").rows == \
                replica.read(raw, source="memory").rows
            assert history.read(sums, source="memory").rows == \
                replica.read(sums, source="memory").rows

    def test_writes_after_recovery_extend_the_prefix(self, tmp_path):
        sim, broker, history, service = durable_fixture(tmp_path)
        feed(sim, broker, 30)
        service.crash_and_recover(surviving_tail_bytes=3)
        feed(sim, broker, 20)
        sim.run_until(sim.now + 100.0)
        assert service.prefix_consistent
        assert service.lost_committed == 0
        assert service.store.committed == service.store.appended
        # The history and the log agree end-to-end after the second leg.
        log_samples = [decode_sample(p) for p in service.store.read_all()]
        assert [(t, v) for _e, _a, t, v in log_samples] == \
            history.read(HistoryQuery(EID, ATTR), source="memory").rows


class TestResidentTail:
    """The in-memory WAL tail reads are served from equals the disk."""

    #: Surviving volatile-tail bytes a crash leaves: none, part of a
    #: frame header, part of a payload, whole frames.
    CUTS = (0, 3, 17, 60, 10_000)

    def rig(self, root):
        sim = Simulator(seed=3)
        broker = ContextBroker(sim)
        history = ShortTermHistory(broker)
        broker.create_entity(EID, "AgriParcel")
        faults = StorageFaults()
        store = SegmentStore(str(root), max_segment_bytes=400, faults=faults)
        # No flush pump: the test issues every barrier itself.
        service = DurabilityService(sim, history, store, flush_interval_s=1e9)
        compaction = service.enable_compaction(interval_s=1e9, block_size=4)
        return sim, broker, store, compaction, faults

    @staticmethod
    def crash_and_recover(store, compaction, surviving):
        store.crash(surviving_tail_bytes=surviving)
        with pytest.raises(StoreError, match="recover"):
            store.resident()
        compaction.recover()
        store.recover()

    def test_resident_equals_disk_after_every_step(self, tmp_path):
        ops = ("append", "torn", "commit", "stall", "lose_fsync", "compact", "crash")
        weights = (50, 6, 10, 5, 5, 12, 8)
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            sim, broker, store, compaction, faults = self.rig(tmp_path / f"seed-{seed}")
            crashes = 0
            for step in range(300):
                op = rng.choices(ops, weights)[0]
                if op in ("append", "torn"):
                    if op == "torn":
                        faults.arm_torn_write(rng.random())
                    sim.run_until(sim.now + 10.0)
                    broker.update_attributes(EID, {ATTR: rng.random()})
                elif op == "commit":
                    store.commit()
                elif op == "stall":
                    faults.stalled = not faults.stalled
                elif op == "lose_fsync":
                    faults.fsync_lost = not faults.fsync_lost
                elif op == "compact":
                    compaction.kill_after = rng.choice(
                        (None, "chunk_sealed", "meta_written"))
                    try:
                        compaction.compact_once()
                    except CompactionKilled:
                        self.crash_and_recover(store, compaction, rng.choice(self.CUTS))
                        crashes += 1
                    compaction.kill_after = None
                else:
                    self.crash_and_recover(store, compaction, rng.choice(self.CUTS))
                    crashes += 1
                assert list(store.resident()) == store.read_all(), (seed, step, op)
            # Every mechanism the property is about actually ran.
            assert store.rotations and store.dropped_segments and crashes
            assert faults.torn_writes and store.torn_tails_truncated
            assert store.deferred_commits and store.failed_commits
            faults.stalled = faults.fsync_lost = False
            store.close()
            assert list(store.resident()) == store.read_all()
            reopened = SegmentStore(str(tmp_path / f"seed-{seed}"),
                                    max_segment_bytes=400)
            assert list(reopened.resident()) == store.read_all()
            reopened.close()

    def test_resident_raises_between_crash_and_recover(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        for p in payloads_for(8):
            store.append(p)
        store.commit()
        for p in payloads_for(12, start=8):
            store.append(p)
        store.crash(surviving_tail_bytes=5)
        with pytest.raises(StoreError, match="recover"):
            store.resident()
        store.recover()
        assert list(store.resident()) == payloads_for(8) == store.read_all()
        store.close()


class TestFaultPlanIntegration:
    def apply_plan(self, tmp_path, events, horizon_s=2000.0):
        sim, broker, history, service = durable_fixture(
            tmp_path, flush_interval_s=50.0)
        injector = FaultInjector(sim)
        injector.register_store("store", service)
        injector.apply(FaultPlan("storage", list(events)))
        feed(sim, broker, int(horizon_s // 10), dt=10.0)
        # One more flush window so the final appends hit a barrier.
        sim.run_until(sim.now + 60.0)
        return sim, service, injector

    def test_disk_stall_defers_commits_until_recovery(self, tmp_path):
        _sim, service, injector = self.apply_plan(
            tmp_path,
            [FaultEvent("disk_stall", "store", at_s=100.0, duration_s=400.0)])
        assert service.store.deferred_commits >= 7
        assert injector.recovered == 1
        assert service.store.committed == service.store.appended
        assert service.lost_committed == 0

    def test_fsync_lost_never_advances_the_watermark(self, tmp_path):
        _sim, service, _injector = self.apply_plan(
            tmp_path,
            [FaultEvent("fsync_lost", "store", at_s=100.0, duration_s=400.0)])
        assert service.store.failed_commits >= 7
        assert service.store.committed == service.store.appended
        assert service.lost_committed == 0

    def test_torn_write_then_kill_round_trip(self, tmp_path):
        _sim, service, _injector = self.apply_plan(
            tmp_path,
            [FaultEvent("disk_torn_write", "store", at_s=100.0,
                        params={"fraction": 0.4}),
             FaultEvent("process_kill", "store", at_s=900.0,
                        params={"surviving_tail_bytes": 11})])
        assert service.store.faults.torn_writes == 1
        assert service.recoveries == 1
        assert service.lost_committed == 0
        assert service.prefix_consistent

    def test_unknown_store_target_fails_at_schedule_time(self, tmp_path):
        sim = Simulator(seed=1)
        injector = FaultInjector(sim)
        with pytest.raises(FaultPlanError, match="unknown store"):
            injector.apply(FaultPlan("bad", [
                FaultEvent("disk_stall", "nope", at_s=1.0, duration_s=5.0)]))

    def test_one_shot_kinds_reject_durations(self):
        with pytest.raises(FaultPlanError, match="one-shot"):
            FaultEvent("process_kill", "store", at_s=1.0, duration_s=5.0).validate()


class TestRunIntegration:
    def test_store_dir_attaches_and_survives_a_short_run(self, tmp_path):
        from repro.api import RunOptions, run

        result = run(RunOptions(
            pilot="matopiba", days=0.1,
            store_dir=str(tmp_path / "wal"), store_flush_s=30.0))
        durability = result.runner.durability
        assert durability.store.appended > 0
        assert durability.store.committed == durability.store.appended
        assert durability.report()["lost_committed"] == 0

    def test_store_dir_rejected_with_chaos_and_checkpoint(self, tmp_path):
        from repro.api import RunOptions, run

        for extra in ({"chaos": True}, {"checkpoint": str(tmp_path / "ck")}):
            with pytest.raises(ValueError, match="store_dir is not supported"):
                run(RunOptions(pilot="matopiba", days=0.1,
                               store_dir=str(tmp_path / "wal"), **extra))

    def test_storage_invariants_audit_a_recovered_runner(self, tmp_path):
        from repro.api import check_storage_invariants

        sim, broker, history, service = durable_fixture(tmp_path)
        feed(sim, broker, 40)
        service.crash_and_recover(surviving_tail_bytes=4)

        class RunnerStub:
            durability = service

        results = check_storage_invariants(RunnerStub())
        assert results and all(r.ok for r in results)
        names = {r.name for r in results}
        assert "no committed record lost" in names
