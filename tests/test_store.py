"""The durable segment store: frames, barriers, crash recovery, faults.

The central property (E20): after a simulated ``process_kill`` at *any*
point in a run, the recovered state is bit-identical to an uninterrupted
run truncated at the commit point — committed records never vanish,
recovered records are always a strict prefix of what was accepted, and
the rebuilt history serves exactly the reads that prefix implies.
"""

import gc
import json
import math
import os
import random
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context.broker import ContextBroker
from repro.context.history import MINUTE_S, HistoryQuery, ShortTermHistory
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError
from repro.simkernel.simulator import Simulator
from repro.store import (
    CompactionKilled,
    CorruptBlobError,
    DurabilityService,
    SEGMENT_MAGIC,
    ScanResult,
    SegmentStore,
    StorageFaults,
    StoreConfig,
    StoreError,
    decode_sample,
    encode_record,
    encode_sample,
    read_sealed,
    scan_records,
    write_sealed,
)
from repro.store.columnar import open_columnar_reader
from repro.store.durable import (
    decode_samples,
    sample_prefix,
    sample_series,
    sample_tail,
)
from repro.store.segment import RECORD_HEADER, segments_in

EID = "urn:AgriParcel:demo:0-0"
EID2 = "urn:AgriParcel:demo:0-1"
ATTR = "soilMoisture"

#: Entity ids and attributes that need JSON escaping or hold commas.
AWKWARD_TEXT = st.text(
    st.one_of(st.sampled_from('",\\:éç水'), st.characters()), max_size=12)
#: Sample times and values: ints, subnormals, signed zeros, infinities,
#: NaN and large exponents.
AWKWARD_NUMBER = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.7976931348623157e308, -1e300, 1e-300, math.inf,
                     -math.inf, math.nan]),
)


def payloads_for(n, start=0):
    return [encode_sample(EID, ATTR, 10.0 * i, 0.1 * i) for i in range(start, n)]


def files_in(root):
    """Every file under ``root`` by name, with its bytes."""
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


class TestFraming:
    def test_sample_codec_round_trips(self):
        payload = encode_sample(EID, ATTR, 12.5, 0.375)
        assert decode_sample(payload) == (EID, ATTR, 12.5, 0.375)

    @settings(max_examples=300, deadline=None)
    @given(AWKWARD_TEXT, AWKWARD_TEXT, AWKWARD_NUMBER, AWKWARD_NUMBER)
    def test_tail_parse_equals_full_decode(self, entity_id, attr, t, v):
        payload = encode_sample(entity_id, attr, t, v)
        bits = struct.Struct("<dd").pack
        prefix = sample_prefix(entity_id, attr)
        assert prefix == json.dumps(
            [entity_id, attr], separators=(",", ":"))[:-1].encode("ascii") + b","
        assert payload == prefix + bits(t, v)
        assert sample_series(payload) == prefix
        reference = decode_sample(payload)
        assert bits(*reference[2:]) == bits(float(t), float(v))
        assert bits(*sample_tail(payload, len(prefix))) == bits(*reference[2:])
        (decoded,) = decode_samples([payload])
        assert decoded[:2] == reference[:2] == (entity_id, attr)
        assert bits(*decoded[2:]) == bits(*reference[2:])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([EID, 'a,"b', "c\\d", "水"]),
                              st.sampled_from([ATTR, "x,y"]),
                              st.floats(allow_nan=False), st.floats(allow_nan=False)),
                    max_size=30))
    def test_batch_decode_equals_per_record_decode(self, samples):
        payloads = [encode_sample(*sample) for sample in samples]
        assert decode_samples(payloads) == [decode_sample(p) for p in payloads]

    def test_scan_recovers_every_frame(self):
        data = b"".join(encode_record(p) for p in payloads_for(5))
        result = scan_records(SEGMENT_MAGIC + data)
        assert result.payloads == payloads_for(5)
        assert not result.torn

    def test_scan_truncates_at_first_bad_checksum(self):
        frames = [encode_record(p) for p in payloads_for(3)]
        blob = bytearray(SEGMENT_MAGIC + b"".join(frames))
        # Flip one payload byte inside the second frame.
        offset = 4 + len(frames[0]) + 8 + 2
        blob[offset] ^= 0xFF
        result = scan_records(bytes(blob))
        assert result.payloads == payloads_for(1)
        assert result.torn
        assert result.clean_end == 4 + len(frames[0])

    def test_scan_tolerates_partial_tail_and_garbage(self):
        whole = SEGMENT_MAGIC + encode_record(b"x")
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

    def test_recover_on_an_open_store_closes_its_active_file(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(b"first")
        assert store.commit()
        store.append(b"second")  # still buffered in the active file
        # Record what ``-W error::ResourceWarning`` would raise: a dropped
        # unclosed handle warns when it is collected.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            recovered = store.recover()
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert recovered == store.read_all() == [b"first", b"second"]
        store.close()

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
        before = files_in(tmp_path)
        # The damage is in a sealed segment: opening refuses it as
        # recovery does, and neither changes a byte.
        with pytest.raises(StoreError, match="corrupt mid-log"):
            SegmentStore(str(tmp_path), max_segment_bytes=120)
        with pytest.raises(StoreError, match="corrupt mid-log"):
            store.recover()
        assert files_in(tmp_path) == before

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
        broker.create_entity(EID2, "AgriParcel")
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
        with pytest.raises(StoreError, match="recover"):
            store.resident_series(sample_prefix(EID, ATTR))
        compaction.recover()
        store.recover()

    @staticmethod
    def assert_memory_equals_disk(store, disk, context=None):
        """The append-order view and every series' view equal the disk;
        returns the series keys on disk."""
        assert list(store.resident()) == disk, context
        keys = {sample_series(p) for p in disk}
        for key in keys | {sample_prefix("none", ATTR)}:
            assert list(store.resident_series(key)) == [
                p for p in disk if p.startswith(key)], (context, key)
        return keys

    def test_resident_equals_disk_after_every_step(self, tmp_path):
        ops = ("append", "torn", "commit", "stall", "lose_fsync", "compact", "crash")
        weights = (50, 6, 10, 5, 5, 12, 8)
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            sim, broker, store, compaction, faults = self.rig(tmp_path / f"seed-{seed}")
            crashes = 0
            keys = set()
            for step in range(300):
                op = rng.choices(ops, weights)[0]
                if op in ("append", "torn"):
                    if op == "torn":
                        faults.arm_torn_write(rng.random())
                    sim.run_until(sim.now + 10.0)
                    value = rng.random()
                    broker.update_attributes(EID if value < 0.7 else EID2,
                                             {ATTR: value})
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
                keys |= self.assert_memory_equals_disk(
                    store, store.read_all(), (seed, step, op))
            # Every mechanism the property is about actually ran.
            assert store.rotations and store.dropped_segments and crashes
            assert faults.torn_writes and store.torn_tails_truncated
            assert store.deferred_commits and store.failed_commits
            assert keys == {sample_prefix(EID, ATTR), sample_prefix(EID2, ATTR)}
            faults.stalled = faults.fsync_lost = False
            store.close()
            self.assert_memory_equals_disk(store, store.read_all())
            reopened = SegmentStore(str(tmp_path / f"seed-{seed}"),
                                    max_segment_bytes=400)
            self.assert_memory_equals_disk(reopened, store.read_all())
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
        with pytest.raises(StoreError, match="recover"):
            store.resident_series(sample_prefix(EID, ATTR))
        store.recover()
        assert list(store.resident()) == payloads_for(8) == store.read_all()
        assert list(store.resident_series(sample_prefix(EID, ATTR))) == payloads_for(8)
        store.close()


def tear_last_segment(root):
    """Append half a frame to the last segment, as a process dying
    mid-flush leaves it; returns the segment's path."""
    _index, path = segments_in(str(root))[-1]
    frame = encode_record(b"never committed")
    with open(path, "ab") as fh:
        fh.write(frame[: len(frame) // 2])
    return path


class TestTornReopen:
    """A store reopened over a torn tail keeps what it commits next."""

    def test_first_append_truncates_the_torn_tail(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        for p in payloads_for(5):
            store.append(p)
        store.commit()
        store.close()
        tear_last_segment(tmp_path)
        reopened = SegmentStore(str(tmp_path))
        assert reopened.appended == 5 and reopened.torn_tails_truncated == 0
        reopened.append(payloads_for(6)[5])
        assert reopened.commit()
        assert reopened.torn_tails_truncated == 1
        assert list(reopened.resident()) == reopened.read_all() == payloads_for(6)
        reopened.close()
        assert SegmentStore(str(tmp_path)).recover() == payloads_for(6)

    def test_a_store_that_is_only_read_changes_no_byte(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        for p in payloads_for(5):
            store.append(p)
        store.close()
        path = tear_last_segment(tmp_path)
        with open(path, "rb") as fh:
            before = fh.read()
        reader = open_columnar_reader(str(tmp_path))
        assert list(reader.store.resident()) == payloads_for(5)
        assert reader.read(HistoryQuery(EID, ATTR, last_n=2)).rows == [
            (30.0, 0.30000000000000004), (40.0, 0.4)]
        reopened = SegmentStore(str(tmp_path))
        assert reopened.commit()
        reopened.close()
        with open(path, "rb") as fh:
            assert fh.read() == before

    @pytest.mark.parametrize("stub", [b"", b"SW", b"JUNK"])
    @pytest.mark.parametrize("via_recover", [False, True])
    def test_a_torn_magic_is_reset_before_the_first_append(
            self, tmp_path, stub, via_recover):
        store = SegmentStore(str(tmp_path), max_segment_bytes=200)
        for p in payloads_for(4):
            store.append(p)
        store.close()
        # A crash between creating the next segment and writing its magic.
        last = len(segments_in(str(tmp_path)))
        with open(tmp_path / f"seg-{last:08d}.log", "wb") as fh:
            fh.write(stub)
        reopened = SegmentStore(str(tmp_path), max_segment_bytes=200)
        if via_recover:
            reopened.crash()
            assert reopened.recover() == payloads_for(4)
        reopened.append(payloads_for(5)[4])
        assert reopened.commit()
        assert reopened.torn_tails_truncated == 1
        reopened.close()
        assert SegmentStore(str(tmp_path)).recover() == payloads_for(5)

    def test_reopen_after_crash_matches_an_uninterrupted_store(self, tmp_path):
        """Crash with no recover, reopen, append, commit, over many cuts.

        The oracle is a store in another directory that appends the same
        surviving records and new records without ever crashing.
        """
        truncated = 0
        for seed in range(6):
            rng = random.Random(seed)
            root = tmp_path / f"seed-{seed}"
            store = SegmentStore(str(root), max_segment_bytes=300)
            survivors = []  # what a reopen must find, in order
            written = 0
            for round_ in range(8):
                pending = []  # appended since the last barrier, in order
                for _ in range(rng.randrange(0, 12)):
                    payload = encode_sample(EID, ATTR, float(written), rng.random())
                    written += 1
                    store.append(payload)
                    pending.append(payload)
                    if store.volatile_records == 0:
                        survivors.extend(pending)  # rotation barrier
                        pending = []
                    elif rng.random() < 0.2:
                        assert store.commit()
                        survivors.extend(pending)
                        pending = []
                    assert list(store.resident()) == store.read_all(), (seed, round_)
                # A cut anywhere in the volatile tail, often mid-frame.
                tail = sum(len(encode_record(p)) for p in pending)
                cut = rng.randrange(0, tail + 1) if tail else 0
                truncated += store.torn_tails_truncated
                store.crash(surviving_tail_bytes=cut)
                for payload in pending:
                    cut -= len(encode_record(payload))
                    if cut < 0:
                        break
                    survivors.append(payload)
                store = SegmentStore(str(root), max_segment_bytes=300)
                assert list(store.resident()) == store.read_all() == survivors
            store.close()
            oracle = SegmentStore(str(tmp_path / f"oracle-{seed}"),
                                  max_segment_bytes=300)
            for payload in survivors:
                oracle.append(payload)
            oracle.close()
            assert SegmentStore(str(root)).recover() == oracle.read_all() == survivors
        # Reopens found torn tails and cut them before appending.
        assert truncated


class TestRefusedAtOpen:
    """What no scan may read past is refused before any byte changes."""

    def test_an_sws1_store_is_refused_and_left_unchanged(self, tmp_path):
        sim = Simulator(seed=3)
        broker = ContextBroker(sim)
        broker.create_entity(EID, "AgriParcel")
        store = SegmentStore(str(tmp_path), max_segment_bytes=400)
        service = DurabilityService(sim, ShortTermHistory(broker), store,
                                    flush_interval_s=1e9)
        compaction = service.enable_compaction(interval_s=1e9)
        for i in range(40):
            sim.run_until(sim.now + 10.0)
            broker.update_attributes(EID, {ATTR: 0.01 * i})
        assert store.commit() and store.sealed_segments()
        # The directory as the previous segment format left it.
        for _index, path in segments_in(str(tmp_path)):
            with open(path, "r+b") as fh:
                fh.write(b"SWS1")
        before = files_in(tmp_path)
        for attempt in (lambda: SegmentStore(str(tmp_path)),
                        lambda: open_columnar_reader(str(tmp_path)),
                        compaction.compact_once,
                        store.recover):
            with pytest.raises(StoreError, match="SWS1.*SWS2"):
                attempt()
            assert files_in(tmp_path) == before
        store.close()
        assert files_in(tmp_path) == before

    def test_mid_log_damage_is_refused_at_open_and_by_the_reader(self, tmp_path):
        store = SegmentStore(str(tmp_path), max_segment_bytes=2000)
        for p in payloads_for(60):
            store.append(p)
        store.close()
        segments = segments_in(str(tmp_path))
        assert len(segments) > 1
        first = segments[0][1]
        # Flip one payload byte of the third record of sealed segment 0.
        frame = len(encode_record(payloads_for(1)[0]))
        with open(first, "r+b") as fh:
            fh.seek(len(SEGMENT_MAGIC) + 2 * frame + RECORD_HEADER.size + 3)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        before = files_in(tmp_path)
        with pytest.raises(StoreError, match="corrupt mid-log"):
            SegmentStore(str(tmp_path))
        with pytest.raises(StoreError, match="corrupt mid-log"):
            open_columnar_reader(str(tmp_path))
        assert files_in(tmp_path) == before


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
            store=StoreConfig(root=str(tmp_path / "wal"), flush_interval_s=30.0)))
        durability = result.runner.durability
        assert durability.store.appended > 0
        assert durability.store.committed == durability.store.appended
        assert durability.report()["lost_committed"] == 0

    def test_store_dir_rejected_with_checkpoint_and_restore(self, tmp_path):
        from repro.api import RunOptions, run

        for extra in ({"restore": str(tmp_path / "ck")}, {"checkpoint": str(tmp_path / "ck")}):
            with pytest.raises(ValueError, match="durable store is not supported"):
                run(RunOptions(pilot="matopiba", days=0.1,
                               store=StoreConfig(root=str(tmp_path / "wal")), **extra))

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
