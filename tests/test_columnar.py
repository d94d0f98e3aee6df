"""Columnar compaction: chunk codec, pruning, retention, kill points.

The tentpole invariants (E21): every query shape answered from sealed
chunk files plus the WAL tail is bit-identical to the in-memory answer,
zone maps only ever *prune* (never aggregate), retention drops whole
chunks deterministically, and a kill at any compaction crash point
recovers to exactly the reads an uninterrupted run serves.
"""

import dataclasses
import math
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.context.broker import ContextBroker
from repro.context.errors import QueryError
from repro.context.history import MINUTE_S, HistoryQuery, ShortTermHistory
from repro.core.run import RunOptions, run
from repro.faults.chaos import check_storage_invariants
from repro.simkernel.simulator import Simulator
from repro.store import (
    CompactionKilled,
    DurabilityService,
    RetentionConfig,
    RetentionPolicy,
    SegmentStore,
    StoreConfig,
    StoreError,
    decode_chunk,
    encode_chunk,
    open_columnar_reader,
)
from repro.store.columnar import SAMPLE_BYTES, chunk_header, chunks_in
from repro.store.durable import (
    decode_sample,
    encode_sample,
    sample_prefix,
    sample_series,
)
from repro.store.segment import RECORD_HEADER, SEGMENT_MAGIC

EID = "urn:AgriParcel:demo:0-0"
ATTR = "soilMoisture"


def columnar_fixture(root, segment_bytes=600, flush_s=50.0, compact_s=None,
                     retention=None, block_size=8, entities=(EID,)):
    """A broker+history+store rig with compaction attached.

    ``compact_s=None`` keeps the pump long (1e9 s) so tests drive
    ``compact_once`` explicitly and deterministically.
    """
    sim = Simulator(seed=1)
    broker = ContextBroker(sim)
    history = ShortTermHistory(broker, rollup_periods=(MINUTE_S,))
    for eid in entities:
        broker.create_entity(eid, "AgriParcel")
    store = SegmentStore(str(root), max_segment_bytes=segment_bytes)
    service = DurabilityService(sim, history, store,
                                flush_interval_s=flush_s)
    service.start()
    compaction = service.enable_compaction(
        interval_s=compact_s if compact_s is not None else 1e9,
        block_size=block_size, retention=retention)
    return sim, broker, history, service, compaction


def feed(sim, broker, n, dt=10.0, eid=EID, start=0):
    """Values are a function of the absolute sample index (``start``),
    so feeding 30+90 and 60+60 produce byte-identical streams."""
    for i in range(start, start + n):
        sim.run_until(sim.now + dt)
        broker.update_attributes(eid, {ATTR: 0.1 * (i % 13)})


def samples_for(n):
    return [(EID, ATTR, 10.0 * (i + 1), 0.1 * (i % 13)) for i in range(n)]


ALL_SHAPES = [
    HistoryQuery(EID, ATTR),
    HistoryQuery(EID, ATTR, since=200.0, until=900.0),
    HistoryQuery(EID, ATTR, last_n=7),
    HistoryQuery(EID, ATTR, period_s=MINUTE_S, method="sum"),
    HistoryQuery(EID, ATTR, period_s=MINUTE_S, method="mean",
                 since=240.0, until=720.0),
    HistoryQuery(EID, ATTR, aggregate=True),
]


def assert_reads_match(history, queries=ALL_SHAPES):
    """Columnar answers == memory answers, bit for bit."""
    for query in queries:
        mem = history.read(query, source="memory")
        col = history.read(query, source="columnar")
        assert col.rows == mem.rows, query
        assert col.stats == mem.stats, query


class TestChunkCodec:
    def test_round_trip_preserves_append_order(self):
        # Interleave two series so the order array has to work.
        samples = []
        for i in range(20):
            eid = EID if i % 3 else "urn:AgriParcel:demo:1-1"
            samples.append((eid, ATTR, 5.0 * i, float(i)))
        payload = encode_chunk(0, 100, samples, block_size=4)
        chunk = decode_chunk(payload)
        assert list(chunk.iter_records()) == samples
        assert chunk.header["first_seq"] == 100
        assert chunk.header["records"] == 20

    def test_zone_maps_summarize_blocks(self):
        samples = samples_for(10)
        header = chunk_header(encode_chunk(3, 0, samples, block_size=4))
        entry = header["series"][0]
        assert entry["entity"] == EID and entry["attr"] == ATTR
        # 10 samples at block_size=4 → blocks of 4, 4, 2.
        assert [b[0] for b in entry["blocks"]] == [4, 4, 2]
        first = entry["blocks"][0]
        n, t_min, t_max, v_min, v_max, v_sum = first
        ts = [t for _e, _a, t, _v in samples[:4]]
        vs = [v for _e, _a, _t, v in samples[:4]]
        assert (t_min, t_max) == (min(ts), max(ts))
        assert (v_min, v_max) == (min(vs), max(vs))
        assert v_sum == pytest.approx(sum(vs))

    def test_decode_rejects_bad_magic_and_truncation(self):
        payload = encode_chunk(0, 0, samples_for(5), block_size=4)
        with pytest.raises(StoreError):
            decode_chunk(b"XXXX" + payload[4:])
        with pytest.raises(StoreError):
            decode_chunk(payload[:-3])

    def test_float_columns_reencode_exactly(self):
        # f64 columns must round-trip so recovery re-encodes the exact
        # payload bytes the WAL held.
        samples = [(EID, ATTR, 0.1 + 0.2 * i, 1e-17 * (i + 1))
                   for i in range(9)]
        chunk = decode_chunk(encode_chunk(0, 0, samples, block_size=4))
        assert list(chunk.iter_records()) == samples


class TestCompaction:
    def test_drains_sealed_segments_and_reads_match(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(tmp_path)
        feed(sim, broker, 120)
        service.flush_now()
        assert service.store.segment_count > 1
        moved = compaction.compact_once()
        assert moved > 0
        assert compaction.columnar.chunk_indexes()
        # Only the active segment remains WAL-resident.
        assert service.store.segment_count == 1
        assert_reads_match(history)
        audit = compaction.audit()
        assert audit["boundary_consistent"]
        assert audit["overlap_chunks"] == 0
        assert audit["overlap_segments"] == 0

    def test_compact_once_is_a_noop_without_sealed_segments(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, segment_bytes=1 << 20)
        feed(sim, broker, 5)
        service.flush_now()
        assert compaction.compact_once() == 0
        assert compaction.columnar.chunk_indexes() == []

    def test_auto_source_serves_columnar(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(tmp_path)
        feed(sim, broker, 60)
        service.flush_now()
        compaction.compact_once()
        result = history.read(HistoryQuery(EID, ATTR))
        assert result.source == "columnar"
        assert result.rows == history.read(
            HistoryQuery(EID, ATTR), source="memory").rows

    def test_pump_compacts_on_the_sim_clock(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, compact_s=300.0)
        feed(sim, broker, 120)
        sim.run_until(sim.now + 600.0)
        assert compaction.compacted_segments > 0
        assert_reads_match(history)

    def test_columnar_outlives_ring_eviction(self, tmp_path):
        sim = Simulator(seed=1)
        broker = ContextBroker(sim)
        history = ShortTermHistory(broker, max_samples_per_series=10)
        broker.create_entity(EID, "AgriParcel")
        store = SegmentStore(str(tmp_path), max_segment_bytes=600)
        service = DurabilityService(sim, history, store,
                                    flush_interval_s=50.0)
        service.start()
        compaction = service.enable_compaction(interval_s=1e9)
        feed(sim, broker, 80)
        service.flush_now()
        compaction.compact_once()
        rows = history.read(HistoryQuery(EID, ATTR), source="columnar").rows
        mem = history.read(HistoryQuery(EID, ATTR), source="memory").rows
        assert len(rows) == 80          # disk kept what the ring dropped
        assert len(mem) == 10
        assert rows[-10:] == mem        # and the shared suffix is identical


class TestOneFold:
    def test_every_sum_is_the_same_left_fold(self, tmp_path):
        # Ten 0.1s: a left fold reads 0.9999999999999999, a compensated
        # sum (builtin sum() from Python 3.12 on) reads 1.0.
        values = [0.1] * 10
        expected = 0.0
        for v in values:
            expected += v
        assert expected != math.fsum(values)
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, segment_bytes=200)
        for v in values:  # all inside the first minute bucket
            sim.run_until(sim.now + 1.0)
            broker.update_attributes(EID, {ATTR: v})
            service.flush_now()
        compaction.compact_once()
        # The answers fold chunk samples and WAL-tail samples together.
        assert compaction.columnar.chunk_indexes()
        assert service.store.read_all()
        aggregate = HistoryQuery(EID, ATTR, aggregate=True)
        rollup = HistoryQuery(EID, ATTR, period_s=MINUTE_S, method="sum")
        for source in ("memory", "columnar"):
            assert history.read(aggregate, source=source).stats["sum"] == expected
            assert history.read(rollup, source=source).rows == [(0.0, expected)]


class TestZoneMapPruning:
    def test_bounded_window_prunes_blocks(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, block_size=8)
        feed(sim, broker, 200)
        service.flush_now()
        compaction.compact_once()
        query = HistoryQuery(EID, ATTR, since=500.0, until=700.0)
        result = history.read(query, source="columnar")
        assert result.pruned_blocks > 0
        assert result.scanned_blocks > 0
        assert result.rows == history.read(query, source="memory").rows

    def test_lastn_skips_old_chunks(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(tmp_path)
        feed(sim, broker, 200)
        service.flush_now()
        compaction.compact_once()
        result = history.read(
            HistoryQuery(EID, ATTR, last_n=3), source="columnar")
        assert result.pruned_blocks > 0
        assert result.rows == history.read(
            HistoryQuery(EID, ATTR, last_n=3), source="memory").rows

    def test_rollup_prune_keeps_bucket_fold_exact(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, block_size=4)
        feed(sim, broker, 150)
        service.flush_now()
        compaction.compact_once()
        query = HistoryQuery(EID, ATTR, period_s=MINUTE_S, method="sum",
                             since=300.0, until=600.0)
        result = history.read(query, source="columnar")
        assert result.pruned_blocks > 0
        assert result.rows == history.read(query, source="memory").rows


class TestRetention:
    @pytest.mark.parametrize("caps", [dict(max_age_s=-5), dict(max_age_s=0.0),
                                      dict(max_bytes=0), dict(max_bytes=-1)])
    def test_a_cap_must_be_positive(self, caps):
        with pytest.raises(StoreError, match="must be positive, got"):
            RetentionPolicy(**caps)

    def test_age_policy_drops_old_chunks(self, tmp_path):
        retention = RetentionConfig(
            default=RetentionPolicy(max_age_s=400.0))
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, retention=retention)
        feed(sim, broker, 150)
        service.flush_now()
        compaction.compact_once()
        col = compaction.columnar
        assert col.dropped_chunks > 0
        assert col.dropped_records > 0
        assert col.dropped_bytes == col.dropped_records * SAMPLE_BYTES
        assert compaction.audit()["boundary_consistent"]
        query = HistoryQuery(EID, ATTR, last_n=5)
        assert history.read(query, source="columnar").rows == \
            history.read(query, source="memory").rows

    def test_byte_budget_drops_oldest_first(self, tmp_path):
        retention = RetentionConfig(
            default=RetentionPolicy(max_bytes=40 * SAMPLE_BYTES))
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, retention=retention)
        feed(sim, broker, 150)
        service.flush_now()
        compaction.compact_once()
        col = compaction.columnar
        assert col.dropped_chunks > 0
        retained = col.chunk_records
        # Whole-chunk granularity: retained columnar bytes are within one
        # chunk of the budget.
        indexes = col.chunk_indexes()
        assert indexes == sorted(indexes)
        if indexes:
            largest = max(col.header(i)["records"] for i in indexes)
            assert retained * SAMPLE_BYTES <= \
                40 * SAMPLE_BYTES + largest * SAMPLE_BYTES
        assert compaction.audit()["boundary_consistent"]

    def test_mixed_ownership_chunk_is_kept_and_counted(self, tmp_path):
        other = "urn:Tenant:keeper:0-0"
        retention = RetentionConfig(
            default=RetentionPolicy(),               # unbounded default
            tenants=(("urn:AgriParcel", RetentionPolicy(max_age_s=100.0)),))
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, retention=retention, segment_bytes=2000,
            entities=(EID, other))
        for i in range(60):
            sim.run_until(sim.now + 10.0)
            broker.update_attributes(EID, {ATTR: float(i)})
            broker.update_attributes(other, {ATTR: float(i)})
        service.flush_now()
        compaction.compact_once()
        col = compaction.columnar
        # Every chunk holds both tenants; only one wants the drop.
        assert col.dropped_chunks == 0
        assert compaction.retention_blocked_chunks > 0
        assert_reads_match(history, [HistoryQuery(EID, ATTR),
                                     HistoryQuery(other, ATTR)])

    def test_tenant_accounting_in_report(self, tmp_path):
        retention = RetentionConfig(
            default=RetentionPolicy(max_age_s=300.0))
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, retention=retention)
        feed(sim, broker, 150)
        service.flush_now()
        compaction.compact_once()
        report = compaction.report()
        assert report["dropped_chunks"] > 0
        assert "*" in report["tenant_drops"]
        assert report["tenant_drops"]["*"]["records"] > 0

    def test_reads_survive_retention_gaps(self, tmp_path):
        retention = RetentionConfig(default=RetentionPolicy(max_age_s=500.0))
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, retention=retention)
        feed(sim, broker, 100)
        service.flush_now()
        compaction.compact_once()
        feed(sim, broker, 100)
        service.flush_now()
        compaction.compact_once()
        # Bounded window over the retained suffix still answers exactly.
        query = HistoryQuery(EID, ATTR, since=sim.now - 400.0, until=sim.now)
        assert history.read(query, source="columnar").rows == \
            history.read(query, source="memory").rows


class TestKillPointMatrix:
    """Any kill during compaction recovers to the uninterrupted reads."""

    STAGES = ("chunk_sealed", "meta_written", "retention_meta")
    CUTS = (30, 55, 80, 110)

    def _compact_surviving_kills(self, service, compaction):
        """Run one compaction round; on a (possibly armed) kill, recover
        and finish the interrupted work.  Returns whether a kill fired."""
        try:
            compaction.compact_once()
        except CompactionKilled:
            service.crash_and_recover()
            assert service.lost_committed == 0
            assert service.prefix_consistent
            compaction.compact_once()
            return True
        return False

    def _run(self, root, cut, stage=None):
        """One run: feed ``cut`` samples, compact, feed the rest, compact
        again — with ``stage`` armed, the kill fires at the first round
        that reaches that crash point (retention drops need age) and the
        run recovers and finishes.  The no-kill run with the same ``cut``
        is the oracle — identical schedule, minus the kill."""
        retention = RetentionConfig(default=RetentionPolicy(max_age_s=600.0))
        sim, broker, history, service, compaction = columnar_fixture(
            root, retention=retention)
        compaction.kill_after = stage
        feed(sim, broker, cut)
        service.flush_now()
        fired = self._compact_surviving_kills(service, compaction)
        feed(sim, broker, 120 - cut, start=cut)
        service.flush_now()
        fired = self._compact_surviving_kills(service, compaction) or fired
        if stage is not None:
            assert fired, (stage, cut)
        audit = compaction.audit()
        assert audit["boundary_consistent"], (stage, cut)
        assert audit["overlap_chunks"] == 0 and audit["overlap_segments"] == 0
        return {
            "reads": [
                (history.read(q, source="columnar").rows,
                 history.read(q, source="columnar").stats)
                for q in ALL_SHAPES
            ],
            "records": service.store.appended + compaction.columnar.wal_base_seq,
        }

    def test_every_stage_and_cut_recovers_identically(self, tmp_path):
        for cut in self.CUTS:
            reference = self._run(tmp_path / f"ref-{cut}", cut=cut)
            for stage in self.STAGES:
                state = self._run(tmp_path / f"{stage}-{cut}",
                                  cut=cut, stage=stage)
                assert state == reference, (stage, cut)

    def test_double_kill_at_same_stage_still_recovers(self, tmp_path):
        reference = self._run(tmp_path / "reference", cut=60)
        retention = RetentionConfig(default=RetentionPolicy(max_age_s=600.0))
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path / "victim", retention=retention)
        feed(sim, broker, 60)
        service.flush_now()
        for _ in range(2):
            compaction.kill_after = "meta_written"
            with pytest.raises(CompactionKilled):
                compaction.compact_once()
            service.crash_and_recover()
            assert service.lost_committed == 0
        compaction.compact_once()
        feed(sim, broker, 60, start=60)
        service.flush_now()
        compaction.compact_once()
        reads = [
            (history.read(q, source="columnar").rows,
             history.read(q, source="columnar").stats)
            for q in ALL_SHAPES
        ]
        assert reads == reference["reads"]


EID2 = "urn:AgriParcel:demo:0-1"


def _durable_sequence(service, compaction):
    """``(seq, payload)`` of every durable record, read back from disk:
    retained chunks, then the WAL."""
    records = []
    columnar = compaction.columnar
    for index in columnar.chunk_indexes():
        chunk = columnar.read_chunk(index)
        for seq, sample in enumerate(chunk.iter_records(), chunk.header["first_seq"]):
            records.append((seq, encode_sample(*sample)))
    records += enumerate(service.store.read_all(), columnar.wal_base_seq)
    return records


def _reference_audit(records, end, shadow, first, overflow):
    """The list-based shadow audit: whether this run's recovered records
    match the shadow, and the longest contiguous recovered suffix of
    them (the next shadow)."""
    consistent = True
    if not overflow:
        for seq, payload in records:
            if seq < first:
                continue
            pos = seq - first
            if pos >= len(shadow) or shadow[pos] != payload:
                consistent = False
                break
    suffix = []
    next_expected = end
    for seq, payload in reversed(records):
        if seq != next_expected - 1 or seq < first:
            break
        suffix.append(payload)
        next_expected = seq
    return consistent, suffix[::-1]


#: (op, arg); a feed's arg is (samples, which entities: EID, EID2, both).
_recovery_steps = st.lists(st.one_of(
    st.tuples(st.just("feed"), st.tuples(st.integers(1, 40), st.integers(0, 2))),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("compact"), st.just(0)),
    st.tuples(st.just("crash"), st.integers(0, 25)),
    st.tuples(st.just("tamper"), st.integers(0, 10**6)),
), max_size=25)
#: EID2's chunks age out while EID's stay, so retention can drop a chunk
#: between two retained ones.
_GAPPY_RETENTION = RetentionConfig(tenants=((EID2, RetentionPolicy(max_age_s=300.0)),))


class TestStreamingRecovery:
    @settings(max_examples=60, deadline=None)
    @given(steps=_recovery_steps, shadow_cap=st.sampled_from((1_000_000, 7, 40)))
    @example(steps=[("feed", (20, 0)), ("feed", (20, 1)), ("feed", (40, 0)),
                    ("flush", 0), ("compact", 0), ("crash", 0)],
             shadow_cap=1_000_000)  # an EID2-only chunk drops between EID chunks
    def test_recovery_equals_list_reference(self, steps, shadow_cap):
        """Crash recovery streams the durable records once; its audit,
        next shadow, count and rebuilt history equal the list-based
        reference's, through retention gaps, shadow overflow and a
        shadow that disagrees with the disk."""
        with tempfile.TemporaryDirectory() as root:
            sim, broker, history, service, compaction = columnar_fixture(
                root, entities=(EID, EID2), retention=_GAPPY_RETENTION)
            service.shadow_cap = shadow_cap
            fed = 0
            for op, arg in steps + [("crash", 0)]:
                if op == "feed":
                    count, which = arg
                    for i in range(fed, fed + count):
                        sim.run_until(sim.now + 10.0)
                        eid = (EID, EID2)[i % 2] if which == 2 else (EID, EID2)[which]
                        broker.update_attributes(eid, {ATTR: 0.1 * (i % 13)})
                    fed += count
                elif op == "flush":
                    service.flush_now()
                elif op == "compact":
                    compaction.compact_once()
                elif op == "tamper":
                    if service._shadow:
                        service._shadow[arg % len(service._shadow)] = b"tampered"
                else:
                    shadow = list(service._shadow)
                    first = service._run_first_seq
                    overflow = service._shadow_overflow
                    consistent = service.prefix_consistent
                    count = service.crash_and_recover(surviving_tail_bytes=arg)
                    records = _durable_sequence(service, compaction)
                    end = compaction.columnar.wal_base_seq + len(service.store.read_all())
                    ok, suffix = _reference_audit(records, end, shadow, first, overflow)
                    assert count == len(records)
                    assert service.prefix_consistent == (consistent and ok)
                    assert service._shadow == suffix
                    assert service.run_appended == len(suffix)
                    assert service._run_first_seq == end - len(suffix)
                    replica = ShortTermHistory(
                        ContextBroker(Simulator(seed=1)), rollup_periods=(MINUTE_S,))
                    replica.rebuild_from_samples(decode_sample(p) for _seq, p in records)
                    for query in (HistoryQuery(EID, ATTR), HistoryQuery(EID2, ATTR),
                                  HistoryQuery(EID, ATTR, period_s=MINUTE_S, method="sum")):
                        assert history.read(query, source="memory").rows == \
                            replica.read(query, source="memory").rows
            service.store.close()


class TestDamagedSealedSegment:
    def test_reads_hold_and_compaction_refuses(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(tmp_path)
        feed(sim, broker, 30)
        service.flush_now()
        _index, path = service.store.sealed_segments()[0]
        with open(path, "r+b") as fh:
            fh.seek(len(SEGMENT_MAGIC) + RECORD_HEADER.size + 5)
            byte = fh.read(1)
            fh.seek(-1, 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        # The disk view stops at the damaged frame; reads never used it.
        assert len(service.store.read_all()) < 30
        assert_reads_match(history)
        next_segment = compaction.columnar.next_segment
        with pytest.raises(StoreError, match="is torn.*refusing to compact"):
            compaction.compact_once()
        assert chunks_in(str(tmp_path)) == []
        assert compaction.columnar.chunk_indexes() == []
        assert compaction.columnar.next_segment == next_segment
        service.store.close()


class TestSeriesIsolation:
    """Ids and attrs that prefix each other or need JSON escaping."""

    ENTITIES = ("urn:X:1", "urn:X:10", 'urn:X:"q",1', "urn:X:a\\b",
                "urn:X:ç", "urn:X:水")
    ATTRS = ("soil", "soilMoisture")

    def test_prefix_matches_exactly_its_series(self):
        keys = [(e, a) for e in self.ENTITIES for a in self.ATTRS]
        payloads = [encode_sample(e, a, 1.0, 2.0) for e, a in keys]
        for key in keys:
            prefix = sample_prefix(*key)
            assert [decode_sample(p)[:2] for p in payloads
                    if p.startswith(prefix)] == [key]
            assert [decode_sample(p)[:2] for p in payloads
                    if sample_series(p) == prefix] == [key]

    def test_each_read_returns_its_own_series(self, tmp_path):
        # The broker refuses the escaped ids, so the samples go straight
        # to the write-through sink and the oracle is a history rebuilt
        # from the same samples.
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, segment_bytes=2000)
        samples = [(eid, attr, 10.0 * (i + 1), 0.01 * (7 * i + j) + k)
                   for i in range(40)
                   for j, eid in enumerate(self.ENTITIES)
                   for k, attr in enumerate(self.ATTRS)]
        for sample in samples:
            service.on_sample(*sample)
        service.flush_now()
        compaction.compact_once()
        # Both sides of the WAL→chunk boundary hold data.
        assert compaction.columnar.chunk_indexes()
        resident = list(service.store.resident())
        assert resident
        for eid in self.ENTITIES:
            for attr in self.ATTRS:
                prefix = sample_prefix(eid, attr)
                assert list(service.store.resident_series(prefix)) == [
                    p for p in resident if p.startswith(prefix)]
        oracle = ShortTermHistory(ContextBroker(Simulator(seed=0)),
                                  rollup_periods=(MINUTE_S,))
        oracle.rebuild_from_samples(samples)
        for eid in self.ENTITIES:
            for attr in self.ATTRS:
                for shape in ALL_SHAPES:
                    query = dataclasses.replace(shape, entity_id=eid, attr=attr)
                    mem = oracle.read(query, source="memory")
                    col = compaction.reader.read(query)
                    assert (col.rows, col.stats) == (mem.rows, mem.stats), query
                raw = HistoryQuery(eid, attr)
                assert len(compaction.reader.read(raw).rows) == 40
        service.store.close()


class TestFlushCoalescing:
    def test_same_instant_barrier_is_coalesced(self, tmp_path):
        # A large segment keeps rotation (its own durability barrier)
        # out of the picture so the volatile accounting is ours alone.
        sim, broker, history, service, compaction = columnar_fixture(
            tmp_path, segment_bytes=1 << 20)
        feed(sim, broker, 10)
        assert service.flush_now()
        assert service.coalesced_flushes == 0
        # Nothing volatile arrived and sim time has not advanced: skip.
        assert service.flush_now()
        assert service.coalesced_flushes == 1
        # New volatile data at the same instant must still commit.
        broker.update_attributes(EID, {ATTR: 0.9})
        assert service.flush_now()
        assert service.coalesced_flushes == 1
        assert service.store.volatile_records == 0


class TestChaosAuditIntegration:
    def test_storage_invariants_cover_the_boundary(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(tmp_path)
        feed(sim, broker, 120)
        service.flush_now()
        compaction.compact_once()

        class Runner:
            pass

        runner = Runner()
        runner.durability = service
        results = check_storage_invariants(runner)
        names = {r.name for r in results}
        assert "no record lost across WAL→chunk boundary" in names
        assert "no record served twice across WAL→chunk boundary" in names
        assert all(r.ok for r in results), [
            (r.name, r.detail) for r in results if not r.ok]


class TestOfflineReader:
    def test_open_columnar_reader_matches_live_reads(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(tmp_path)
        feed(sim, broker, 150)
        service.flush_now()
        compaction.compact_once()
        live = {q: history.read(q, source="columnar") for q in ALL_SHAPES}
        service.store.close()
        offline = open_columnar_reader(str(tmp_path))
        for query, expected in live.items():
            got = offline.read(query)
            assert got.rows == expected.rows
            assert got.stats == expected.stats

    def test_missing_path_is_refused_and_not_created(self, tmp_path):
        missing = tmp_path / "no-such-store"
        with pytest.raises(StoreError, match="no-such-store"):
            open_columnar_reader(str(missing))
        assert not missing.exists()

    def test_reader_closes_the_store_it_opens(self, tmp_path):
        # The writer stays open beside the reader, as after a live run.
        sim, broker, history, service, compaction = columnar_fixture(tmp_path)
        feed(sim, broker, 150)
        service.flush_now()
        compaction.compact_once()
        reader = open_columnar_reader(str(tmp_path))
        for query in ALL_SHAPES:
            live = history.read(query, source="columnar")
            got = reader.read(query)
            assert (got.rows, got.stats) == (live.rows, live.stats)
        with pytest.raises(StoreError, match="store is closed"):
            reader.store.append(b"x")
        service.store.close()

    def test_offline_reader_rejects_bad_query(self, tmp_path):
        sim, broker, history, service, compaction = columnar_fixture(tmp_path)
        feed(sim, broker, 10)
        service.flush_now()
        service.store.close()
        reader = open_columnar_reader(str(tmp_path))
        with pytest.raises(QueryError):
            reader.read(HistoryQuery(EID, ATTR, last_n=0))


class TestRunIntegration:
    def test_run_with_compaction_reports_chunks(self, tmp_path):
        result = run(RunOptions(
            pilot="matopiba", seed=3, days=0.25,
            store=StoreConfig(root=str(tmp_path), flush_interval_s=300.0,
                              max_segment_bytes=4096, compact_interval_s=1800.0),
        ))
        report = result.runner.durability.report()
        assert "compaction" in report
        assert report["compaction"]["chunk_records"] > 0
        assert report["lost_committed"] == 0
        # The on-disk directory round-trips through the offline reader.
        reader = open_columnar_reader(str(tmp_path))
        eid, attr = sorted(result.runner.history.tracked_series())[0]
        offline = reader.read(HistoryQuery(eid, attr))
        live = result.runner.history.read(
            HistoryQuery(eid, attr), source="columnar")
        assert offline.rows == live.rows
