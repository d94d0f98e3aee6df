"""Columnar chunk files and sim-time WAL compaction.

The durable store's write half is the append-only WAL
(:class:`~repro.store.durable.SegmentStore`); this module is the read
half.  A :class:`CompactionService` runs on the simulation clock and
drains **sealed** WAL segments (every segment but the active one — the
rotation barrier guarantees they are fully committed) into sealed
columnar **chunk files**: one chunk per segment, records regrouped into
per-(entity, attribute) float64 time/value columns with
``count/min(t)/max(t)/min(v)/max(v)/sum(v)`` **zone maps** per fixed-size
time block, plus a per-record series-index *order array* so the exact
global append order can be reconstructed.  Rollup, range, lastN and
aggregate queries then stream from chunks with zone-map pruning
(:class:`ColumnarReader`) instead of materialising the whole history in
memory — and because pruning only ever *skips* blocks that cannot match
(never substitutes zone-map aggregates for the samples), every fold
happens in append order and results are bit-identical to the in-memory
path wherever both retain the data.  A read unpacks only the queried
series' two columns of each chunk it opens (:func:`decode_series`, after
the same magic, header, length and whole-file CRC checks a full decode
runs) and takes the WAL tail from the store's in-memory per-series
index, unpacking only each record's ``<dd`` time and value, so it
touches no segment file and no other series' records.

**Crash-safe handoff.**  A segment is deleted only after its chunk is
sealed (tmp → fsync → rename → dir-fsync, the
:func:`~repro.store.segment.write_sealed` barrier) *and* the meta blob
records the advance.  The ordering is::

    seal chunk  →  write meta (wal_base_seq += n, next_segment += 1)  →  delete segment

so :func:`reconcile` can replay any crash point idempotently: an orphan
chunk (sealed, meta not advanced) is adopted; a stale segment (meta
advanced, file not deleted) is dropped; a chunk the meta marked for
retention-drop but that survived the crash is unlinked.  No record is
ever served twice or lost across the boundary — the chaos audit checks
this via :meth:`CompactionService.audit`.

**Retention.**  :class:`RetentionPolicy` (max age / max bytes) applies
per tenant — longest matching entity-id prefix wins, ``default``
otherwise.  Enforcement happens at compaction time on the sim clock, as
deterministic whole-chunk drops oldest-first: a chunk is dropped only
when *every* tenant owning samples in it allows the drop (age horizon
passed, or that tenant's byte budget is exceeded); disagreements are
counted in ``retention_blocked_chunks``.  Drops are audited per tenant
(chunks/records/bytes) and recorded in the meta blob before any file is
unlinked, so the accounting survives crashes.
"""

import json
import math
import os
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

from repro.context.history import (
    HistoryQuery,
    HistoryResult,
    fold,
    rollup_rows,
    window_stats,
)
from repro.store.durable import (
    SegmentStore,
    decode_samples,
    read_segment,
    sample_prefix,
    sample_tail,
)
from repro.store.segment import (
    StoreError,
    fsync_dir,
    read_sealed,
    segments_in,
    write_sealed,
)

__all__ = [
    "ColumnarReader",
    "ColumnarStore",
    "CompactionKilled",
    "CompactionService",
    "RetentionConfig",
    "RetentionPolicy",
    "chunk_path",
    "chunks_in",
    "decode_chunk",
    "encode_chunk",
    "open_columnar_reader",
    "reconcile",
]

#: First 4 bytes of every columnar chunk payload.
CHUNK_MAGIC = b"SWC1"
#: The compaction meta blob (sealed): WAL/chunk handoff + retention state.
META_FILE = "columnar-meta.blob"
#: Samples per zone-map block within one series column.
DEFAULT_BLOCK_SIZE = 512
#: Deterministic on-disk cost of one sample in a chunk (two float64
#: columns plus the order-array slot) — the unit retention byte budgets
#: are charged in, so budget decisions never depend on JSON header size.
SAMPLE_BYTES = 20

_CHUNK_HEADER_LEN = struct.Struct("<I")


class CompactionKilled(StoreError):
    """Simulated process death at an armed compaction crash point."""


def chunk_path(root: str, index: int) -> str:
    return os.path.join(root, f"chunk-{index:08d}.col")


def chunks_in(root: str) -> List[Tuple[int, str]]:
    """``(index, path)`` for every chunk file under ``root``, ordered."""
    out: List[Tuple[int, str]] = []
    for name in os.listdir(root):
        if name.startswith("chunk-") and name.endswith(".col"):
            try:
                index = int(name[6:-4])
            except ValueError:
                continue
            out.append((index, os.path.join(root, name)))
    out.sort()
    return out


# -- chunk codec -------------------------------------------------------------


def encode_chunk(
    segment_index: int,
    first_seq: int,
    samples: List[Tuple[str, str, float, float]],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> bytes:
    """Encode ``samples`` (global append order) as one chunk payload.

    Layout: magic, ``<u32 header_len>``, canonical-JSON header (series
    directory with zone-map blocks), then per series — in first-
    appearance order — the packed float64 time column and value column,
    and finally the ``<u32>`` order array mapping each record position
    back to its series.  Float64 packing round-trips exactly, so a
    decoded chunk re-encodes every sample byte-identically.
    """
    if block_size <= 0:
        raise StoreError(f"block_size must be positive, got {block_size}")
    series_order: Dict[Tuple[str, str], int] = {}
    columns: List[Tuple[List[float], List[float]]] = []
    order: List[int] = []
    for entity_id, attr, t, v in samples:
        key = (entity_id, attr)
        idx = series_order.get(key)
        if idx is None:
            idx = series_order[key] = len(columns)
            columns.append(([], []))
        columns[idx][0].append(t)
        columns[idx][1].append(v)
        order.append(idx)
    series_meta = []
    body = bytearray()
    for (entity_id, attr), idx in series_order.items():
        times, values = columns[idx]
        blocks = []
        for start in range(0, len(times), block_size):
            block_t = times[start:start + block_size]
            acc: Dict[int, List[float]] = {}
            for v in values[start:start + block_size]:
                fold(acc, 0, v)
            _count, vmin, vmax, vsum = acc[0]
            blocks.append(
                [len(block_t), min(block_t), max(block_t), vmin, vmax, vsum]
            )
        series_meta.append({
            "entity": entity_id,
            "attr": attr,
            "count": len(times),
            "blocks": blocks,
        })
        body += struct.pack(f"<{len(times)}d", *times)
        body += struct.pack(f"<{len(values)}d", *values)
    body += struct.pack(f"<{len(order)}I", *order)
    header = {
        "version": 1,
        "segment": segment_index,
        "first_seq": first_seq,
        "records": len(samples),
        "block_size": block_size,
        "series": series_meta,
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return CHUNK_MAGIC + _CHUNK_HEADER_LEN.pack(len(hjson)) + hjson + body


def _header_and_offset(payload: bytes) -> Tuple[dict, int]:
    if payload[: len(CHUNK_MAGIC)] != CHUNK_MAGIC:
        raise StoreError("not a columnar chunk (bad magic)")
    offset = len(CHUNK_MAGIC)
    (hlen,) = _CHUNK_HEADER_LEN.unpack_from(payload, offset)
    offset += _CHUNK_HEADER_LEN.size
    header = json.loads(payload[offset:offset + hlen].decode("utf-8"))
    return header, offset + hlen


def chunk_header(payload: bytes) -> dict:
    """Decode only a chunk's JSON header (cheap; no column unpacking)."""
    return _header_and_offset(payload)[0]


@dataclass
class ChunkData:
    """One decoded chunk: the header plus unpacked columns."""

    header: dict
    #: (entity_id, attr) -> (times, values), each in append order.
    series: Dict[Tuple[str, str], Tuple[tuple, tuple]]
    #: Per-record series index, in global append order.
    order: tuple
    #: Series keys in first-appearance (= column) order.
    keys: List[Tuple[str, str]]

    def iter_records(self) -> Iterator[Tuple[str, str, float, float]]:
        """Yield ``(entity_id, attr, t, v)`` in global append order."""
        cursors = [0] * len(self.keys)
        cols = [self.series[key] for key in self.keys]
        for idx in self.order:
            pos = cursors[idx]
            cursors[idx] = pos + 1
            times, values = cols[idx]
            yield self.keys[idx] + (times[pos], values[pos])


def _checked_header(payload: bytes) -> Tuple[dict, int]:
    """Header and column offset of a chunk whose length is what its
    header promises (magic, header and length checks)."""
    header, offset = _header_and_offset(payload)
    expected = (offset
                + sum(16 * entry["count"] for entry in header["series"])
                + 4 * header["records"])
    if len(payload) != expected:
        raise StoreError(
            f"chunk payload length mismatch: header promises {expected} "
            f"bytes, got {len(payload)}"
        )
    return header, offset


def decode_chunk(payload: bytes) -> ChunkData:
    header, offset = _checked_header(payload)
    series: Dict[Tuple[str, str], Tuple[tuple, tuple]] = {}
    keys: List[Tuple[str, str]] = []
    for entry in header["series"]:
        count = entry["count"]
        times = struct.unpack_from(f"<{count}d", payload, offset)
        offset += 8 * count
        values = struct.unpack_from(f"<{count}d", payload, offset)
        offset += 8 * count
        key = (entry["entity"], entry["attr"])
        series[key] = (times, values)
        keys.append(key)
    order = struct.unpack_from(f"<{header['records']}I", payload, offset)
    return ChunkData(header, series, order, keys)


def decode_series(payload: bytes, entity_id: str,
                  attr: str) -> Tuple[tuple, tuple]:
    """One series' ``(times, values)`` columns; nothing else is unpacked.

    Runs :func:`decode_chunk`'s checks first; raises :class:`StoreError`
    when the chunk holds no such series.
    """
    header, offset = _checked_header(payload)
    for entry in header["series"]:
        count = entry["count"]
        if entry["entity"] == entity_id and entry["attr"] == attr:
            return (struct.unpack_from(f"<{count}d", payload, offset),
                    struct.unpack_from(f"<{count}d", payload, offset + 8 * count))
        offset += 16 * count
    raise StoreError(f"chunk holds no series ({entity_id!r}, {attr!r})")


# -- retention ---------------------------------------------------------------


@dataclass(frozen=True)
class RetentionPolicy:
    """How long / how much columnar history one tenant may keep.

    ``None`` means unbounded on that axis; a cap must be positive.
    ``max_age_s`` drops chunks whose newest sample is older than
    ``sim.now - max_age_s``; ``max_bytes`` drops oldest chunks while the
    tenant's retained columnar footprint (:data:`SAMPLE_BYTES` per
    sample) exceeds the budget.
    """

    max_age_s: Optional[float] = None
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_age_s", "max_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise StoreError(f"{name} must be positive, got {value}")

    @property
    def bounded(self) -> bool:
        return self.max_age_s is not None or self.max_bytes is not None


@dataclass(frozen=True)
class RetentionConfig:
    """Per-tenant retention: entity-id prefix -> policy, plus a default.

    ``tenants`` is a tuple of ``(prefix, policy)`` pairs; the longest
    prefix matching an entity id governs its samples, the ``default``
    policy governs the rest.
    """

    default: RetentionPolicy = RetentionPolicy()
    tenants: Tuple[Tuple[str, RetentionPolicy], ...] = ()

    def policy_for(self, entity_id: str) -> Tuple[str, RetentionPolicy]:
        """``(policy key, policy)`` governing ``entity_id``; the key is
        the matched prefix (``"*"`` for the default) and doubles as the
        audit-counter bucket."""
        best_prefix, best = None, self.default
        for prefix, policy in self.tenants:
            if entity_id.startswith(prefix) and (
                best_prefix is None or len(prefix) > len(best_prefix)
            ):
                best_prefix, best = prefix, policy
        return (best_prefix if best_prefix is not None else "*", best)


# -- the chunk store + meta blob ---------------------------------------------


class ColumnarStore:
    """Sealed chunk files plus the compaction meta blob under one root.

    The meta blob is the commit point of the WAL→chunk handoff:
    ``wal_base_seq`` counts every record ever drained out of the WAL
    (including records later dropped by retention), ``next_segment`` is
    the first WAL segment not yet compacted, and ``pending_drops`` lists
    chunks whose retention drop was decided but whose files may still
    exist (crash window between meta write and unlink).
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.wal_base_seq = 0
        self.next_segment = 0
        self.dropped_chunks = 0
        self.dropped_records = 0
        self.dropped_bytes = 0
        #: policy key -> {"chunks", "records", "bytes"} dropped by retention.
        self.tenant_drops: Dict[str, Dict[str, int]] = {}
        self.pending_drops: List[int] = []
        self._headers: Dict[int, dict] = {}
        self._load_meta()
        self._load_headers()

    # -- meta ----------------------------------------------------------------

    @property
    def meta_path(self) -> str:
        return os.path.join(self.root, META_FILE)

    def _load_meta(self) -> None:
        if not os.path.exists(self.meta_path):
            return
        meta = json.loads(read_sealed(self.meta_path).decode("utf-8"))
        self.wal_base_seq = meta["wal_base_seq"]
        self.next_segment = meta["next_segment"]
        self.dropped_chunks = meta["dropped_chunks"]
        self.dropped_records = meta["dropped_records"]
        self.dropped_bytes = meta["dropped_bytes"]
        self.tenant_drops = meta["tenant_drops"]
        self.pending_drops = list(meta["pending_drops"])

    def write_meta(self) -> None:
        meta = {
            "version": 1,
            "wal_base_seq": self.wal_base_seq,
            "next_segment": self.next_segment,
            "dropped_chunks": self.dropped_chunks,
            "dropped_records": self.dropped_records,
            "dropped_bytes": self.dropped_bytes,
            "tenant_drops": self.tenant_drops,
            "pending_drops": sorted(self.pending_drops),
        }
        payload = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        write_sealed(self.meta_path, payload.encode("utf-8"))

    def _load_headers(self) -> None:
        for index, path in chunks_in(self.root):
            self._headers[index] = chunk_header(read_sealed(path))

    # -- chunks --------------------------------------------------------------

    def chunk_indexes(self) -> List[int]:
        return sorted(self._headers)

    def header(self, index: int) -> dict:
        return self._headers[index]

    @property
    def chunk_records(self) -> int:
        return sum(h["records"] for h in self._headers.values())

    def append_chunk(self, index: int, payload: bytes) -> dict:
        """Seal ``payload`` as chunk ``index`` (atomic, fsynced)."""
        write_sealed(chunk_path(self.root, index), payload)
        header = chunk_header(payload)
        self._headers[index] = header
        return header

    def read_chunk(self, index: int) -> ChunkData:
        return decode_chunk(read_sealed(chunk_path(self.root, index)))

    def read_series(self, index: int, entity_id: str,
                    attr: str) -> Tuple[tuple, tuple]:
        """One series' columns of chunk ``index`` (see :func:`decode_series`)."""
        return decode_series(read_sealed(chunk_path(self.root, index)),
                             entity_id, attr)

    def note_compacted(self, index: int, records: int) -> None:
        """Commit the handoff of segment ``index`` (meta write)."""
        self.wal_base_seq += records
        self.next_segment = index + 1
        self.write_meta()

    # -- retention drops -----------------------------------------------------

    def begin_drop(self, indexes: List[int],
                   accounting: Dict[str, Dict[str, int]]) -> None:
        """Record the retention decision durably *before* unlinking."""
        for index in indexes:
            header = self._headers.pop(index)
            self.dropped_chunks += 1
            self.dropped_records += header["records"]
            self.dropped_bytes += header["records"] * SAMPLE_BYTES
        for key, counts in accounting.items():
            bucket = self.tenant_drops.setdefault(
                key, {"chunks": 0, "records": 0, "bytes": 0})
            for name, value in counts.items():
                bucket[name] += value
        self.pending_drops = sorted(set(self.pending_drops) | set(indexes))
        self.write_meta()

    def finish_drop(self) -> None:
        """Unlink every pending-drop chunk file, then clear the list."""
        for index in self.pending_drops:
            path = chunk_path(self.root, index)
            if os.path.exists(path):
                os.unlink(path)
                fsync_dir(path)
            self._headers.pop(index, None)
        if self.pending_drops:
            self.pending_drops = []
            self.write_meta()

    def report(self) -> dict:
        return {
            "chunks": len(self._headers),
            "chunk_records": self.chunk_records,
            "wal_base_seq": self.wal_base_seq,
            "next_segment": self.next_segment,
            "dropped_chunks": self.dropped_chunks,
            "dropped_records": self.dropped_records,
            "dropped_bytes": self.dropped_bytes,
            "tenant_drops": {k: dict(v) for k, v in sorted(self.tenant_drops.items())},
        }


def reconcile(columnar: ColumnarStore, store: SegmentStore) -> bool:
    """Replay a possibly-interrupted handoff to a consistent state.

    Idempotent; safe to run on every open and after every simulated
    crash.  Returns True when anything had to change.  Handles, in
    order: chunks the meta marked dropped but whose files survived
    (unlink them); orphan chunks sealed before the meta advance (adopt
    them — the records are durable in the chunk, so the meta advance is
    replayed); WAL segments the meta already covers (drop them — their
    records live in a chunk or were legitimately compacted empty).
    """
    changed = False
    for index in list(columnar.pending_drops):
        path = chunk_path(columnar.root, index)
        if os.path.exists(path):
            os.unlink(path)
            fsync_dir(path)
        columnar._headers.pop(index, None)
    if columnar.pending_drops:
        columnar.pending_drops = []
        changed = True
    for index in sorted(i for i in columnar._headers if i >= columnar.next_segment):
        columnar.wal_base_seq += columnar._headers[index]["records"]
        columnar.next_segment = index + 1
        changed = True
    for index, path in segments_in(store.root):
        if index >= columnar.next_segment:
            continue
        store.drop_segment(index, len(read_segment(path).payloads))
        changed = True
    if changed:
        columnar.write_meta()
    return changed


# -- the sim-time compaction service -----------------------------------------


class CompactionService:
    """Background WAL→chunk compaction on the simulation clock.

    Owns the :class:`ColumnarStore` beside its :class:`SegmentStore`
    (same directory), a sim-time pump (:meth:`start`) draining sealed
    segments every ``interval_s``, retention enforcement, and the
    crash-point hooks the kill-matrix tests arm (:attr:`kill_after` set
    to ``"chunk_sealed"``, ``"meta_written"`` or ``"retention_meta"``
    raises :class:`CompactionKilled` at that boundary).
    """

    def __init__(
        self,
        sim,
        durability,
        interval_s: float = 3600.0,
        block_size: int = DEFAULT_BLOCK_SIZE,
        retention: Optional[RetentionConfig] = None,
    ) -> None:
        if interval_s <= 0:
            raise StoreError(f"interval_s must be positive, got {interval_s}")
        self.sim = sim
        self.durability = durability
        self.store: SegmentStore = durability.store
        self.interval_s = interval_s
        self.block_size = block_size
        self.retention = retention
        self.columnar = ColumnarStore(self.store.root)
        self.reader = ColumnarReader(self.columnar, self.store)
        self.kill_after: Optional[str] = None
        self.compacted_segments = 0
        self.compacted_records = 0
        self.retention_blocked_chunks = 0
        #: Records retention dropped in this run (``columnar.dropped_records``
        #: also counts earlier runs', loaded from the meta blob).
        self.retention_dropped_records = 0
        self._pump = None
        # A prior process may have died mid-handoff in this directory.
        self.recover()
        metrics = sim.metrics
        metrics.register_counter("store.compacted_records", lambda: self.compacted_records)
        metrics.register_counter(
            "store.retention_dropped_records", lambda: self.retention_dropped_records)
        metrics.register_callback(
            "store.chunks", lambda: float(len(self.columnar._headers))
        )

    # -- the sim-time pump ---------------------------------------------------

    def start(self) -> None:
        """Spawn the compaction pump (idempotent)."""
        if self._pump is None:
            self._pump = self.sim.spawn(self._loop(), name="store-compact")

    def _loop(self):
        while True:
            yield self.interval_s
            self.compact_once()

    def _crash_point(self, name: str) -> None:
        if self.kill_after == name:
            self.kill_after = None
            raise CompactionKilled(
                f"simulated kill at compaction crash point {name!r}"
            )

    # -- compaction ----------------------------------------------------------

    def compact_once(self) -> int:
        """Drain every sealed segment into a chunk; returns records moved.

        Idempotent across interruptions: a segment the meta already
        covers is finished (deleted) without re-compacting, and
        re-sealing an orphan chunk rewrites identical bytes.
        """
        moved = 0
        for index, path in self.store.sealed_segments():
            result = read_segment(path)
            if result.torn:
                raise StoreError(
                    f"sealed segment {path!r} is torn; the rotation barrier "
                    "guarantees sealed segments are intact — refusing to compact"
                )
            records = len(result.payloads)
            if index < self.columnar.next_segment:
                # Crash landed between the meta advance and the segment
                # delete; the records are already in a chunk.
                self.store.drop_segment(index, records)
                continue
            samples = decode_samples(result.payloads)
            if records:
                payload = encode_chunk(
                    index, self.columnar.wal_base_seq, samples, self.block_size
                )
                self.columnar.append_chunk(index, payload)
            self._crash_point("chunk_sealed")
            self.columnar.note_compacted(index, records)
            self._crash_point("meta_written")
            self.store.drop_segment(index, records)
            self.compacted_segments += 1
            self.compacted_records += records
            moved += records
        if self.retention is not None:
            self.enforce_retention()
        return moved

    # -- retention -----------------------------------------------------------

    def enforce_retention(self) -> int:
        """Apply the retention config; returns chunks dropped.

        Deterministic: driven by the sim clock and the chunk zone maps
        only.  Walks chunks oldest-first; a chunk drops when every
        owning tenant's policy allows it, freeing that tenant's byte
        budget as it goes.  Mixed-ownership chunks where only *some*
        owners want the drop are kept and counted.
        """
        if self.retention is None:
            return 0
        now = self.sim.now
        # index -> policy key -> [policy, records, bytes, newest sample t]
        groups: Dict[int, Dict[str, list]] = {}
        usage: Dict[str, int] = {}
        for index in self.columnar.chunk_indexes():
            per: Dict[str, list] = {}
            for entry in self.columnar.header(index)["series"]:
                key, policy = self.retention.policy_for(entry["entity"])
                size = entry["count"] * SAMPLE_BYTES
                newest = max(block[2] for block in entry["blocks"])
                group = per.get(key)
                if group is None:
                    per[key] = [policy, entry["count"], size, newest]
                else:
                    group[1] += entry["count"]
                    group[2] += size
                    group[3] = max(group[3], newest)
            groups[index] = per
            for key, group in per.items():
                usage[key] = usage.get(key, 0) + group[2]
        to_drop: List[int] = []
        accounting: Dict[str, Dict[str, int]] = {}
        for index in self.columnar.chunk_indexes():
            per = groups[index]
            verdicts = []
            for key, (policy, _records, size, newest) in per.items():
                age_drop = (policy.max_age_s is not None
                            and newest < now - policy.max_age_s)
                byte_drop = (policy.max_bytes is not None
                             and usage[key] > policy.max_bytes)
                verdicts.append(age_drop or byte_drop)
            if per and all(verdicts):
                to_drop.append(index)
                for key, (policy, records, size, _newest) in per.items():
                    usage[key] -= size
                    bucket = accounting.setdefault(
                        key, {"chunks": 0, "records": 0, "bytes": 0})
                    bucket["chunks"] += 1
                    bucket["records"] += records
                    bucket["bytes"] += size
            elif any(verdicts):
                self.retention_blocked_chunks += 1
        if not to_drop:
            return 0
        dropped_records = sum(
            self.columnar.header(i)["records"] for i in to_drop)
        self.columnar.begin_drop(to_drop, accounting)
        self._crash_point("retention_meta")
        self.columnar.finish_drop()
        self.retention_dropped_records += dropped_records
        return len(to_drop)

    # -- recovery + audit ----------------------------------------------------

    def recover(self) -> bool:
        """Reconcile the WAL↔chunk handoff after a (simulated) crash."""
        return reconcile(self.columnar, self.store)

    def audit(self) -> dict:
        """Boundary invariants for the chaos audit.

        ``boundary_consistent``: every record ever drained from the WAL
        is either in a retained chunk or accounted as a retention drop.
        ``overlap_chunks`` / ``overlap_segments``: records reachable
        from both sides of the handoff (must be 0 after reconcile —
        otherwise a read could serve a sample twice).
        """
        col = self.columnar
        retained = col.chunk_records
        overlap_chunks = sum(
            1 for i in col.chunk_indexes() if i >= col.next_segment)
        overlap_segments = sum(
            1 for i, _p in segments_in(self.store.root)
            if i < col.next_segment)
        return {
            "boundary_consistent":
                retained + col.dropped_records == col.wal_base_seq,
            "overlap_chunks": overlap_chunks,
            "overlap_segments": overlap_segments,
            "retained_records": retained,
            "dropped_records": col.dropped_records,
            "wal_base_seq": col.wal_base_seq,
        }

    def report(self) -> dict:
        data = self.columnar.report()
        data.update({
            "compacted_segments": self.compacted_segments,
            "compacted_records": self.compacted_records,
            "retention_blocked_chunks": self.retention_blocked_chunks,
        })
        return data


# -- the streaming read path -------------------------------------------------


class ColumnarReader:
    """Answers :class:`HistoryQuery` reads from chunks + the WAL tail.

    Chunks hold the old, compacted majority of every series; the WAL's
    resident records are the fresh tail, served from the store's
    in-memory per-series index (:meth:`SegmentStore.resident_series`),
    so only the queried series' records are touched, and of each only
    the packed time and value are unpacked.  Reads stream chunk-by-chunk in
    append order, unpacking only the queried series' two columns of
    each chunk — memory stays bounded by the answer, one series'
    columns and references to the resident WAL payloads — and the zone
    maps prune whole blocks (and whole chunks, via the cached headers,
    without touching the file) that cannot intersect the query window.
    Zone maps are never used to *answer* anything: every surviving
    sample is re-folded in append order through the history tier's one
    :func:`~repro.context.history.fold`, which is what keeps results
    bit-identical to the in-memory path.
    """

    def __init__(self, columnar: ColumnarStore, store: SegmentStore) -> None:
        self.columnar = columnar
        self.store = store

    # -- sources -------------------------------------------------------------

    def _wal_samples(self, entity_id: str, attr: str) -> List[Tuple[float, float]]:
        prefix = sample_prefix(entity_id, attr)
        start = len(prefix)
        return [sample_tail(payload, start)
                for payload in self.store.resident_series(prefix)]

    def _series_entry(self, index: int, entity_id: str, attr: str):
        for entry in self.columnar.header(index)["series"]:
            if entry["entity"] == entity_id and entry["attr"] == attr:
                return entry
        return None

    def _column_samples(self, entity_id: str, attr: str,
                        lo: float, hi: float):
        """Chunk samples whose zone-map block intersects ``[lo, hi]``.

        Returns ``(rows, scanned_blocks, pruned_blocks, scanned_samples)``;
        rows are in append order and may include edge samples just
        outside the window (block granularity) — callers filter
        per-sample.
        """
        rows: List[Tuple[float, float]] = []
        scanned_blocks = pruned_blocks = scanned_samples = 0
        for index in self.columnar.chunk_indexes():
            entry = self._series_entry(index, entity_id, attr)
            if entry is None:
                continue
            blocks = entry["blocks"]
            if (max(b[2] for b in blocks) < lo
                    or min(b[1] for b in blocks) > hi):
                pruned_blocks += len(blocks)
                continue
            times, values = self.columnar.read_series(index, entity_id, attr)
            pos = 0
            for block in blocks:
                count = int(block[0])
                if block[2] < lo or block[1] > hi:
                    pruned_blocks += 1
                else:
                    scanned_blocks += 1
                    scanned_samples += count
                    rows.extend(zip(times[pos:pos + count],
                                    values[pos:pos + count]))
                pos += count
        return rows, scanned_blocks, pruned_blocks, scanned_samples

    # -- the read API --------------------------------------------------------

    def read(self, query: HistoryQuery) -> HistoryResult:
        query.validate()
        kind = query.kind
        if kind == "lastn":
            return self._read_lastn(query)
        if kind == "rollup":
            return self._read_rollup(query)
        if kind == "aggregate":
            return self._read_aggregate(query)
        return self._read_range(query)

    def _read_range(self, query: HistoryQuery) -> HistoryResult:
        rows, sb, pb, ss = self._column_samples(
            query.entity_id, query.attr, query.since, query.until)
        wal = self._wal_samples(query.entity_id, query.attr)
        ss += len(wal)
        filtered = [s for s in chain(rows, wal)
                    if query.since <= s[0] <= query.until]
        return HistoryResult(query, "raw", "columnar", rows=filtered,
                             scanned_samples=ss, scanned_blocks=sb,
                             pruned_blocks=pb)

    def _read_lastn(self, query: HistoryQuery) -> HistoryResult:
        n = query.last_n
        wal = self._wal_samples(query.entity_id, query.attr)
        scanned = len(wal)
        scanned_blocks = pruned_blocks = 0
        older: List[Tuple[float, float]] = []
        touched = set()
        if len(wal) < n:
            # Walk chunks newest-first until enough samples are in hand;
            # everything older is pruned without being read.
            for index in reversed(self.columnar.chunk_indexes()):
                entry = self._series_entry(index, query.entity_id, query.attr)
                if entry is None:
                    continue
                times, values = self.columnar.read_series(
                    index, query.entity_id, query.attr)
                older = list(zip(times, values)) + older
                touched.add(index)
                scanned += entry["count"]
                scanned_blocks += len(entry["blocks"])
                if len(older) + len(wal) >= n:
                    break
        # Every chunk the walk never opened — including all of them when
        # the WAL tail alone satisfied the query — counts as pruned.
        for index in self.columnar.chunk_indexes():
            if index in touched:
                continue
            entry = self._series_entry(index, query.entity_id, query.attr)
            if entry is not None:
                pruned_blocks += len(entry["blocks"])
        rows = (older + wal)[-n:]
        return HistoryResult(query, "lastn", "columnar", rows=rows,
                             scanned_samples=scanned,
                             scanned_blocks=scanned_blocks,
                             pruned_blocks=pruned_blocks)

    def _read_rollup(self, query: HistoryQuery) -> HistoryResult:
        period = query.period_s
        # A bucket is listed when its *start* is in [since, until]; a
        # sample lands in the bucket its own timestamp selects, so the
        # prunable time range widens to whole buckets.
        lo = (float("-inf") if query.since == float("-inf")
              else math.ceil(query.since / period) * period)
        hi = (float("inf") if query.until == float("inf")
              else (math.floor(query.until / period) + 1) * period)
        rows, sb, pb, ss = self._column_samples(
            query.entity_id, query.attr, lo, hi)
        wal = self._wal_samples(query.entity_id, query.attr)
        ss += len(wal)
        buckets: Dict[int, List[float]] = {}
        for t, v in chain(rows, wal):
            index = int(t // period)
            if query.since <= index * period <= query.until:
                fold(buckets, index, v)
        return HistoryResult(query, "rollup", "columnar",
                             rows=rollup_rows(buckets, query),
                             scanned_samples=ss, scanned_blocks=sb,
                             pruned_blocks=pb)

    def _read_aggregate(self, query: HistoryQuery) -> HistoryResult:
        rows, sb, pb, ss = self._column_samples(
            query.entity_id, query.attr, query.since, query.until)
        wal = self._wal_samples(query.entity_id, query.attr)
        ss += len(wal)
        return HistoryResult(query, "aggregate", "columnar",
                             stats=window_stats(chain(rows, wal),
                                                query.since, query.until),
                             scanned_samples=ss, scanned_blocks=sb,
                             pruned_blocks=pb)


def open_columnar_reader(root: str) -> ColumnarReader:
    """Open an existing store directory for reads (the serve/CLI path).

    Raises :class:`StoreError` when ``root`` is not a directory, before
    creating anything.  Reconciles any interrupted handoff first, so
    reads never observe a record on both sides of the WAL↔chunk
    boundary, then closes the store's append handle: the WAL tail is
    served from the records read at open, which a closed store keeps.
    """
    if not os.path.isdir(root):
        raise StoreError(f"no store directory at {root!r}")
    store = SegmentStore(root)
    try:
        columnar = ColumnarStore(root)
        reconcile(columnar, store)
    finally:
        store.close()
    return ColumnarReader(columnar, store)
