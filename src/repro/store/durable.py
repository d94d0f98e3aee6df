"""The append-only segment store and the history durability service.

:class:`SegmentStore` is the WAL-shaped archive: records append to the
active segment (checksummed frames, see :mod:`repro.store.segment`),
an explicit :meth:`~SegmentStore.commit` runs the fsync barrier that
makes them durable, and segments rotate at a size threshold — rotation
itself is a barrier (the finished segment is fsynced before the next
one opens), so only the *last* segment can ever hold a torn tail.
:meth:`~SegmentStore.recover` is the crash path: scan every segment in
order, verify every checksum, truncate the first bad frame and
everything after it, and hand back the surviving record prefix.

A sample record's payload is its series key, the compact JSON
``["entity","attr",`` (:func:`sample_prefix`), then its time and value
as ``<dd``; the segment magic ``SWS2`` names that format, and a segment
of the older JSON-sample format ``SWS1`` is refused, never read.

The store also keeps every resident record's payload in memory, per
segment, both in append order (:meth:`~SegmentStore.resident`) and
grouped by series (:meth:`~SegmentStore.resident_series`), so reads of
the fresh WAL tail never touch the files and touch only the queried
series: the WAL is read only at open, by :meth:`~SegmentStore.recover`
and by compaction, and all three fail loudly on a damaged sealed
segment.  :meth:`~SegmentStore.read_all` stays the on-disk view that
tests and audits compare the memory copy against.  A torn tail found at
open is truncated before the first append, so new records never land
behind garbage that every scan stops at.

:class:`DurabilityService` wires the store behind
:class:`~repro.context.history.ShortTermHistory`: every sample the
history accepts is framed and appended write-through, and a sim-time
flush process runs the commit barrier every ``flush_interval_s`` — the
"fsync barriers modeled as sim-time events" half of the design, which
keeps durability costs on the simulation clock and runs bit-identical.
On a simulated ``process_kill`` the service drops the in-memory rings
and rollups, recovers the store, and rebuilds the history from the
recovered prefix — after which reads are exactly what an uninterrupted
run truncated at the commit point would serve (the E20 property).

Everything here is **off by default**: no pilot constructs a store
unless its ``PilotConfig.store`` is set (``RunOptions.store``, CLI
``--store``) or an explicit :func:`attach_durable_history` call asks for
one, so pinned fixtures and the E18/E19 benchmarks are untouched.
"""

import json
import os
import struct
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

from repro.store.backend import (
    AppendFile,
    FsyncFailedError,
    StorageFaults,
    TornWriteError,
)
from repro.store.segment import (
    LEGACY_SEGMENT_MAGIC,
    SEGMENT_MAGIC,
    ScanResult,
    StoreError,
    encode_record,
    fsync_dir,
    scan_records,
    segment_path,
    segments_in,
)

__all__ = [
    "DurabilityService",
    "SegmentStore",
    "StoreConfig",
    "attach_durable_history",
    "decode_sample",
    "encode_sample",
]

SampleRecord = Tuple[str, str, float, float]

# One shared encoder: json.dumps with non-default separators builds a
# fresh JSONEncoder on every call.  Output is byte-identical.
_encode = json.JSONEncoder(separators=(",", ":")).encode
#: A sample payload's tail: its time and value, little-endian float64.
_TAIL = struct.Struct("<dd")


def encode_sample(entity_id: str, attr: str, t: float, v: float) -> bytes:
    """Canonical sample payload: the series' :func:`sample_prefix`, then
    ``t`` and ``v`` packed as ``<dd`` (the very bits, NaN and -0.0 too)."""
    return sample_prefix(entity_id, attr) + _TAIL.pack(t, v)


def sample_prefix(entity_id: str, attr: str) -> bytes:
    """The bytes every :func:`encode_sample` payload of one series starts
    with: the compact JSON array ``["entity","attr",`` (ASCII).

    JSON string literals are prefix-free, so a payload starts with this
    prefix exactly when it decodes to ``(entity_id, attr, ...)``.
    """
    return _encode([entity_id, attr])[:-1].encode("utf-8") + b","


def sample_series(payload: bytes) -> bytes:
    """The :func:`sample_prefix` a sample payload starts with: all but
    its 16-byte tail."""
    return payload[:-_TAIL.size]


#: ``sample_tail(payload, start)``: the ``(t, v)`` of a sample payload
#: whose series prefix is ``start`` bytes long.
sample_tail = _TAIL.unpack_from


def _series_head(prefix: bytes) -> Tuple[str, str]:
    """``(entity_id, attr)`` of a :func:`sample_prefix`."""
    return tuple(json.loads(prefix[:-1] + b"]"))


def decode_sample(payload: bytes) -> SampleRecord:
    prefix = sample_series(payload)
    return _series_head(prefix) + sample_tail(payload, len(prefix))


def decode_samples(payloads: List[bytes]) -> List[SampleRecord]:
    """:func:`decode_sample` of every payload, in order.

    The entity and attribute are decoded once per series; of each
    record only the :func:`sample_tail` is unpacked.
    """
    heads: Dict[bytes, Tuple[str, str]] = {}
    samples: List[SampleRecord] = []
    for payload in payloads:
        prefix = sample_series(payload)
        head = heads.get(prefix)
        if head is None:
            head = heads[prefix] = _series_head(prefix)
        samples.append(head + sample_tail(payload, len(prefix)))
    return samples


def _index_series(payloads: List[bytes]) -> Dict[bytes, List[bytes]]:
    """``payloads`` grouped by :func:`sample_series`, each group in order."""
    series: Dict[bytes, List[bytes]] = defaultdict(list)
    for payload in payloads:
        series[sample_series(payload)].append(payload)
    return series


def _is_torn(result: ScanResult) -> bool:
    """True when a scanned segment must be cut back before anything is
    appended to it: bytes past its verified end failed the scan, or not
    even its magic landed (an empty file included)."""
    return result.torn or result.clean_end < len(SEGMENT_MAGIC)


def read_segment(path: str, sealed: bool = False) -> ScanResult:
    """Read and scan one segment file, refusing what must not be read.

    Raises :class:`StoreError` for a segment in the older ``SWS1``
    format, whose samples this version does not decode (scanned, it
    would pass for an empty torn segment, and the first append would
    truncate it), and for a ``sealed`` segment that is torn: only the
    last segment can hold a crash's torn tail, so damage anywhere else
    is silent corruption.  Changes no byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(LEGACY_SEGMENT_MAGIC):
        raise StoreError(
            f"segment {path!r} has the store format "
            f"{LEGACY_SEGMENT_MAGIC.decode()}; this version reads only "
            f"{SEGMENT_MAGIC.decode()} segments and leaves it unchanged"
        )
    result = scan_records(data)
    if sealed and _is_torn(result):
        raise StoreError(
            f"segment {path!r} is corrupt mid-log (not the tail segment); "
            "refusing to read past silent damage"
        )
    return result


def _truncate_segment(path: str, end: int) -> None:
    """Cut a segment file back to its verified ``end`` and fsync it.

    A segment whose magic itself is torn holds no record; it is reset to
    the bare magic, so the records appended next are readable.
    """
    with open(path, "r+b") as fh:
        fh.truncate(end)
        if end < len(SEGMENT_MAGIC):
            fh.seek(0)
            fh.write(SEGMENT_MAGIC)
        fh.flush()
        os.fsync(fh.fileno())


class SegmentStore:
    """Append-only, checksummed, crash-recoverable record log.

    ``_resident`` maps each resident segment's index to its payloads in
    append order (keys inserted in ascending segment order), holding the
    very bytes objects :meth:`append` received.  ``_series`` maps the
    same indexes to the same payloads grouped by :func:`sample_series`
    key, each group in append order.  Both are filled by the scan at
    open, extended by :meth:`append`, rebuilt from :meth:`recover`'s
    verified scan and shrunk by :meth:`drop_segment`; :meth:`close`
    keeps them.  :meth:`crash` discards them, and :meth:`resident` and
    :meth:`resident_series` raise until :meth:`recover` runs, so no read
    can serve a record the crash lost.

    A torn tail in the last segment found at open is left in place until
    the first :meth:`append`, which truncates it to the verified end
    first: a store that is only read changes no byte.
    """

    def __init__(
        self,
        root: str,
        max_segment_bytes: int = 4 * 1024 * 1024,
        faults: Optional[StorageFaults] = None,
    ) -> None:
        if max_segment_bytes <= 0:
            raise StoreError(f"max_segment_bytes must be positive, got {max_segment_bytes}")
        self.root = root
        self.max_segment_bytes = max_segment_bytes
        self.faults = faults if faults is not None else StorageFaults()
        os.makedirs(root, exist_ok=True)
        self.commits = 0
        self.deferred_commits = 0
        self.failed_commits = 0
        self.rotations = 0
        self.recoveries = 0
        self.torn_tails_truncated = 0
        self.dropped_segments = 0
        self._active: Optional[AppendFile] = None
        self._active_index = 0
        #: Verified end of the active segment when the open scan found a
        #: torn tail there; the first append truncates to it.
        self._torn_end: Optional[int] = None
        #: Records resident in the WAL (a reused directory archives
        #: across runs, so opening scans what is already there; records
        #: a compaction drains away are subtracted by ``drop_segment``).
        self.appended = 0
        #: Resident records covered by a successful barrier.
        self.committed = 0
        self._resident: Optional[Dict[int, List[bytes]]] = None
        self._series: Optional[Dict[int, Dict[bytes, List[bytes]]]] = None
        self._load()

    # -- lifecycle ---------------------------------------------------------

    def _open_tail(self) -> None:
        """Open (creating if needed) the highest-numbered segment."""
        existing = segments_in(self.root)
        if existing:
            self._active_index = existing[-1][0]
            self._active = AppendFile(existing[-1][1], self.faults)
        else:
            self._active_index = 0
            self._active = AppendFile(
                segment_path(self.root, 0), self.faults, fresh=True
            )
            fsync_dir(self._active.path)

    def _load(self) -> None:
        """Scan every segment into memory and open the last for append.

        The open scan, and :meth:`recover`'s.  Everything that survived
        is treated as committed, so sequence accounting is correct from
        the first append.  A torn tail in the last segment is noted in
        ``_torn_end``, not cut; an ``SWS1`` segment or a torn earlier one
        raises (:func:`read_segment`) before any byte changes.
        """
        ordered = segments_in(self.root)
        resident: Dict[int, List[bytes]] = {}
        self._torn_end = None
        for position, (index, path) in enumerate(ordered):
            last = position == len(ordered) - 1
            result = read_segment(path, sealed=not last)
            resident[index] = result.payloads
            if last and _is_torn(result):
                self._torn_end = result.clean_end
        self._open_tail()
        # An empty directory opens with a fresh segment 0.
        resident.setdefault(self._active_index, [])
        self._resident = resident
        self._series = {index: _index_series(records)
                        for index, records in resident.items()}
        self.appended = self.committed = sum(map(len, resident.values()))

    def _truncate_torn_tail(self) -> None:
        """Cut the torn tail the scan found, before the next append."""
        path = self._active.path
        self._active.close()
        _truncate_segment(path, self._torn_end)
        self._active = AppendFile(path, self.faults)
        self._torn_end = None
        self.torn_tails_truncated += 1

    @property
    def _records_in_active(self) -> int:
        return len(self._resident[self._active_index])

    def close(self) -> None:
        if self._active is not None:
            self._active.close()
            self.committed = self.appended
            self._active = None

    # -- append / commit ---------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Frame and append one record; returns its sequence number.

        A torn write (armed transient device error) is repaired in
        place: the partial frame is truncated away and the record is
        re-appended — the error never surfaces to the caller and no
        record is lost or reordered.
        """
        if self._active is None:
            raise StoreError("store is closed")
        if self._torn_end is not None:
            self._truncate_torn_tail()
        frame = encode_record(payload)
        before = self._active.written_bytes
        try:
            self._active.append(frame)
        except TornWriteError:
            # Repair: roll back the partial frame, write it again whole.
            self._active.truncate_to(before)
            self._active.append(frame)
        self._resident[self._active_index].append(payload)
        self._series[self._active_index][sample_series(payload)].append(payload)
        seq = self.appended
        self.appended += 1
        if self._active.written_bytes >= self.max_segment_bytes:
            self._rotate()
        return seq

    def commit(self) -> bool:
        """Run the fsync barrier; True when every appended record is now
        durable.  Deferred (stalled device) and failed (lost fsync)
        barriers leave ``committed`` untouched — a later barrier picks
        the volatile tail up."""
        if self._active is None:
            raise StoreError("store is closed")
        try:
            if not self._active.flush():
                self.deferred_commits += 1
                return False
        except FsyncFailedError:
            self.failed_commits += 1
            return False
        self.committed = self.appended
        self.commits += 1
        return True

    def _rotate(self) -> None:
        """Seal the active segment and open the next one.

        Rotation is a durability barrier: the finished segment is
        closed (flush + fsync) before the new one exists, so recovery
        can trust every non-final segment end-to-end.  If the barrier
        cannot complete (stall / lost fsync), rotation is deferred —
        the segment simply grows past the threshold until a barrier
        lands.
        """
        try:
            if not self._active.flush():
                return
        except FsyncFailedError:
            return
        self._active.close()
        self.committed = self.appended
        self.commits += 1
        self._active_index += 1
        self._active = AppendFile(
            segment_path(self.root, self._active_index), self.faults, fresh=True
        )
        fsync_dir(self._active.path)
        self._resident[self._active_index] = []
        self._series[self._active_index] = defaultdict(list)
        self.rotations += 1

    # -- crash / recovery --------------------------------------------------

    def crash(self, surviving_tail_bytes: int = 0) -> None:
        """Simulate the owning process dying mid-flush.

        The durable prefix survives; of the volatile tail, an arbitrary
        ``surviving_tail_bytes`` prefix survives (possibly ending inside
        a record).  The store is left closed, and its in-memory records
        are gone with the process; :meth:`recover` reopens it.
        """
        if self._active is None:
            raise StoreError("store is closed")
        self._active.crash(surviving_tail_bytes)
        self._active = None
        self._resident = None
        self._series = None

    def recover(self) -> List[bytes]:
        """Scan all segments, truncate the torn tail, reopen for append.

        Returns every surviving record payload in append order and
        resets the sequence accounting to the recovered prefix.  Raises
        :class:`StoreError` on mid-log corruption (a bad frame in a
        non-final segment): that is silent-data-loss territory, not a
        crash artifact, and must fail loudly.  A store that is still open
        is closed first, so the scan reads every byte appended to it.
        """
        self.close()
        self._load()
        if self._torn_end is not None:
            self._truncate_torn_tail()
        self.recoveries += 1
        return list(self.resident())

    def resident(self) -> Iterator[bytes]:
        """Every resident record's payload in append order, from memory.

        The read path's view of the WAL tail: it equals :meth:`read_all`
        while the files are intact, without reading them.  Raises
        :class:`StoreError` between :meth:`crash` and :meth:`recover`.
        """
        if self._resident is None:
            raise StoreError("store crashed; recover() before reading it")
        return chain.from_iterable(self._resident.values())

    def resident_series(self, prefix: bytes) -> Iterator[bytes]:
        """The resident payloads whose :func:`sample_series` is ``prefix``
        (a :func:`sample_prefix`), in append order, from memory.

        Equals the :meth:`resident` payloads that start with ``prefix``,
        without testing the others.  Raises :class:`StoreError` between
        :meth:`crash` and :meth:`recover`.
        """
        if self._series is None:
            raise StoreError("store crashed; recover() before reading it")
        return chain.from_iterable(
            series.get(prefix, ()) for series in self._series.values())

    def read_all(self) -> List[bytes]:
        """Every record currently on disk (no truncation, no reopen).

        The on-disk view, scanned afresh on each call; the read path
        uses :meth:`resident` instead, and tests and audits compare the
        two.
        """
        payloads: List[bytes] = []
        if self._active is not None:
            self._active._fh.flush()
        for _index, path in segments_in(self.root):
            payloads.extend(read_segment(path).payloads)
        return payloads

    # -- compaction handoff --------------------------------------------------

    def sealed_segments(self) -> List[Tuple[int, str]]:
        """Every segment but the active one, ordered.

        Rotation is a durability barrier, so a sealed segment is intact
        and fully committed — the unit compaction drains.
        """
        return [
            (index, path)
            for index, path in segments_in(self.root)
            if index != self._active_index
        ]

    def drop_segment(self, index: int, records: int) -> None:
        """Remove a sealed segment whose ``records`` now live elsewhere.

        The compaction side of the handoff: called only after the chunk
        is sealed and the meta blob records the advance.  Resident
        counters shrink by ``records``; global sequence numbers are the
        columnar meta's ``wal_base_seq`` plus these resident counters.
        Usable while crashed (recovery reconciles before reopening).
        """
        if self._active is not None and index == self._active_index:
            raise StoreError(f"refusing to drop the active segment {index}")
        path = segment_path(self.root, index)
        if os.path.exists(path):
            os.unlink(path)
            fsync_dir(path)
        if self._resident is not None:
            self._resident.pop(index, None)
            self._series.pop(index, None)
        self.appended = max(0, self.appended - records)
        self.committed = max(0, self.committed - records)
        self.dropped_segments += 1

    @property
    def volatile_records(self) -> int:
        return self.appended - self.committed

    @property
    def segment_count(self) -> int:
        return len(segments_in(self.root))

    def report(self) -> dict:
        return {
            "appended": self.appended,
            "committed": self.committed,
            "commits": self.commits,
            "deferred_commits": self.deferred_commits,
            "failed_commits": self.failed_commits,
            "segments": self.segment_count,
            "rotations": self.rotations,
            "recoveries": self.recoveries,
            "dropped_segments": self.dropped_segments,
            "torn_tails_truncated": self.torn_tails_truncated,
            "torn_writes_repaired": self.faults.torn_writes,
        }


class DurabilityService:
    """Write-through durability behind one :class:`ShortTermHistory`.

    The service is the unit the fault injector targets (alias →
    ``register_store``): ``disk_*`` faults arm the shared
    :class:`StorageFaults` block, ``process_kill`` calls
    :meth:`crash_and_recover`.  A shadow copy of every accepted payload
    is kept so the chaos audit can verify — not assume — that each
    recovery produced a strict prefix of what was accepted.
    """

    def __init__(
        self,
        sim,
        history,
        store: SegmentStore,
        flush_interval_s: float = 60.0,
        shadow_cap: int = 1_000_000,
    ) -> None:
        if flush_interval_s <= 0:
            raise StoreError(
                f"flush_interval_s must be positive, got {flush_interval_s}"
            )
        self.sim = sim
        self.history = history
        self.store = store
        self.flush_interval_s = flush_interval_s
        #: Records present on disk before this run attached (a reused
        #: directory archives across runs; rebuilds exclude them).
        self.base_records = store.appended
        #: Global sequence number of this run's first sample — the shadow
        #: audit anchor.  Without compaction this equals ``base_records``;
        #: :meth:`enable_compaction` rebases it onto the columnar meta's
        #: ``wal_base_seq``.
        self._run_first_seq = store.appended
        self.run_appended = 0
        #: Samples this service appended and records its barriers
        #: committed, summed across crashes (``run_appended`` restarts at
        #: a crash; ``self.store.committed`` is a watermark).
        self.samples_appended = 0
        self.records_committed = 0
        #: Optional :class:`~repro.store.columnar.CompactionService`.
        self.compaction = None
        # Shadow of this run's accepted payloads, for the prefix audit.
        self.shadow_cap = shadow_cap
        self._shadow: List[bytes] = []
        self._shadow_overflow = False
        self.prefix_consistent = True
        self.lost_committed = 0
        self.recoveries = 0
        self.recovery_wall_s = 0.0
        self.coalesced_flushes = 0
        self._last_flush_t = None
        self._pump = None
        #: ``(entity_id, attr)`` -> :func:`sample_prefix`, one per series.
        self._prefixes: Dict[Tuple[str, str], bytes] = {}
        history.set_sink(self)
        metrics = sim.metrics
        metrics.register_counter("store.appended", lambda: self.samples_appended)
        metrics.register_counter("store.committed", lambda: self.records_committed)
        metrics.register_counter("store.recoveries", lambda: self.recoveries)
        metrics.register_callback(
            "store.volatile_records", lambda: float(self.store.volatile_records)
        )
        metrics.register_callback(
            "store.segments", lambda: float(self.store.segment_count)
        )

    # -- write-through ------------------------------------------------------

    def _encode(self, entity_id: str, attr: str, t: float, v: float) -> bytes:
        """:func:`encode_sample`, building each series' prefix once."""
        prefix = self._prefixes.get((entity_id, attr))
        if prefix is None:
            prefix = self._prefixes[entity_id, attr] = sample_prefix(entity_id, attr)
        return prefix + _TAIL.pack(t, v)

    def on_sample(self, entity_id: str, attr: str, t: float, v: float) -> None:
        payload = self._encode(entity_id, attr, t, v)
        self.store.append(payload)
        self.samples_appended += 1
        self.run_appended += 1
        if len(self._shadow) < self.shadow_cap:
            self._shadow.append(payload)
        else:
            self._shadow_overflow = True

    # -- the sim-time fsync barrier ----------------------------------------

    def start(self) -> None:
        """Spawn the flush pump (idempotent)."""
        if self._pump is None:
            self._pump = self.sim.spawn(self._flush_loop(), name="store-flush")

    def _flush_loop(self):
        while True:
            yield self.flush_interval_s
            self.flush_now()

    def flush_now(self) -> bool:
        now = self.sim.now
        if (self._last_flush_t == now
                and self.store.volatile_records == 0
                and self.store._active is not None):
            # A barrier already landed at this sim timestamp and nothing
            # volatile arrived since — running the fsync again would be
            # a redundant event (back-to-back barriers from the pump plus
            # an explicit flush, or compaction, at the same instant).
            self.coalesced_flushes += 1
            return True
        before = self.store.committed
        ok = self.store.commit()
        if ok:
            self._last_flush_t = now
            self.records_committed += self.store.committed - before
        return ok

    # -- compaction ---------------------------------------------------------

    def enable_compaction(
        self,
        interval_s: float = 3600.0,
        block_size: int = 512,
        retention=None,
    ):
        """Attach (idempotently) the columnar compaction service.

        Spawns its sim-time pump, binds the columnar reader behind the
        history's ``source="auto"`` reads, and rebases the shadow-audit
        anchor onto the global (WAL + chunks) sequence space.  Returns
        the :class:`~repro.store.columnar.CompactionService`.
        """
        if self.compaction is None:
            from repro.store.columnar import CompactionService

            self.compaction = CompactionService(
                self.sim, self, interval_s=interval_s,
                block_size=block_size, retention=retention,
            )
            self.compaction.start()
            self._run_first_seq = (
                self.compaction.columnar.wal_base_seq
                + self.store.appended - self.run_appended
            )
            self.history.bind_columnar(self.compaction.reader)
        return self.compaction

    # -- crash path ---------------------------------------------------------

    def crash_and_recover(self, surviving_tail_bytes: int = 0) -> int:
        """Kill the history+store "process" and bring it back from disk.

        Everything volatile dies: unflushed store bytes (minus the
        surviving tail the crash left), the history's rings and rollup
        buckets.  Recovery reconciles the WAL↔chunk handoff (when
        compaction is attached), truncates the WAL's torn tail, then
        rebuilds the history from every durable record — retained
        chunks first, WAL tail after, in global append order — the
        state any fresh process replaying the durable data would
        reach.  Returns the number of records recovered (including
        prior-run base and compacted chunks).
        """
        base_seq = (0 if self.compaction is None
                    else self.compaction.columnar.wal_base_seq)
        committed_before = base_seq + self.store.committed
        if self.compaction is not None:
            # A kill between the compaction meta advance and the segment
            # delete leaves records counted on both sides of the handoff
            # (in wal_base_seq *and* still WAL-resident); subtract the
            # stale overlap so the loss oracle is exact.
            next_segment = self.compaction.columnar.next_segment
            for index, path in self.store.sealed_segments():
                if index < next_segment:
                    committed_before -= len(read_segment(path).payloads)
        started = time.perf_counter()
        self.store.crash(surviving_tail_bytes)
        if self.compaction is not None:
            self.compaction.recover()
        wal_payloads = self.store.recover()
        self.recovery_wall_s += time.perf_counter() - started
        self.recoveries += 1
        if self.compaction is not None:
            base_seq = self.compaction.columnar.wal_base_seq
        recovered_end = base_seq + len(wal_payloads)
        if recovered_end < committed_before:
            # A committed record failed to survive — the invariant the
            # whole store exists to uphold.  Recorded, audited, fatal
            # to the chaos run's invariant check.
            self.lost_committed += committed_before - recovered_end
        # One pass over the durable sequence feeds the history rebuild and
        # audits this run's records against the shadow.  The shadow
        # restarts from the longest contiguous recovered suffix of this
        # run's records (post-crash appends must extend it exactly): a
        # slice of the old shadow while the audit holds, else the
        # recovered payloads collected from the suffix's start.
        first = self._run_first_seq
        shadow = self._shadow
        kept: Optional[List[bytes]] = [] if self._shadow_overflow else None
        count = 0
        # The last of this run's records seen, and where its contiguous
        # run started (sequence numbers ascend; retention leaves gaps).
        last = run_start = -2

        def samples():
            nonlocal kept, count, last, run_start
            for seq, sample, payload in self._durable_records(wal_payloads, base_seq):
                count += 1
                yield sample
                if seq < first:
                    continue
                if seq != last + 1:
                    run_start = seq
                    if kept is not None:
                        kept = []
                last = seq
                if payload is None:
                    payload = self._encode(*sample)
                if kept is not None:
                    kept.append(payload)
                    continue
                pos = seq - first
                if pos >= len(shadow) or shadow[pos] != payload:
                    self.prefix_consistent = False
                    kept = shadow[run_start - first:pos] + [payload]

        self.history.rebuild_from_samples(samples())
        if last != recovered_end - 1:
            suffix: List[bytes] = []
        elif kept is not None:
            suffix = kept
        else:
            suffix = shadow[run_start - first:recovered_end - first]
        self._shadow = suffix
        self._run_first_seq = recovered_end - len(suffix)
        self.run_appended = len(suffix)
        return count

    def _durable_records(
        self, wal_payloads: List[bytes], base_seq: int,
    ) -> Iterator[Tuple[int, SampleRecord, Optional[bytes]]]:
        """``(seq, sample, payload)`` of every durable record in global
        append order: retained chunks first (ascending, gaps only where
        retention dropped whole chunks; no payload), then the WAL."""
        if self.compaction is not None:
            columnar = self.compaction.columnar
            for index in columnar.chunk_indexes():
                chunk = columnar.read_chunk(index)
                for seq, sample in enumerate(chunk.iter_records(),
                                             chunk.header["first_seq"]):
                    yield seq, sample, None
        for seq, payload in enumerate(wal_payloads, base_seq):
            yield seq, decode_sample(payload), payload

    def report(self) -> dict:
        data = self.store.report()
        data.update({
            "run_records": self.run_appended,
            "recoveries": self.recoveries,
            "recovery_wall_s": self.recovery_wall_s,
            "lost_committed": self.lost_committed,
            "prefix_consistent": self.prefix_consistent,
            "coalesced_flushes": self.coalesced_flushes,
        })
        if self.compaction is not None:
            data["compaction"] = self.compaction.report()
        return data


@dataclass(frozen=True)
class StoreConfig:
    """A pilot's durable store: the ``PilotConfig.store`` assembly step.

    The fields are :func:`attach_durable_history`'s arguments; the two
    retention caps (``None`` = unbounded) become its ``RetentionConfig``.
    """

    root: str
    flush_interval_s: float = 60.0
    max_segment_bytes: int = 4 * 1024 * 1024
    compact_interval_s: Optional[float] = None
    retention_age_s: Optional[float] = None
    retention_bytes: Optional[int] = None


def attach_durable_history(
    runner,
    root: str,
    flush_interval_s: float = 60.0,
    max_segment_bytes: int = 4 * 1024 * 1024,
    compact_interval_s: Optional[float] = None,
    compact_block_size: int = 512,
    retention=None,
) -> DurabilityService:
    """Put a durable segment store behind ``runner``'s history.

    Strictly additive until the flush pump's first barrier event; with
    the option unset nothing here is constructed, so pinned fixtures are
    byte-identical.  ``compact_interval_s`` (or a ``retention`` config)
    additionally enables the columnar compaction service, which binds
    streaming chunk reads behind the history's ``source="auto"`` path.
    The returned service is also assigned to ``runner.durability`` for
    the chaos audit and CLI summary.
    """
    # Checked before SegmentStore creates the directory, so a refused
    # store leaves nothing on disk.
    for name, value in (("flush_interval_s", flush_interval_s),
                        ("compact_interval_s", compact_interval_s)):
        if value is not None and value <= 0:
            raise StoreError(f"{name} must be positive, got {value}")
    store = SegmentStore(root, max_segment_bytes=max_segment_bytes)
    service = DurabilityService(
        runner.sim, runner.history, store, flush_interval_s=flush_interval_s
    )
    service.start()
    if compact_interval_s is not None or retention is not None:
        service.enable_compaction(
            interval_s=(compact_interval_s
                        if compact_interval_s is not None else 3600.0),
            block_size=compact_block_size,
            retention=retention,
        )
    runner.durability = service
    return service
