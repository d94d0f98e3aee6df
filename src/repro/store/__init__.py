"""Crash-safe append-only segment store (durable history archive).

See :mod:`repro.store.segment` for the on-disk frame format,
:mod:`repro.store.backend` for the fault-injectable file layer,
:mod:`repro.store.durable` for the store itself plus the glue that puts
it behind :class:`~repro.context.history.ShortTermHistory`, and
:mod:`repro.store.columnar` for the compacted columnar read path
(chunk files with zone maps, sim-time compaction, per-tenant retention).
"""

from repro.store.backend import (
    AppendFile,
    FsyncFailedError,
    StorageFaults,
    TornWriteError,
)
from repro.store.columnar import (
    ColumnarReader,
    ColumnarStore,
    CompactionKilled,
    CompactionService,
    RetentionConfig,
    RetentionPolicy,
    decode_chunk,
    encode_chunk,
    open_columnar_reader,
)
from repro.store.durable import (
    DurabilityService,
    SegmentStore,
    StoreConfig,
    attach_durable_history,
    decode_sample,
    encode_sample,
)
from repro.store.segment import (
    CorruptBlobError,
    SEALED_MAGIC,
    SEGMENT_MAGIC,
    ScanResult,
    StoreError,
    encode_record,
    read_sealed,
    scan_records,
    write_sealed,
)

__all__ = [
    "AppendFile",
    "ColumnarReader",
    "ColumnarStore",
    "CompactionKilled",
    "CompactionService",
    "CorruptBlobError",
    "DurabilityService",
    "FsyncFailedError",
    "RetentionConfig",
    "RetentionPolicy",
    "SEALED_MAGIC",
    "SEGMENT_MAGIC",
    "ScanResult",
    "SegmentStore",
    "StorageFaults",
    "StoreConfig",
    "StoreError",
    "TornWriteError",
    "attach_durable_history",
    "decode_chunk",
    "decode_sample",
    "encode_chunk",
    "encode_record",
    "encode_sample",
    "open_columnar_reader",
    "read_sealed",
    "scan_records",
    "write_sealed",
]
