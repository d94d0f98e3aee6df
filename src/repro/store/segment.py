"""On-disk record framing for the durable store (and sealed blobs).

The segment store's unit of durability is the **record**: a little-endian
``<payload length, CRC32(payload)>`` header followed by the payload
bytes.  A segment file is the 4-byte magic :data:`SEGMENT_MAGIC` followed
by zero or more records; nothing else.  Because every record carries its
own checksum, recovery after a crash is a single forward scan
(:func:`scan_records`): read records while headers and checksums verify,
stop at the first short or corrupt frame, and truncate there — the
classic WAL torn-tail rule.  A record is *committed* once an fsync
barrier has covered it; :func:`scan_records` can only ever return a
prefix of what was appended, so recovery is prefix-consistent by
construction.

Sealed blobs (:func:`write_sealed` / :func:`read_sealed`) reuse the same
frame for whole-file artifacts — one checksummed record written to a
temp file, fsynced, atomically renamed over the target, directory
fsynced.  Checkpoint saves go through this path so a checkpoint torn
mid-write is *detected* at load (bad CRC / short frame) instead of
silently unpickling garbage.
"""

import os
import struct
import zlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.simkernel.errors import ReproError

__all__ = [
    "CorruptBlobError",
    "LEGACY_SEGMENT_MAGIC",
    "RECORD_HEADER",
    "SEGMENT_MAGIC",
    "SEALED_MAGIC",
    "ScanResult",
    "StoreError",
    "encode_record",
    "fsync_dir",
    "read_sealed",
    "scan_records",
    "segment_path",
    "segments_in",
    "write_sealed",
]

#: First 4 bytes of every segment file: the segment format version.
SEGMENT_MAGIC = b"SWS2"
#: The previous segment format (JSON sample payloads), refused at open.
LEGACY_SEGMENT_MAGIC = b"SWS1"
#: First 4 bytes of a sealed single-blob file (checkpoints).
SEALED_MAGIC = b"SWB1"
#: Per-record frame header: payload length, CRC32 of the payload.
RECORD_HEADER = struct.Struct("<II")


class StoreError(ReproError):
    """Base error for the durable segment store."""


class CorruptBlobError(StoreError):
    """A sealed blob failed its frame or checksum verification."""


def encode_record(payload: bytes) -> bytes:
    """Frame ``payload`` as one checksummed record."""
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class ScanResult:
    """What a recovery scan found in one segment's bytes."""

    #: Every record that verified, in append order.
    payloads: List[bytes]
    #: Byte offset just past the last verified record (the truncate point).
    clean_end: int
    #: True when trailing bytes past ``clean_end`` had to be discarded.
    torn: bool


def scan_records(data: bytes, offset: int = len(SEGMENT_MAGIC)) -> ScanResult:
    """Forward-scan ``data`` from ``offset``, stopping at the first bad frame.

    Never raises on torn or corrupt tails — that is the *expected* state
    after a crash; the caller truncates to ``clean_end``.  A short or
    missing magic is treated as an empty, torn segment (a crash can land
    between file creation and the magic write).
    """
    if len(data) < offset or data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        return ScanResult([], 0, torn=bool(data))
    payloads: List[bytes] = []
    pos = offset
    header_size = RECORD_HEADER.size
    total = len(data)
    while pos + header_size <= total:
        length, crc = RECORD_HEADER.unpack_from(data, pos)
        end = pos + header_size + length
        if end > total:
            break  # torn tail: header landed, payload didn't
        payload = data[pos + header_size : end]
        if zlib.crc32(payload) != crc:
            break  # corrupt frame: stop, discard the rest
        payloads.append(payload)
        pos = end
    return ScanResult(payloads, pos, torn=pos != total)


def fsync_dir(path: str) -> None:
    """Fsync the directory containing ``path`` (durability of the rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_sealed(path: str, payload: bytes) -> None:
    """Atomically write ``payload`` as a sealed, checksummed blob.

    The full write barrier: temp file, flush, **fsync**, rename over
    ``path``, fsync the directory.  A crash at any point leaves either
    the old file, no file, or a temp file recovery ignores — never a
    half-written ``path``.
    """
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as fh:
        fh.write(SEALED_MAGIC)
        fh.write(encode_record(payload))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    fsync_dir(path)


def read_sealed(path: str) -> bytes:
    """Read a sealed blob, raising :class:`CorruptBlobError` on damage."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(SEALED_MAGIC)] != SEALED_MAGIC:
        raise CorruptBlobError(f"{path!r} is not a sealed blob (bad magic)")
    result = scan_records(SEGMENT_MAGIC + data[len(SEALED_MAGIC):])
    if len(result.payloads) != 1 or result.torn:
        raise CorruptBlobError(
            f"{path!r} is torn or corrupt "
            f"({len(result.payloads)} intact records, torn={result.torn})"
        )
    return result.payloads[0]


def segments_in(root: str) -> List[Tuple[int, str]]:
    """``(index, path)`` for every segment file under ``root``, ordered."""
    out: List[Tuple[int, str]] = []
    for name in os.listdir(root):
        if name.startswith("seg-") and name.endswith(".log"):
            try:
                index = int(name[4:-4])
            except ValueError:
                continue
            out.append((index, os.path.join(root, name)))
    out.sort()
    return out


def segment_path(root: str, index: int) -> str:
    return os.path.join(root, f"seg-{index:08d}.log")
