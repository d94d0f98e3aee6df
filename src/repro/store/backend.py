"""Fault-injectable append-only file I/O.

Real storage fails in ways an append-only store must survive: a write
can land partially (torn), an fsync can fail (and post-fsyncgate, a
failed fsync means the data's durability is *unknown* — the only safe
reaction is to treat it as not durable), a device can stall, and the
process can die mid-flush.  :class:`AppendFile` wraps one segment file
with exactly those failure modes, armed through a shared
:class:`StorageFaults` control block that the fault injector pokes
(``disk_torn_write`` / ``disk_stall`` / ``fsync_lost`` /
``process_kill`` plans).

The accounting contract the store builds on:

* ``written_bytes`` — everything handed to the OS (buffered or on disk);
* ``durable_bytes`` — everything covered by a successful fsync barrier.

On a simulated process kill, the bytes that survive are
``durable_bytes`` plus an *arbitrary* prefix of the unflushed tail
(:meth:`AppendFile.crash`) — the OS may have written any amount of the
buffered data before the crash, including half a record.  Recovery's
checksum scan is what turns that arbitrary tail back into a
prefix-consistent record sequence.
"""

import os
from typing import Optional

from repro.store.segment import SEGMENT_MAGIC, StoreError

__all__ = [
    "AppendFile",
    "FsyncFailedError",
    "StorageFaults",
    "TornWriteError",
]


class TornWriteError(StoreError):
    """An append landed only partially (transient device error)."""


class FsyncFailedError(StoreError):
    """An fsync barrier failed; the covered bytes must be treated as
    NOT durable (the fail-stop reading of fsyncgate)."""


class StorageFaults:
    """Shared control block for injected storage failures.

    One instance is shared by every :class:`AppendFile` a store opens, so
    a fault plan targets the *store*, not a particular segment.  All
    flags are plain state — arming one draws no randomness and schedules
    nothing, keeping fault-free runs bit-identical.
    """

    __slots__ = (
        "torn_write_armed",
        "torn_write_fraction",
        "stalled",
        "fsync_lost",
        "torn_writes",
        "stalled_flushes",
        "failed_fsyncs",
    )

    def __init__(self) -> None:
        self.torn_write_armed = False
        self.torn_write_fraction = 0.5
        self.stalled = False
        self.fsync_lost = False
        # Accounting (read by telemetry and the chaos audit).
        self.torn_writes = 0
        self.stalled_flushes = 0
        self.failed_fsyncs = 0

    def arm_torn_write(self, fraction: float = 0.5) -> None:
        """Tear the next append: only ``fraction`` of its bytes land."""
        self.torn_write_armed = True
        self.torn_write_fraction = min(max(fraction, 0.0), 1.0)


class AppendFile:
    """One append-only segment file with injectable failure modes."""

    __slots__ = ("path", "faults", "written_bytes", "durable_bytes", "_fh")

    def __init__(self, path: str, faults: Optional[StorageFaults] = None,
                 fresh: bool = False) -> None:
        self.path = path
        self.faults = faults if faults is not None else StorageFaults()
        if fresh or not os.path.exists(path):
            with open(path, "wb") as fh:
                fh.write(SEGMENT_MAGIC)
                fh.flush()
                os.fsync(fh.fileno())
            size = len(SEGMENT_MAGIC)
        else:
            size = os.path.getsize(path)
        self._fh = open(path, "r+b")
        self._fh.seek(size)
        self.written_bytes = size
        self.durable_bytes = size

    # -- writes -----------------------------------------------------------

    def append(self, data: bytes) -> None:
        """Hand ``data`` to the OS; raises :class:`TornWriteError` when a
        torn write is armed (after landing the partial prefix, exactly
        like a device that errored mid-DMA)."""
        faults = self.faults
        if faults.torn_write_armed:
            faults.torn_write_armed = False
            faults.torn_writes += 1
            keep = int(len(data) * faults.torn_write_fraction)
            self._fh.write(data[:keep])
            self.written_bytes += keep
            raise TornWriteError(
                f"write tore after {keep}/{len(data)} bytes at offset "
                f"{self.written_bytes - keep} of {self.path!r}"
            )
        self._fh.write(data)
        self.written_bytes += len(data)

    def truncate_to(self, size: int) -> None:
        """Roll the file back to ``size`` bytes (torn-write repair)."""
        if size < self.durable_bytes:
            raise StoreError(
                f"cannot truncate {self.path!r} below its durable prefix "
                f"({size} < {self.durable_bytes})"
            )
        self._fh.flush()
        self._fh.truncate(size)
        self._fh.seek(size)
        self.written_bytes = size

    # -- durability barrier -----------------------------------------------

    def flush(self) -> bool:
        """Run an fsync barrier; True when the barrier committed.

        A stalled device defers the barrier (False, nothing lost, nothing
        durable).  A lost fsync raises :class:`FsyncFailedError`; the
        caller must keep treating the covered bytes as volatile and retry
        a later barrier — the durable watermark never moves on a failed
        fsync.
        """
        faults = self.faults
        if faults.stalled:
            faults.stalled_flushes += 1
            return False
        self._fh.flush()
        if faults.fsync_lost:
            faults.failed_fsyncs += 1
            raise FsyncFailedError(
                f"fsync of {self.path!r} failed; "
                f"{self.written_bytes - self.durable_bytes} bytes remain volatile"
            )
        os.fsync(self._fh.fileno())
        self.durable_bytes = self.written_bytes
        return True

    # -- crash simulation --------------------------------------------------

    def crash(self, surviving_tail_bytes: int = 0) -> None:
        """Kill the process mid-flush: keep the durable prefix plus an
        arbitrary ``surviving_tail_bytes`` of the unflushed tail.

        Closes the handle; the file is what a post-crash reopen would
        find.  The surviving tail can end mid-record — recovery's
        checksum scan handles that.
        """
        keep = self.durable_bytes + max(
            0, min(surviving_tail_bytes, self.written_bytes - self.durable_bytes)
        )
        self._fh.flush()
        self._fh.truncate(keep)
        self._fh.close()

    def close(self) -> None:
        """Clean shutdown: final barrier, then close."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.durable_bytes = self.written_bytes
        self._fh.close()
