"""File-backed page storage (one file per segment).

A :class:`Pager` owns one operating-system file holding an array of
fixed-size pages.  It performs *raw* page I/O and records every
physical access in the shared :class:`~repro.storage.stats.DiskStats`;
it does **no caching** — that is the buffer pool's job, and keeping the
layers separate is what makes the disk-access accounting trustworthy.

Every page written carries a crc32 trailer in its last
:data:`~repro.storage.page.CHECKSUM_SIZE` bytes — stamped by
:meth:`Pager.write_page`/:meth:`Pager.allocate` and verified by
:meth:`Pager.read_page`, which raises
:class:`~repro.errors.PageCorruptionError` on a mismatch.  Layout code
above the pager must size itself to :attr:`Pager.payload_size`, never
``page_size``.  Raw page I/O outside this module (and the WAL and the
fsck machinery) is banned by reprolint rule R7.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import PageCorruptionError, StorageError
from repro.obs.lockwatch import watched_lock
from repro.storage.page import (
    CHECKSUM_SIZE,
    DEFAULT_PAGE_SIZE,
    page_checksums,
    seal_page,
)
from repro.storage.stats import DiskStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.faults import FaultInjector
    from repro.storage.wal import WriteAheadLog

__all__ = ["Pager"]


class Pager:
    """Raw page I/O over a single file.

    Attributes:
        name: the segment name used for statistics attribution.
        page_size: bytes per page on disk.
    """

    def __init__(
        self,
        path: str | Path,
        stats: DiskStats,
        name: str | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self._path = Path(path)
        self.name = name if name is not None else self._path.stem
        self.page_size = page_size
        self._stats = stats
        flags = os.O_RDWR | os.O_CREAT
        try:
            self._fd = os.open(self._path, flags, 0o644)
        except OSError as exc:
            raise StorageError(
                f"{self._path}: cannot open segment file: {exc}",
                path=str(self._path),
            ) from exc
        # From here on the fd is owned: any failure before __init__
        # completes must close it, or the descriptor leaks.
        try:
            try:
                size = os.fstat(self._fd).st_size
            except OSError as exc:
                raise StorageError(
                    f"{self._path}: cannot stat segment file: {exc}",
                    path=str(self._path),
                ) from exc
            if size % page_size != 0:
                raise StorageError(
                    f"{self._path}: size {size} is not a multiple of "
                    f"{page_size}",
                    path=str(self._path),
                )
        except BaseException:
            os.close(self._fd)
            raise
        self._n_pages = size // page_size
        self._closed = False
        self._alloc_lock = watched_lock("Pager._alloc_lock")
        self._crc_lock = watched_lock("Pager._crc_lock")
        self._crc_failures = 0
        #: Optional :class:`repro.storage.wal.WriteAheadLog`; when set,
        #: every in-place page write is logged first.
        self.wal: "WriteAheadLog | None" = None
        #: Simulated per-read device latency in seconds (0 = off).
        #: ``pread`` on a warm OS page cache takes microseconds, which
        #: makes wall-clock benchmarks of a *disk-resident* design
        #: meaningless; sleeping here restores an I/O-bound profile so
        #: throughput experiments exercise the same trade-offs the
        #: disk-access counters measure.  The sleep releases the GIL,
        #: so concurrent readers overlap their stalls — exactly what
        #: the buffer pool's lock striping is for.
        self.io_latency = 0.0
        #: Optional :class:`repro.storage.faults.FaultInjector`; when
        #: set, every physical read consults it first and may raise
        #: :class:`~repro.errors.TransientIOError`, stall, or corrupt
        #: the page bytes in flight.  A failed read is *not* counted
        #: as a physical read — the page never arrived, matching how a
        #: real device error behaves.
        self.fault_injector: "FaultInjector | None" = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the underlying file descriptor (idempotent)."""
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - defensive
        try:
            self.close()
        except Exception:
            pass

    # -- page I/O ----------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        """Number of allocated pages."""
        # Mutations are single-writer (builds are not parallelised), so
        # this racy read can only lag a concurrent allocate, never tear.
        return self._n_pages  # reprolint: disable=R1 single-writer

    @property
    def payload_size(self) -> int:
        """Bytes per page usable by layout code.

        ``page_size`` minus the checksum trailer.  Every page layout
        (slotted pages, index nodes) must size itself to this, not
        ``page_size``.
        """
        return self.page_size - CHECKSUM_SIZE

    @property
    def crc_failures(self) -> int:
        """Checksum mismatches seen by :meth:`read_page` so far."""
        with self._crc_lock:
            return self._crc_failures

    @property
    def stats(self) -> DiskStats:
        """The shared :class:`DiskStats` this pager records into."""
        return self._stats

    def allocate(self) -> int:
        """Extend the file by one zeroed page; returns its page number.

        Allocation writes the page, which counts as a physical write.
        """
        self._check_open()
        with self._alloc_lock:
            page_no = self._n_pages
            page = bytearray(self.page_size)
            seal_page(page)
            try:
                # reprolint: disable=R10 zero-fill must land before the page is visible
                os.pwrite(self._fd, bytes(page), page_no * self.page_size)
            except OSError as exc:
                raise StorageError(
                    f"{self.name}: allocation of page {page_no} failed: "
                    f"{exc}",
                    path=str(self._path),
                    page=page_no,
                ) from exc
            self._n_pages += 1
        self._stats.record_physical_write(self.name)
        return page_no

    def read_page(self, page_no: int) -> bytearray:
        """Read page ``page_no`` from disk (a *physical read*).

        The page's crc32 trailer is verified; a mismatch raises
        :class:`~repro.errors.PageCorruptionError` (and, like an
        injected fault, does not count as a physical read — corrupt
        bytes are not a served page).
        """
        self._check_open()
        self._check_range(page_no)
        if self.fault_injector is not None:
            self.fault_injector.fire("pager.read", f"{self.name}:{page_no}")
        if self.io_latency > 0.0:
            time.sleep(self.io_latency)
        try:
            data = os.pread(self._fd, self.page_size, page_no * self.page_size)
        except OSError as exc:
            raise StorageError(
                f"{self.name}: read of page {page_no} failed: {exc}",
                path=str(self._path),
                page=page_no,
            ) from exc
        if len(data) != self.page_size:
            raise StorageError(
                f"{self.name}: short read of page {page_no} "
                f"({len(data)}/{self.page_size} bytes)",
                path=str(self._path),
                page=page_no,
            )
        buf = bytearray(data)
        if self.fault_injector is not None:
            self.fault_injector.corrupt_page(buf, f"{self.name}:{page_no}")
        self._verify(buf, page_no)
        self._stats.record_physical_read(self.name)
        if self._stats.trace_hook is not None:
            self._stats.trace_hook(self.name, page_no)
        return buf

    def read_pages(self, start: int, count: int) -> bytes:
        """Read ``count`` consecutive pages in one physical transfer.

        The cluster fast path stores each cluster as a contiguous page
        *run*; fetching it with one sequential ``pread`` instead of
        ``count`` single-page reads is the I/O economy the layout buys.
        The accounting stays honest: the read is recorded as ``count``
        pages (``DiskStats.record_physical_read(..., pages=count)``),
        never as one probe call, and the simulated device latency is
        charged once — a sequential multi-page transfer pays one seek.

        Fault injection and checksum verification remain page-granular
        so injection drills and ``fsck`` see the same surface as
        :meth:`read_page`: each page of the run fires the injector and
        verifies its own crc trailer, and the first bad page raises
        :class:`~repro.errors.PageCorruptionError` for the whole run
        (corrupt bytes are not a served page, so nothing is counted).

        Returns the raw run (``count * page_size`` bytes, trailers
        included); :meth:`repro.storage.database.Segment.read_run`
        strips the trailers into a contiguous payload.
        """
        self._check_open()
        if count < 1:
            raise StorageError(
                f"{self.name}: run length must be >= 1, got {count}"
            )
        self._check_range(start)
        self._check_range(start + count - 1)
        if self.fault_injector is not None:
            for page_no in range(start, start + count):
                self.fault_injector.fire(
                    "pager.read", f"{self.name}:{page_no}"
                )
        if self.io_latency > 0.0:
            time.sleep(self.io_latency)
        length = count * self.page_size
        try:
            data = os.pread(self._fd, length, start * self.page_size)
        except OSError as exc:
            raise StorageError(
                f"{self.name}: read of pages {start}..{start + count - 1} "
                f"failed: {exc}",
                path=str(self._path),
                page=start,
            ) from exc
        if len(data) != length:
            raise StorageError(
                f"{self.name}: short read of pages "
                f"{start}..{start + count - 1} ({len(data)}/{length} bytes)",
                path=str(self._path),
                page=start,
            )
        buf = bytearray(data)
        for i in range(count):
            page_no = start + i
            off = i * self.page_size
            if self.fault_injector is not None:
                page = bytearray(buf[off:off + self.page_size])
                self.fault_injector.corrupt_page(
                    page, f"{self.name}:{page_no}"
                )
                buf[off:off + self.page_size] = page
            self._verify(buf[off:off + self.page_size], page_no)
        self._stats.record_physical_read(self.name, pages=count)
        if self._stats.trace_hook is not None:
            for page_no in range(start, start + count):
                self._stats.trace_hook(self.name, page_no)
        return bytes(buf)

    def write_page(self, page_no: int, data: bytes | bytearray) -> None:
        """Write page ``page_no`` to disk (a *physical write*).

        The image is sealed — its crc32 trailer stamped — before it
        leaves this method (the caller's buffer is
        not mutated).  When a write-ahead log is attached (:attr:`wal`),
        the sealed image is appended to the log before the in-place
        write, so WAL replay restores verifiable pages.
        """
        self._check_open()
        self._check_range(page_no)
        if len(data) != self.page_size:
            raise StorageError(
                f"{self.name}: page payload is {len(data)} bytes, "
                f"expected {self.page_size}",
                path=str(self._path),
                page=page_no,
            )
        image = bytearray(data)
        seal_page(image)
        if self.wal is not None:
            self.wal.log_page(self.name, page_no, bytes(image))
        try:
            os.pwrite(self._fd, bytes(image), page_no * self.page_size)
        except OSError as exc:
            raise StorageError(
                f"{self.name}: write of page {page_no} failed: {exc}",
                path=str(self._path),
                page=page_no,
            ) from exc
        self._stats.record_physical_write(self.name)

    def sync(self) -> None:
        """fsync the file."""
        self._check_open()
        try:
            os.fsync(self._fd)
        except OSError as exc:
            raise StorageError(
                f"{self.name}: fsync failed: {exc}", path=str(self._path)
            ) from exc

    # -- checks ----------------------------------------------------------------------

    def _verify(self, page: bytes | bytearray, page_no: int) -> None:
        """Raise :class:`PageCorruptionError` (and count the failure)
        when ``page``'s crc32 trailer does not match its payload."""
        stored, computed = page_checksums(page)
        if stored == computed:
            return
        with self._crc_lock:
            self._crc_failures += 1
        raise PageCorruptionError(
            f"{self.name}: page {page_no} failed checksum verification",
            segment=self.name,
            page=page_no,
            expected=stored,
            actual=computed,
        )

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"{self.name}: pager is closed")

    def _check_range(self, page_no: int) -> None:
        # reprolint: disable=R1 single-writer allocation; racy read tolerated
        if not 0 <= page_no < self._n_pages:
            raise StorageError(
                f"{self.name}: page {page_no} out of range "
                f"0..{self._n_pages - 1}"  # reprolint: disable=R1 single-writer
            )
