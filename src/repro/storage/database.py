"""The database facade: a directory of segments behind one buffer pool.

A :class:`Database` stands in for the paper's Oracle instance: it owns
the shared :class:`~repro.storage.stats.DiskStats`, the
:class:`~repro.storage.buffer.BufferPool`, and one
:class:`~repro.storage.pager.Pager` per *segment* (a table or index
file).  Higher layers (heap files, B+-trees, spatial indexes) operate
on :class:`Segment` handles, which route all page traffic through the
buffer pool so that disk-access accounting is uniform.

**Page format.**  The directory carries a ``storage_meta.json`` flag
recording the one page format there is (``page_format`` 2): every page
is sealed with a crc32 trailer verified on read.  A directory whose
flag says anything else — or that holds segment files and no flag —
was written by a retired layout and does not open: it raises
:class:`~repro.errors.StorageError` asking for a rebuild.  Layout code
must size itself to :attr:`Segment.payload_size`, ``page_size`` minus
the trailer.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import StorageError
from repro.storage.buffer import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.page import (
    CHECKSUM_SIZE,
    DEFAULT_PAGE_SIZE,
    PAGE_FORMAT_V2,
)
from repro.storage.pager import Pager
from repro.storage.stats import DiskStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.faults import FaultInjector

__all__ = [
    "Database",
    "Segment",
    "STORAGE_META_FILENAME",
    "epoch_prefix",
    "parse_epoch_segment",
]

#: Sidecar file recording the database's page format.
STORAGE_META_FILENAME = "storage_meta.json"


def epoch_prefix(prefix: str, epoch: int) -> str:
    """The physical segment prefix of a store ``prefix`` at ``epoch``.

    Epoch 0 is the plain prefix (``dm_nodes``, ...), so stores that are
    never mutated keep their historical file names; later epochs live
    in shadow segments (``dm@2_nodes``, ...) staged by the patch path.
    """
    if epoch < 0:
        raise StorageError(f"epoch must be >= 0, got {epoch}")
    return prefix if epoch == 0 else f"{prefix}@{epoch}"


def parse_epoch_segment(name: str) -> tuple[str, int] | None:
    """Split ``dm@3_nodes`` into ``("dm", 3)``; ``None`` for epoch-0 names.

    The inverse of :func:`epoch_prefix` over segment *names*: returns
    the logical store prefix and epoch of an epoch-suffixed name, or
    ``None`` when the name carries no epoch marker.  ``fsck`` uses it
    to find staged segments whose epoch was never committed.
    """
    base, sep, rest = name.rpartition("@")
    if not sep:
        return None
    tag, sep, _ = rest.partition("_")
    if not sep or not tag.isdigit():
        return None
    return base, int(tag)


class Segment:
    """Buffered page access to one file, with statistics attribution."""

    def __init__(self, pager: Pager, buffer: BufferPool) -> None:
        self._pager = pager
        self._buffer = buffer

    @property
    def name(self) -> str:
        """Segment name (statistics key)."""
        return self._pager.name

    @property
    def page_size(self) -> int:
        """Bytes per page on disk (including any checksum trailer)."""
        return self._pager.page_size

    @property
    def payload_size(self) -> int:
        """Bytes per page usable by layout code (see
        :attr:`repro.storage.pager.Pager.payload_size`)."""
        return self._pager.payload_size

    @property
    def n_pages(self) -> int:
        """Number of allocated pages."""
        return self._pager.n_pages

    def fetch(self, page_no: int) -> bytearray:
        """The (cached) buffer for ``page_no``."""
        return self._buffer.fetch(self._pager, page_no)

    def read_raw(self, page_no: int) -> bytearray:
        """Read ``page_no`` from disk, bypassing the buffer pool.

        Always performs (and verifies, under v2) a physical read — the
        scrub path: ``fsck`` must look at what is *on disk*, not at a
        warm frame, and must not pollute the pool while doing so.
        """
        return self._pager.read_page(page_no)

    def read_run(self, start: int, count: int) -> bytes:
        """Read a contiguous page run, bypassing the buffer pool.

        One sequential physical transfer (see
        :meth:`repro.storage.pager.Pager.read_pages`) accounted as
        ``count`` pages read, with the checksum trailers stripped so
        the result is the concatenated page payloads.  The cluster
        fast path reads whole cluster runs this way: decoded clusters
        live in the cluster cache, so routing the bytes through the
        page-granular pool would only evict pages other access paths
        still need.  Callers must only read runs that are clean on
        disk (the builders flush before serving).

        Each page still counts as one *logical* read — the request
        happened, it just can never be a buffer hit — so the global
        ``logical >= physical`` invariant and per-probe hit rates stay
        truthful for mixed workloads.
        """
        self._pager.stats.record_logical_read(self._pager.name, pages=count)
        raw = self._pager.read_pages(start, count)
        page_size = self._pager.page_size
        payload = self._pager.payload_size
        if payload == page_size:
            return raw
        return b"".join(
            raw[i * page_size:i * page_size + payload]
            for i in range(count)
        )

    def allocate(self) -> tuple[int, bytearray]:
        """Allocate a new page; returns ``(page_no, buffer)``.

        The returned buffer is resident and already marked dirty.
        """
        page_no = self._pager.allocate()
        data = bytearray(self._pager.page_size)
        self._buffer.put_new(self._pager, page_no, data)
        return page_no, data

    def write_page_image(self, page_no: int, data: bytes | bytearray) -> None:
        """Write a full page image straight through the pager.

        The recovery/repair path: never read-modify-write (the target
        page may be torn or corrupt), and drop any cached frame so a
        stale buffer cannot overwrite the restored image later.
        """
        self._buffer.drop(self._pager, page_no)
        self._pager.write_page(page_no, data)

    def mark_dirty(self, page_no: int) -> None:
        """Flag a fetched page as modified."""
        self._buffer.mark_dirty(self._pager, page_no)


class Database:
    """A directory-backed collection of segments.

    Args:
        path: directory for the segment files (created if missing).
        pool_pages: buffer pool capacity in pages.
        page_size: page size for all segments.
        overwrite: if true, delete any existing directory contents.
        io_latency: simulated per-physical-read device latency in
            seconds (see :attr:`repro.storage.pager.Pager.io_latency`);
            0 disables it.
        fault_injector: a :class:`~repro.storage.faults.FaultInjector`
            installed on every segment's physical-read path (see
            :meth:`set_fault_injector`); ``None`` disables injection.
        recover: replay/discard a leftover write-ahead log on open
            (the default).  ``fsck`` opens with ``False`` to diagnose
            the directory exactly as the crash left it.
    """

    def __init__(
        self,
        path: str | Path,
        pool_pages: int = DEFAULT_POOL_PAGES,
        page_size: int = DEFAULT_PAGE_SIZE,
        overwrite: bool = False,
        io_latency: float = 0.0,
        fault_injector: "FaultInjector | None" = None,
        recover: bool = True,
    ) -> None:
        self.path = Path(path)
        if overwrite and self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.page_size = page_size
        self._check_page_format()
        self.stats = DiskStats()
        self.buffer = BufferPool(self.stats, pool_pages)
        self._io_latency = io_latency
        self._fault_injector = fault_injector
        self._pagers: dict[str, Pager] = {}
        self._closed = False
        self._wal = None
        if recover:
            self._recover_if_needed()

    def _check_page_format(self) -> None:
        """Write the format flag of a new database; refuse a directory
        written under any other page format or page size."""
        meta_path = self.path / STORAGE_META_FILENAME
        if not meta_path.exists():
            if any(self.path.glob("*.seg")):
                raise StorageError(
                    "database has segments but no storage metadata "
                    "(a retired unchecksummed layout); rebuild it",
                    path=str(self.path),
                )
            meta = {"page_format": PAGE_FORMAT_V2, "page_size": self.page_size}
            meta_path.write_text(
                json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8"
            )
            return
        meta = self._read_meta()
        try:
            on_disk = int(meta["page_format"])
            meta_page_size = int(meta.get("page_size", self.page_size))
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageError(
                f"unreadable storage metadata: {exc}", path=str(meta_path)
            ) from exc
        if on_disk != PAGE_FORMAT_V2:
            raise StorageError(
                f"database is page format v{on_disk}; only "
                f"v{PAGE_FORMAT_V2} is supported — rebuild it",
                path=str(self.path),
            )
        if meta_page_size != self.page_size:
            raise StorageError(
                f"database was built with page_size "
                f"{meta_page_size}, opened with {self.page_size}",
                path=str(self.path),
            )

    def _recover_if_needed(self) -> None:
        """Replay or discard a leftover write-ahead log on open."""
        from repro.storage.wal import WriteAheadLog

        if not WriteAheadLog.needs_recovery(self.path):
            return
        wal = WriteAheadLog(self.path, self.page_size)
        outcome = wal.recover(
            self.segment, on_patch_commit=self._apply_patch_flip
        )
        if outcome == "replayed":
            self.buffer.flush_dirty()
            for pager in self._pagers.values():
                pager.sync()

    def _apply_patch_flip(self, header: dict) -> None:
        """Re-apply a committed patch's epoch flip during recovery.

        Idempotent: the crash may have landed after the flip but
        before the log unlink, in which case the meta already points
        at ``to_epoch`` and this is a no-op rewrite.
        """
        self.set_store_epoch(str(header["prefix"]), int(header["to_epoch"]))

    # -- segments -----------------------------------------------------------

    def segment(self, name: str) -> Segment:
        """Open (creating if needed) the segment called ``name``."""
        self._check_open()
        pager = self._pagers.get(name)
        if pager is None:
            pager = Pager(
                self.path / f"{name}.seg",
                self.stats,
                name=name,
                page_size=self.page_size,
            )
            pager.wal = self._wal  # Join any active atomic scope.
            pager.io_latency = self._io_latency
            pager.fault_injector = self._fault_injector
            self._pagers[name] = pager
        return Segment(pager, self.buffer)

    @property
    def payload_size(self) -> int:
        """Usable bytes per page (``page_size`` minus the crc trailer)."""
        return self.page_size - CHECKSUM_SIZE

    @property
    def crc_failures(self) -> int:
        """Checksum mismatches across every open segment (what a
        serving engine's registry reads as ``storage.crc_failures``)."""
        return sum(p.crc_failures for p in list(self._pagers.values()))

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Install (or with ``None``, remove) a fault injector on every
        current and future segment's physical-read path.

        Injection happens in :meth:`Pager.read_page`, *below* the
        buffer pool: warm-cache fetches are unaffected, which is the
        realistic failure surface (cached pages cannot fail).  To also
        fault warm reads, set ``database.buffer.fault_injector``
        directly.
        """
        self._fault_injector = injector
        for pager in self._pagers.values():
            pager.fault_injector = injector

    def has_segment(self, name: str) -> bool:
        """True if the segment file exists on disk."""
        return name in self._pagers or (self.path / f"{name}.seg").exists()

    def remove_segment(self, name: str) -> None:
        """Delete a segment file and forget all its cached state.

        Used to clear the stale staging of an aborted patch before
        re-staging the same target epoch: the pager is closed, every
        buffered frame dropped *without* write-back (a dirty frame
        would resurrect the file), and the file unlinked.  A no-op for
        a segment that does not exist.
        """
        self._check_open()
        pager = self._pagers.pop(name, None)
        if pager is not None:
            pager.close()
        self.buffer.drop_segment(name)
        path = self.path / f"{name}.seg"
        if path.exists():
            path.unlink()

    def segment_names(self) -> list[str]:
        """All segment files present in the database directory."""
        return sorted(p.stem for p in self.path.glob("*.seg"))

    def segment_pages(self, name: str) -> int:
        """Allocated page count of segment ``name``."""
        return self.segment(name)._pager.n_pages

    # -- test methodology helpers ---------------------------------------------

    def flush(self) -> None:
        """Write back and drop every buffered page (cold cache).

        Matches the paper's flush-before-each-test methodology.
        """
        self.buffer.flush()

    def begin_measured_query(self) -> None:
        """Flush the buffer and zero counters — call before each query."""
        self.flush()
        self.stats.reset()

    @property
    def disk_accesses(self) -> int:
        """Physical reads since the last reset (the paper's metric)."""
        return self.stats.physical_reads

    # -- store epochs --------------------------------------------------------

    def _read_meta(self) -> dict:
        meta_path = self.path / STORAGE_META_FILENAME
        try:
            return dict(json.loads(meta_path.read_text(encoding="utf-8")))
        except (OSError, ValueError, TypeError) as exc:
            raise StorageError(
                f"unreadable storage metadata: {exc}", path=str(meta_path)
            ) from exc

    def _write_meta(self, meta: dict) -> None:
        """Atomically replace ``storage_meta.json`` (tmp + rename).

        The epoch flip is the commit point of a patch transaction, so
        the rewrite must never leave a torn file: the new contents are
        fsynced under a temporary name, then renamed over the old file
        in one atomic step.
        """
        meta_path = self.path / STORAGE_META_FILENAME
        tmp_path = meta_path.with_suffix(".json.tmp")
        blob = json.dumps(meta, sort_keys=True) + "\n"
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, blob.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, meta_path)

    def store_epoch(self, prefix: str) -> int:
        """The committed epoch of store ``prefix`` (0 for never-patched)."""
        epochs = self._read_meta().get("epochs", {})
        if not isinstance(epochs, dict):
            raise StorageError(
                "storage metadata 'epochs' is not a mapping",
                path=str(self.path),
            )
        return int(epochs.get(prefix, 0))

    def set_store_epoch(self, prefix: str, epoch: int) -> None:
        """Commit the store-wide epoch flip for ``prefix``.

        This is the *only* mutation a reader can observe from a patch
        transaction: everything staged before it lives in shadow
        segments no epoch-pinned reader resolves, and the rewrite is
        atomic (see :meth:`_write_meta`), so a crash at any instant
        leaves the directory on exactly the pre- or post-patch epoch.
        """
        if epoch < 0:
            raise StorageError(f"epoch must be >= 0, got {epoch}")
        meta = self._read_meta()
        epochs = dict(meta.get("epochs", {}))
        epochs[prefix] = epoch
        meta["epochs"] = epochs
        self._write_meta(meta)

    # -- atomic multi-segment mutations -------------------------------------------

    @contextmanager
    def patch(
        self,
        header: dict,
        kill_hook: "Callable[[str], None] | None" = None,
    ) -> Iterator[None]:
        """Crash-safe scope for one live-patch transaction.

        Like :meth:`atomic`, every page write-back inside the scope is
        logged before it hits the segments — but the log is headed by
        a typed patch record (see :mod:`repro.storage.wal`) and sealed
        by a patch-commit marker, and on normal exit the scope also
        applies the store-wide **epoch flip** the header describes.
        The protocol, in order:

        1. ``begin_patch(header)`` — log header, attach to pagers;
        2. caller stages shadow segments for ``header["to_epoch"]``;
        3. flush dirty pages (each image logged first);
        4. patch-commit marker + fsync — the transaction is durable;
        5. fsync the staged segments;
        6. ``set_store_epoch`` — the flip readers observe;
        7. remove the log.

        A crash before 4 discards the log on the next open (staged
        segments become fsck-quarantinable orphans); a crash after 4
        replays the log *and re-applies the flip* (recovery calls
        :meth:`_apply_patch_flip`), so every kill point lands on the
        pre- or post-patch snapshot, never a hybrid.  ``kill_hook`` is
        the crash matrix's injection point (record-boundary events
        plus ``flip:pre``/``flip:post``/``unlink:post``).
        """
        from repro.storage.wal import WriteAheadLog

        if self._wal is not None:
            raise StorageError("patch scopes do not nest with atomic scopes")
        wal = WriteAheadLog(self.path, self.page_size)
        wal.kill_hook = kill_hook
        wal.begin_patch(header)
        self._wal = wal
        for pager in self._pagers.values():
            pager.wal = wal
        try:
            yield
            self.buffer.flush_dirty()
            wal.commit_patch(header)
            for pager in self._pagers.values():
                pager.sync()
            if kill_hook is not None:
                kill_hook("flip:pre")
            self.set_store_epoch(
                str(header["prefix"]), int(header["to_epoch"])
            )
            if kill_hook is not None:
                kill_hook("flip:post")
            wal.close(discard=True)
            if kill_hook is not None:
                kill_hook("unlink:post")
        except BaseException:
            # Leave the log behind; the next open discards it if the
            # commit marker never made it, or replays + re-flips if it
            # did.  Close the fd without removing the file.
            wal.close(discard=False)
            raise
        finally:
            self._wal = None
            for pager in self._pagers.values():
                pager.wal = None

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """Crash-safe scope for multi-segment mutations (builds).

        Page write-backs inside the scope are logged to a write-ahead
        log before hitting the segments; on normal exit all dirty
        pages are flushed, the segments fsynced, and the log removed.
        If the process dies inside the scope, the next
        :class:`Database` open discards the torn log; if it dies
        after the commit record but before the log is removed, the
        open replays it.  Nesting is not supported.
        """
        from repro.storage.wal import WriteAheadLog

        if self._wal is not None:
            raise StorageError("atomic scopes do not nest")
        wal = WriteAheadLog(self.path, self.page_size)
        wal.begin()
        self._wal = wal
        for pager in self._pagers.values():
            pager.wal = wal
        try:
            yield
            self.buffer.flush_dirty()
            wal.commit()
            for pager in self._pagers.values():
                pager.sync()
            wal.close(discard=True)
        except BaseException:
            # Leave the (uncommitted) log behind; the next open
            # discards it.  Close the fd without removing the file.
            wal.close(discard=False)
            raise
        finally:
            self._wal = None
            for pager in self._pagers.values():
                pager.wal = None

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Flush and close every segment (idempotent)."""
        if self._closed:
            return
        self.buffer.flush()
        for pager in self._pagers.values():
            pager.close()
        self._pagers.clear()
        self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"database at {self.path} is closed")
