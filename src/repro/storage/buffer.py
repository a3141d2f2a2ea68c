"""LRU buffer pool shared by every segment of a database.

The pool caches page buffers keyed by ``(segment name, page number)``.
A request that misses triggers a physical read through the segment's
pager; a hit costs only a logical read.  Dirty pages are written back
on eviction and on :meth:`BufferPool.flush`.

The paper's methodology — "the database and system buffer is flushed
before each test" — maps to calling :meth:`flush` before each measured
query, after which every first touch of a page is a disk access.

Concurrency: the read path is safe to call from many threads at once
(the query engine's worker pool shares one database).  A short global
latch protects the frame map, while physical reads — the slow part —
run outside it under per-page *striped* locks, so misses on different
pages overlap while two threads missing on the *same* page perform
only one physical read between them.  Writers (builds, deletes) are
not parallelised; run mutations single-threaded as before.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.errors import BufferPoolError
from repro.obs.lockwatch import watched_lock
from repro.storage.pager import Pager
from repro.storage.stats import DiskStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.faults import FaultInjector

__all__ = ["BufferPool", "DEFAULT_POOL_PAGES"]

#: Default pool capacity: 256 x 8 KiB = 2 MiB.
DEFAULT_POOL_PAGES = 256

#: Number of page-load lock stripes; misses on pages in different
#: stripes proceed in parallel.
_LOCK_STRIPES = 64


class _Frame:
    __slots__ = ("data", "dirty", "pager")

    def __init__(self, data: bytearray, pager: Pager) -> None:
        self.data = data
        self.dirty = False
        self.pager = pager


class BufferPool:
    """A shared LRU page cache with write-back semantics."""

    def __init__(
        self,
        stats: DiskStats,
        capacity: int = DEFAULT_POOL_PAGES,
    ) -> None:
        if capacity < 1:
            raise BufferPoolError(f"capacity must be >= 1, got {capacity}")
        self._stats = stats
        self._capacity = capacity
        self._frames: OrderedDict[tuple[str, int], _Frame] = OrderedDict()
        # Latch: protects the frame map itself (lookups, LRU order,
        # admission, eviction).  Held only for dictionary work, never
        # across a physical read.
        self._latch = watched_lock("BufferPool._latch")
        # Stripes: serialise *loading* of any one page so concurrent
        # misses on the same page do one disk read, not several.
        self._stripes = [
            watched_lock("BufferPool._stripes")
            for _ in range(_LOCK_STRIPES)
        ]
        #: Optional :class:`repro.storage.faults.FaultInjector`
        #: consulted on every :meth:`fetch` — *before* the cache
        #: lookup, so faults hit warm-cache reads too (the pager's own
        #: injector only sees misses).
        self.fault_injector: "FaultInjector | None" = None

    # -- configuration -----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of cached pages."""
        with self._latch:
            return self._capacity

    # -- page access ---------------------------------------------------------

    def fetch(self, pager: Pager, page_no: int) -> bytearray:
        """The page buffer for ``page_no`` of ``pager``'s segment.

        Returns the *cached* buffer: mutations are visible to later
        fetches, but callers must pair mutations with
        :meth:`mark_dirty` for them to survive eviction.
        """
        key = (pager.name, page_no)
        if self.fault_injector is not None:
            self.fault_injector.fire("buffer.fetch", f"{pager.name}:{page_no}")
        self._stats.record_logical_read(pager.name)
        with self._latch:
            frame = self._frames.get(key)
            if frame is not None:
                self._frames.move_to_end(key)
                return frame.data
        stripe = self._stripes[hash(key) % len(self._stripes)]
        with stripe:
            # Double-check: another thread may have loaded the page
            # while we waited for the stripe.
            with self._latch:
                frame = self._frames.get(key)
                if frame is not None:
                    self._frames.move_to_end(key)
                    return frame.data
            # reprolint: disable=R10 single-flight: the stripe holds peers off the read
            data = pager.read_page(page_no)  # Counts the physical read.
            with self._latch:
                # reprolint: disable=R10 serving fetches only ever evict clean pages
                self._admit_locked(key, _Frame(data, pager))
            return data

    def put_new(self, pager: Pager, page_no: int, data: bytearray) -> None:
        """Install a freshly allocated page without reading from disk.

        Used right after :meth:`Pager.allocate`, whose zero-fill write
        already hit the file; the in-memory copy is marked dirty so the
        real contents reach disk on eviction/flush.
        """
        key = (pager.name, page_no)
        frame = _Frame(data, pager)
        frame.dirty = True
        with self._latch:
            # reprolint: disable=R10 put_new runs in the single-threaded build only
            self._admit_locked(key, frame)

    def mark_dirty(self, pager: Pager, page_no: int) -> None:
        """Flag a cached page as modified."""
        key = (pager.name, page_no)
        with self._latch:
            frame = self._frames.get(key)
            if frame is None:
                raise BufferPoolError(
                    f"page {page_no} of {pager.name} is not resident"
                )
            frame.dirty = True

    def drop(self, pager: Pager, page_no: int) -> None:
        """Forget a cached page *without* writing it back.

        Recovery and repair write page images straight through the
        pager (:meth:`Pager.write_page`); any stale frame — possibly
        dirty, possibly holding pre-crash bytes — must not overwrite
        the restored image on a later flush.  A no-op when the page is
        not resident.
        """
        with self._latch:
            self._frames.pop((pager.name, page_no), None)

    def drop_segment(self, name: str) -> None:
        """Forget every cached page of one segment *without* write-back.

        Used when a segment file is removed outright (clearing the
        stale staging of an aborted patch): a dirty frame surviving the
        unlink would resurrect the file on the next flush.
        """
        with self._latch:
            doomed = [key for key in self._frames if key[0] == name]
            for key in doomed:
                self._frames.pop(key)

    # -- maintenance ------------------------------------------------------------

    def flush(self) -> None:
        """Write back every dirty page and empty the pool.

        This is the paper's 'flush the database buffer before each
        test': afterwards, all page touches are cold.
        """
        frame: _Frame
        with self._latch:
            for (name, page_no), frame in self._frames.items():
                if frame.dirty:
                    # reprolint: disable=R10 flush() is the paper's cold-cache reset
                    frame.pager.write_page(page_no, frame.data)
            self._frames.clear()

    def flush_dirty(self) -> None:
        """Write back dirty pages but keep the cache warm."""
        frame: _Frame
        with self._latch:
            for (name, page_no), frame in self._frames.items():
                if frame.dirty:
                    # reprolint: disable=R10 checkpoint runs between builds, not serving
                    frame.pager.write_page(page_no, frame.data)
                    frame.dirty = False

    def resident_pages(self) -> int:
        """Number of pages currently cached."""
        with self._latch:
            return len(self._frames)

    # -- internals (the ``_locked`` suffix is a contract, checked by
    # reprolint rule R1: callers hold ``self._latch``) ----------------------

    def _admit_locked(self, key: tuple[str, int], frame: _Frame) -> None:
        if key in self._frames:  # Lost a race on another stripe: keep LRU.
            self._frames.move_to_end(key)
            return
        while len(self._frames) >= self._capacity:
            self._evict_one_locked()
        self._frames[key] = frame

    def _evict_one_locked(self) -> None:
        frame: _Frame
        key, frame = self._frames.popitem(last=False)
        if frame.dirty:
            frame.pager.write_page(key[1], frame.data)
