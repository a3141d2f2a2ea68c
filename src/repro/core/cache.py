"""Interval-aware semantic result cache for Direct Mesh queries.

The paper's LOD-interval encoding makes a terrain approximation a pure
*set filter* over a 3D range query (Sections 4-5).  That gives cached
results unusually strong semantics: a cube of records fetched for
``roi x [e_lo, e_hi]`` contains **every** record any subsumed query
needs — any record whose vertical segment intersects a box contained
in the cube also intersects the cube — so re-running the (cheap,
vectorized) per-request filter over the cached cube reproduces the
exact answer of a fresh index probe, with zero index or disk I/O.

:class:`SemanticCache` is a byte-budgeted LRU of such cubes, keyed by
``(roi, e_lo, e_hi)`` (a :class:`~repro.geometry.primitives.Box3`):

* **exact hits** — the same query box again — are one dict lookup;
* **subsume hits** scan for any resident cube that contains the query
  box (uniform planes, single-base cubes and multi-base strips all
  qualify against the same cubes);
* **prefetch inflation** (:meth:`inflate`) probes a slightly taller
  cube than asked, so nearby LODs over the same ROI hit next time —
  the cube's extra records are filtered away per request, never seen
  by callers;
* **invalidation** (:meth:`invalidate`) empties the cache; call it
  whenever the underlying store is rebuilt — cached cubes describe a
  snapshot of the store, not the store itself.

Entries hold :class:`~repro.storage.record.DMNodeColumns` pages
(struct-of-arrays), so a hit flows straight into the vectorized
filters without touching per-record objects.  All operations are
thread-safe; the query engine's workers insert concurrently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import QueryError
from repro.geometry.primitives import Box3, Rect
from repro.obs.lockwatch import watched_lock
from repro.storage.record import DMNodeColumns

__all__ = [
    "SemanticCache",
    "CacheStats",
    "ClusterCache",
    "ClusterCacheStats",
    "DEFAULT_CLUSTER_CACHE_BYTES",
]

#: Fixed per-entry overhead charged against the byte budget (key,
#: OrderedDict node, entry object) so many tiny cubes cannot dodge
#: eviction.
ENTRY_OVERHEAD_BYTES = 512

#: Patch-log capacity of :class:`SemanticCache`.  The log exists to
#: reject inserts computed against a pre-patch snapshot (see
#: :meth:`SemanticCache.begin_epoch`); if more epochs than this are
#: in flight the cache clears itself and the log collapses to one
#: entry covering the whole terrain — correct, merely cold.
PATCH_LOG_LIMIT = 64


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the cache's lifetime counters."""

    hits: int
    misses: int
    subsume_hits: int
    insertions: int
    evictions: int
    invalidations: int
    bytes: int
    entries: int
    region_invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when idle)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class _Entry:
    __slots__ = ("box", "columns", "nbytes", "epoch")

    def __init__(
        self, box: Box3, columns: DMNodeColumns, epoch: int = 0
    ) -> None:
        self.box = box
        self.columns = columns
        self.nbytes = columns.nbytes + ENTRY_OVERHEAD_BYTES
        self.epoch = epoch


class SemanticCache:
    """Byte-budgeted LRU of query cubes with subsumption lookup.

    Args:
        max_bytes: resident-set budget; entries are evicted LRU-first
            when an insert would exceed it.  An entry larger than the
            whole budget is never admitted.
        prefetch_e: how far :meth:`inflate` grows a probe cube along
            the LOD axis in each direction (0 disables prefetch).
    """

    def __init__(self, max_bytes: int, prefetch_e: float = 0.0) -> None:
        if max_bytes <= 0:
            raise QueryError(f"max_bytes must be positive, got {max_bytes}")
        if prefetch_e < 0:
            raise QueryError(
                f"prefetch_e must be non-negative, got {prefetch_e}"
            )
        self.max_bytes = max_bytes
        self.prefetch_e = prefetch_e
        self._lock = watched_lock("SemanticCache._lock")
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._subsume_hits = 0
        self._insertions = 0
        self._evictions = 0
        self._invalidations = 0
        self._region_invalidations = 0
        # Committed-patch log: ``(to_epoch, region)`` pairs, newest
        # last.  Insert-time guard against entries computed from a
        # pre-patch snapshot (see ``begin_epoch``).  The cache's own,
        # not a view of ``QueryEngine._patch_log``: the guard has to
        # be atomic with ``_entries`` under ``_lock``, and one cache
        # may serve several engines.
        self._patch_log: list[tuple[int, Rect | None]] = []

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes(self) -> int:
        """Resident bytes (payload plus per-entry overhead)."""
        with self._lock:
            return self._bytes

    def stats(self) -> CacheStats:
        """Lifetime counters, read in one critical section."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                subsume_hits=self._subsume_hits,
                insertions=self._insertions,
                evictions=self._evictions,
                invalidations=self._invalidations,
                bytes=self._bytes,
                entries=len(self._entries),
                region_invalidations=self._region_invalidations,
            )

    # -- the cache protocol ------------------------------------------------

    def inflate(self, box: Box3, e_cap: float) -> Box3:
        """The probe cube to fetch for a miss on ``box``.

        Grows the LOD extent by ``prefetch_e`` both ways, clamped to
        ``[0, e_cap]`` (nothing is indexed outside that band, so a
        taller probe would only re-fetch air).  With ``prefetch_e=0``
        the box is returned unchanged.
        """
        if self.prefetch_e == 0.0:
            return box
        min_e = max(0.0, box.min_e - self.prefetch_e)
        max_e = max(min_e, min(e_cap, box.max_e + self.prefetch_e))
        if min_e == box.min_e and max_e == box.max_e:
            return box
        return Box3(box.min_x, box.min_y, min_e, box.max_x, box.max_y, max_e)

    def lookup(self, box: Box3, epoch: int = 0) -> DMNodeColumns | None:
        """A cached cube that answers ``box`` at ``epoch``, or ``None``.

        Exact-key match first (one dict probe), then a subsumption
        scan for any resident cube containing ``box``.  The serving
        entry is marked most-recently-used.

        **Epoch validity.**  An entry tagged epoch ``E`` serves every
        reader at epoch ``R >= E``: :meth:`begin_epoch` dropped any
        entry overlapping a patched region, and :meth:`insert` refuses
        entries a later patch already overlapped — so anything still
        resident describes terrain unchanged between ``E`` and ``R``.
        A reader pinned *behind* the entry (``R < E``) is refused: the
        entry may include post-patch records the reader's snapshot
        never held.
        """
        key = box.as_tuple()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.epoch > epoch:
                entry = None
            if entry is None:
                for candidate in reversed(self._entries.values()):
                    if (
                        candidate.epoch <= epoch
                        and candidate.box.contains_box(box)
                    ):
                        entry = candidate
                        self._subsume_hits += 1
                        break
            if entry is None:
                self._misses += 1
                return None
            self._hits += 1
            self._entries.move_to_end(entry.box.as_tuple())
            return entry.columns

    def insert(
        self, box: Box3, columns: DMNodeColumns, epoch: int = 0
    ) -> bool:
        """Admit the cube ``box`` with its fetched ``columns``.

        Entries subsumed by ``box`` are dropped (the new cube answers
        everything they could); an entry already subsuming ``box``
        makes the insert a no-op.  ``epoch`` is the pinned epoch the
        cube was fetched at; a cube overlapping a patch committed
        *after* that epoch is refused (it describes a superseded
        snapshot — see :meth:`begin_epoch`).  Returns True when
        admitted.
        """
        entry = _Entry(box, columns, epoch)
        if entry.nbytes > self.max_bytes:
            return False
        rect = box.rect
        with self._lock:
            for to_epoch, region in self._patch_log:
                if to_epoch > epoch and (
                    region is None or region.intersects(rect)
                ):
                    return False
            for candidate in self._entries.values():
                if (
                    candidate.epoch <= epoch
                    and candidate.box.contains_box(box)
                ):
                    return False
            doomed = [
                key
                for key, candidate in self._entries.items()
                if box.contains_box(candidate.box)
            ]
            for key in doomed:
                self._drop_locked(key)
            self._entries[box.as_tuple()] = entry
            self._bytes += entry.nbytes
            self._insertions += 1
            while self._bytes > self.max_bytes:
                oldest = next(iter(self._entries))
                self._drop_locked(oldest)
                self._evictions += 1
            return True

    def invalidate(self, region: Rect | None = None) -> None:
        """Drop cached cubes — all of them, or one spatial region.

        With ``region=None`` the cache empties (required after a full
        store rebuild).  With a region, only entries whose cube
        footprint intersects it are dropped: cubes elsewhere describe
        terrain the mutation never touched and keep serving (the
        surgical invalidation live patches rely on).
        """
        with self._lock:
            if region is None:
                self._entries.clear()
                self._bytes = 0
                self._invalidations += 1
                return
            doomed = [
                key
                for key, entry in self._entries.items()
                if entry.box.rect.intersects(region)
            ]
            for key in doomed:
                self._drop_locked(key)
            self._region_invalidations += 1

    def begin_epoch(self, to_epoch: int, region: Rect | None = None) -> None:
        """Tell the cache a patch just committed epoch ``to_epoch``.

        Drops exactly the resident cubes overlapping ``region`` and
        logs ``(to_epoch, region)`` so in-flight inserts computed
        against the pre-patch snapshot are refused when they land
        (without the log, a slow reader pinned to the old epoch could
        re-populate a patched region with stale records *after* the
        drop).  The log is bounded by :data:`PATCH_LOG_LIMIT`; on
        overflow the cache clears wholesale and the log collapses to
        ``(to_epoch, everywhere)``: the regions it forgets can no
        longer be told apart, so every insert older than the reset is
        refused — the expensive-but-safe degenerate case.
        """
        with self._lock:
            if len(self._patch_log) >= PATCH_LOG_LIMIT:
                self._entries.clear()
                self._bytes = 0
                self._invalidations += 1
                self._patch_log = [(to_epoch, None)]
                return
            self._patch_log.append((to_epoch, region))
            doomed = [
                key
                for key, entry in self._entries.items()
                if region is None or entry.box.rect.intersects(region)
            ]
            for key in doomed:
                self._drop_locked(key)
            self._region_invalidations += 1

    # -- internals ---------------------------------------------------------

    def _drop_locked(self, key: tuple[float, ...]) -> None:
        # The ``_locked`` suffix is a contract (checked by reprolint
        # rule R1): callers hold ``self._lock``.
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes


# -- cluster-granular cache --------------------------------------------------

#: Default byte budget of the engine's per-store cluster cache.
DEFAULT_CLUSTER_CACHE_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class ClusterCacheStats:
    """A consistent snapshot of a :class:`ClusterCache`'s counters."""

    hits: int
    misses: int
    insertions: int
    evictions: int
    bytes: int
    entries: int

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when idle)."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return 0.0
        return self.hits / lookups


class ClusterCache:
    """Byte-budgeted LRU of *decoded clusters*, keyed by
    ``(epoch, cluster id)``.

    The cluster fast path's twin of :class:`SemanticCache`, one level
    lower: instead of query cubes it holds whole decoded clusters
    (:class:`~repro.storage.record.DMNodeColumns`), so a hit skips
    both the run's physical read *and* the columnar decode.  Clusters
    are immutable for the life of a store *epoch* — but unlike node
    ids, **cluster ids are not stable across epochs** (the Hilbert
    chunking shifts globally when any tile's node count changes), so
    the epoch is part of the key: a reader pinned to epoch ``N`` only
    ever sees clusters decoded from epoch ``N``'s runs.  Any query at
    that epoch selecting the cluster reuses the same decoded page
    regardless of its LOD interval, a strictly stronger sharing regime
    than cube subsumption (two disjoint cubes touching the same
    cluster share nothing in the cube cache, everything here).

    The epoch in the key is the whole invalidation story: no reader of
    epoch ``N + 1`` can hit an entry of epoch ``N``, so a commit just
    empties the cache (:meth:`invalidate`) rather than working out
    which entries a patch region overlaps — that choice only ever
    decided how long dead entries sat in the budget.  A reader still
    pinned to the old epoch re-decodes what it needs.  All operations
    are thread-safe; engine workers hit and fill concurrently.
    """

    def __init__(self, max_bytes: int = DEFAULT_CLUSTER_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise QueryError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = watched_lock("ClusterCache._lock")
        self._entries: OrderedDict[tuple[int, int], DMNodeColumns] = (
            OrderedDict()
        )
        self._sizes: dict[tuple[int, int], int] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes(self) -> int:
        """Resident bytes (payload plus per-entry overhead)."""
        with self._lock:
            return self._bytes

    def stats(self) -> ClusterCacheStats:
        """Lifetime counters, read in one critical section."""
        with self._lock:
            return ClusterCacheStats(
                hits=self._hits,
                misses=self._misses,
                insertions=self._insertions,
                evictions=self._evictions,
                bytes=self._bytes,
                entries=len(self._entries),
            )

    def get(self, cluster_id: int, epoch: int = 0) -> DMNodeColumns | None:
        """The decoded cluster of one epoch, or ``None``; hits become
        MRU."""
        key = (epoch, cluster_id)
        with self._lock:
            columns = self._entries.get(key)
            if columns is None:
                self._misses += 1
                return None
            self._hits += 1
            self._entries.move_to_end(key)
            return columns

    def put(
        self, cluster_id: int, columns: DMNodeColumns, epoch: int = 0
    ) -> bool:
        """Admit a decoded cluster; returns True when admitted.

        An entry larger than the whole budget is refused; re-inserting
        a resident key refreshes recency without double-charging.
        """
        nbytes = columns.nbytes + ENTRY_OVERHEAD_BYTES
        if nbytes > self.max_bytes:
            return False
        key = (epoch, cluster_id)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True
            self._entries[key] = columns
            self._sizes[key] = nbytes
            self._bytes += nbytes
            self._insertions += 1
            while self._bytes > self.max_bytes:
                oldest, _ = self._entries.popitem(last=False)
                self._bytes -= self._sizes.pop(oldest)
                self._evictions += 1
            return True

    def invalidate(self) -> None:
        """Drop every decoded cluster (a commit, a rebuilt store, a
        cold-start measurement).  Always safe: the next :meth:`get`
        misses and its caller re-decodes."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._bytes = 0
