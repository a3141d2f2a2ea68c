"""Concurrent query engine over a :class:`DirectMeshStore`.

One request is the unit of execution, and :meth:`QueryEngine.submit`
is the one way in: it runs each request through one pipeline
(:meth:`QueryEngine._execute_job`: select + fetch from the cluster
runs, filter, publish), held node-id-identical to the paper's
processors in :mod:`repro.core.query`.  A caller with many requests
submits each and gathers the futures.  DESIGN.md section 6 ("The
serving engine") describes the pipeline, retries, deadlines,
corruption quarantine and admission control, with a usage example.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Union

from repro.core.admission import DEGRADE, SHED, CostGovernor
from repro.core.cache import (
    DEFAULT_CLUSTER_CACHE_BYTES,
    PATCH_LOG_LIMIT,
    ClusterCache,
    SemanticCache,
)
from repro.core.clusters import intersecting_rows, unchanged_clusters
from repro.core.query import (
    DMQueryResult,
    filter_to_plane_columnar,
    filter_uniform_columnar,
    plane_box,
    plane_cube,
)
from repro.errors import (
    DeadlineExceededError,
    OverloadShedError,
    PageCorruptionError,
    QueryError,
    TransientIOError,
)
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Box3, Rect
from repro.obs.metrics import MetricsRegistry
from repro.storage.integrity import PageQuarantine
from repro.storage.record import (
    DMNodeColumns,
    concat_dm_columns,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.direct_mesh import DirectMeshStore

__all__ = [
    "QueryEngine",
    "UniformRequest",
    "SingleBaseRequest",
    "QueryMetrics",
    "QueryOutcome",
]

#: Base backoff before the first retry of a transient I/O error;
#: doubles per attempt and never sleeps past the deadline.
RETRY_BACKOFF_S = 0.002

#: Bound on the corrupt-page quarantine set (see
#: :attr:`QueryEngine.quarantine`); oldest entries fall off first.
QUARANTINE_CAP = 256


@dataclass(frozen=True)
class UniformRequest:
    """A viewpoint-independent query ``Q(M, roi, lod)``."""

    roi: Rect
    lod: float

    def query_box(self, e_cap: float | None = None) -> Box3:
        """The degenerate plane box the range query probes, clamped to
        ``e_cap``; the filter still uses the real :attr:`lod`, so
        ``lod > e_cap`` returns the base mesh (see
        :func:`~repro.core.query.clamp_lod`)."""
        return plane_box(self.roi, self.lod, e_cap)

    def filter(self, columns: DMNodeColumns) -> DMQueryResult:
        """The uniform-query predicate's answer from a fetched
        columnar page."""
        return filter_uniform_columnar(columns, self.roi, self.lod)


@dataclass(frozen=True)
class SingleBaseRequest:
    """A viewpoint-dependent single-base query (Algorithm 1)."""

    plane: QueryPlane

    def query_box(self, e_cap: float | None = None) -> Box3:
        """The query cube ``roi x [e_min, e_max]`` (clamped to
        ``e_cap`` like :meth:`UniformRequest.query_box`)."""
        return plane_cube(self.plane, e_cap)

    def filter(self, columns: DMNodeColumns) -> DMQueryResult:
        """The plane predicate's answer from a fetched columnar page."""
        return filter_to_plane_columnar(columns, self.plane)


EngineRequest = Union[UniformRequest, SingleBaseRequest]


@dataclass
class QueryMetrics:
    """Where one query's time and I/O went."""

    pages_read: int = 0
    logical_reads: int = 0
    cache_hit_rate: float = 0.0
    index_s: float = 0.0
    fetch_s: float = 0.0
    filter_s: float = 0.0
    total_s: float = 0.0
    cached: bool = False
    #: Candidate clusters this query selected, and the nodes those
    #: clusters decoded to *before* narrowing to the probe box —
    #: ``nodes_decoded / retrieved`` is the cluster overfetch ratio
    #: ``explain`` reports.
    clusters_touched: int = 0
    nodes_decoded: int = 0
    #: The store epoch this query was pinned to (see
    #: :meth:`QueryEngine.pinned_snapshot`).  Under live mutation, two
    #: outcomes with equal ``epoch`` saw the same terrain snapshot.
    epoch: int = 0


@dataclass
class QueryOutcome:
    """One request's result (or failure) plus its metrics.

    Exactly one of ``result`` / ``error`` is set.  ``degraded`` marks
    a uniform request answered at a coarser LOD under deadline,
    corruption, or overload pressure; ``shed`` marks an outcome the
    admission controller refused to execute at full fidelity (shed
    uniform requests still carry a well-formed base-mesh ``result``);
    ``attempts`` counts execution attempts including retries.
    """

    request: EngineRequest
    result: DMQueryResult | None
    metrics: QueryMetrics
    error: Exception | None = None
    attempts: int = 1
    degraded: bool = False
    shed: bool = False

    @property
    def ok(self) -> bool:
        """True when the request produced a result."""
        return self.error is None


def _resolved(outcome: QueryOutcome) -> "Future[QueryOutcome]":
    """An already-completed future (cache hits, shed answers)."""
    future: "Future[QueryOutcome]" = Future()
    future.set_result(outcome)
    return future


@dataclass(frozen=True)
class _StoreSnapshot:
    """An immutable ``(store, epoch)`` pair a request pins once.

    Live mutation (:mod:`repro.core.mutate`) swaps the engine's
    current snapshot at patch commit; every request captures the
    snapshot *once* at submission and reads store state only through
    it, so a request that started on epoch ``N`` finishes on epoch
    ``N`` — never a hybrid — even when ``N+1`` commits mid-flight.
    Reprolint rule R12 enforces the discipline: the engine's ``_snap``
    slot may only be touched by ``__init__``/``pinned_snapshot``/
    ``install_store`` (``_patch_log``, the other slot a commit swaps,
    by ``__init__``/``install_store``/``patched_since``).
    """

    store: "DirectMeshStore"
    epoch: int = 0


@dataclass(frozen=True)
class _Job:
    """One request's range query: the engine's unit of execution."""

    request: EngineRequest
    #: The box the range query probes (the query box, or with a cache
    #: attached its prefetch-inflated cube; see ``submit``).
    box: Box3
    #: The snapshot the job executes against (pinned at submission;
    #: execution never re-reads the live slot).
    snap: _StoreSnapshot


_PatchLog = tuple[int, tuple[tuple[int, Rect | None], ...]]


class _Fetched(NamedTuple):
    """What the fetch hands the pipeline."""

    #: The rows whose capped segment intersects the probe box.
    columns: DMNodeColumns
    #: ``perf_counter()`` when selection ended and fetching began.
    index_done: float
    #: Selection work: candidate clusters selected.
    clusters_touched: int
    #: Rows decoded before narrowing to the probe box.
    nodes_decoded: int


class QueryEngine:
    """Concurrent, fault-isolated query execution, one submitted
    request at a time.

    Args:
        store: the Direct Mesh store to serve from.
        workers: thread-pool width; 1 reproduces sequential execution
            (the throughput baseline).
        registry: metrics sink; a private one is created if omitted.
        retries: how many times a request hit by a
            :class:`~repro.errors.TransientIOError` is re-attempted
            (0 disables retry; other exceptions never retry).
        deadline_s: per-request deadline in seconds, measured from
            submission; ``None`` disables deadlines.  A uniform request that
            misses it is answered at the coarsest LOD, any other fails
            with :class:`~repro.errors.DeadlineExceededError`.
        cache: a :class:`~repro.core.cache.SemanticCache`; every
            request is checked against it *before* anything is queued
            (a hit skips selection and record fetch entirely), and
            every executed range query feeds its cube back in.  A
            cache may be shared by several engines over the same
            store; it must be invalidated when the store is rebuilt.
        governor: a :class:`~repro.core.admission.CostGovernor` giving
            :meth:`submit` cost-based admission control.  ``None``
            admits everything (the ``--no-admission`` baseline).
        cluster_cache_bytes: budget of the engine's decoded-cluster
            LRU (:class:`~repro.core.cache.ClusterCache`).
        epoch: the store's committed epoch (``database.store_epoch``);
            0 for never-patched stores.  Requests pin ``(store,
            epoch)`` once at submission; live patches swap the pair
            via :meth:`install_store`.
    """

    def __init__(
        self,
        store: "DirectMeshStore",
        workers: int = 4,
        registry: MetricsRegistry | None = None,
        retries: int = 2,
        deadline_s: float | None = None,
        cache: SemanticCache | None = None,
        governor: CostGovernor | None = None,
        cluster_cache_bytes: int = DEFAULT_CLUSTER_CACHE_BYTES,
        epoch: int = 0,
    ) -> None:
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise QueryError(f"retries must be >= 0, got {retries}")
        if deadline_s is not None and deadline_s <= 0:
            raise QueryError(
                f"deadline_s must be positive or None, got {deadline_s}"
            )
        self._snap = _StoreSnapshot(store, epoch)
        # The one patch history, ``(floor, ((epoch, region), ...))``
        # oldest first: an immutable pair install_store replaces whole
        # (see patched_since).  Commits before ``epoch`` are unknown.
        self._patch_log: _PatchLog = (epoch, ())
        self._retries = retries
        self._deadline_s = deadline_s
        self._cache = cache
        self._governor = governor
        self._cluster_cache = ClusterCache(cluster_cache_bytes)
        # Base-mesh snapshot for the shed path (see _base_snapshot),
        # tagged with the epoch it was fetched at.
        self._base_columns: tuple[int, DMNodeColumns] | None = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._register_sources()
        #: Bounded set of ``(segment, page)`` ids that failed checksum
        #: verification while serving.  Thread-safe; ``clear()`` it
        #: after an offline ``fsck --repair``.
        self.quarantine = PageQuarantine(QUARANTINE_CAP)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-engine"
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def store(self) -> "DirectMeshStore":
        """The store this engine currently serves from."""
        return self.pinned_snapshot().store

    @property
    def epoch(self) -> int:
        """The committed epoch of the current snapshot."""
        return self.pinned_snapshot().epoch

    def pinned_snapshot(self) -> _StoreSnapshot:
        """Capture the current ``(store, epoch)`` snapshot.

        The *only* read path to the engine's live store slot
        (reprolint R12).  Callers capture once per request and thread
        the frozen snapshot through execution; the reference swap in
        :meth:`install_store` is atomic, so no lock is needed here.
        """
        return self._snap

    def install_store(
        self,
        store: "DirectMeshStore",
        epoch: int,
        region: Rect | None = None,
    ) -> None:
        """Swap the serving snapshot after a committed live patch.

        In-flight requests keep the snapshot they pinned (old-epoch
        segments stay on disk); new submissions see ``(store,
        epoch)``.  ``region`` is the patched area (``None``: the whole
        terrain).  The commit enters the engine's patch history (the
        one copy; sessions ask :meth:`patched_since`), the semantic
        cache drops the cubes over ``region`` and arms its insert
        guard (:meth:`~repro.core.cache.SemanticCache.begin_epoch`),
        and the cluster cache, keyed on the epoch, keeps only the
        clusters the commit left byte-identical, re-keyed to ``epoch``
        (:meth:`~repro.core.cache.ClusterCache.carry`).  One writer at
        a time (``MutableStore``'s write lock).
        """
        # Log and invalidate BEFORE publishing the new snapshot: a
        # session diffing an answer from the new epoch must find the
        # patch logged, and a request pinning it must not find a stale
        # overlapping cube resident (lookup serves entries with epoch
        # <= the pinned one).  The reverse race — an old-epoch request
        # inserting a stale entry after the drop — is closed by
        # begin_epoch's insert guard.
        floor, entries = self._patch_log
        entries += ((epoch, region),)
        if len(entries) > PATCH_LOG_LIMIT:
            floor, entries = max(floor, entries[0][0]), entries[1:]
        self._patch_log = (floor, entries)
        if self._cache is not None:
            self._cache.begin_epoch(epoch, region)
            self.registry.counter("cache.region_invalidations").inc()
        old = self._snap
        self._cluster_cache.carry({
            (old.epoch, old_id): (epoch, new_id)
            for old_id, new_id in unchanged_clusters(
                old.store.clusters.directory, store.clusters.directory
            ).items()
        })
        self.registry.counter("cluster.region_invalidations").inc()
        self._snap = _StoreSnapshot(store, epoch)

    def patched_since(self, epoch: int, roi: Rect | None) -> bool:
        """Whether a patch overlapping ``roi`` has committed after
        ``epoch`` — what a delta session asks before splicing onto
        records sent at ``epoch``.  Over-approximates, never under:
        ``roi=None`` (no known footprint) overlaps every patch, and an
        ``epoch`` below the floor — older than the last
        :data:`PATCH_LOG_LIMIT` commits, or than the engine — counts
        as patched: the regions it would need are gone."""
        floor, entries = self._patch_log
        return epoch < floor or any(
            to_epoch > epoch
            and (roi is None or region is None or roi.intersects(region))
            for to_epoch, region in entries
        )

    @property
    def cache(self) -> SemanticCache | None:
        """The attached semantic cache (None when caching is off)."""
        return self._cache

    @property
    def cluster_cache(self) -> ClusterCache:
        """The decoded-cluster LRU."""
        return self._cluster_cache

    @property
    def governor(self) -> CostGovernor | None:
        """The attached admission controller (None = admit all)."""
        return self._governor

    def _register_sources(self) -> None:
        """Register what other objects count for themselves: the
        registry reads it there when it is read, so nothing on the
        request path copies a number it does not own."""
        registry, cache, governor = self.registry, self._cache, self._governor

        def levels() -> dict[str, float]:
            stats = self._cluster_cache.stats()
            return {
                "cluster.bytes": stats.bytes,
                "cluster.entries": stats.entries,
                "cluster.evictions": stats.evictions,
                "engine.epoch": self.epoch,
            }

        def cache_counters() -> dict[str, float]:
            stats = cache.stats()
            return {
                "cache.hits": stats.hits,
                "cache.misses": stats.misses,
                "cache.subsume_hits": stats.subsume_hits,
                "cache.insertions": stats.insertions,
                "cache.evictions": stats.evictions,
            }

        registry.add_source(levels, gauges=True)
        registry.add_source(
            lambda: {"storage.crc_failures": self.store.database.crc_failures}
        )
        if governor is not None:
            registry.add_source(
                lambda: {"slo.inflight_cost": governor.inflight_cost},
                gauges=True,
            )
        if cache is not None:
            registry.add_source(cache_counters)
            registry.add_source(
                lambda: {"cache.bytes": cache.bytes, "cache.entries": len(cache)},
                gauges=True,
            )

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- submission (admission-controlled) ---------------------------------

    def submit(
        self, request: EngineRequest, tenant: str = "default"
    ) -> "Future[QueryOutcome]":
        """Submit one request asynchronously: the engine's one entry.

        ``submit`` returns immediately, so an open-loop arrival
        process can outrun capacity (a closed-loop caller self-limits
        by waiting on the future).  With a
        :class:`~repro.core.admission.CostGovernor` attached, the
        request's cost is estimated *in the caller's thread* before
        anything is queued (in predicted cluster-run pages,
        ``ClusterIndex.estimate_pages``): admitted requests execute
        at full fidelity, overload-degraded ones run the cheap
        base-mesh probe, and shed ones are answered inline from the base-mesh
        snapshot (or an :class:`~repro.errors.OverloadShedError`
        outcome when not degradable) without ever touching the
        executor queue.

        The per-request deadline starts at submission.  A cache hit
        bypasses admission entirely: it costs one vectorized filter
        and no I/O, so there is nothing to govern.  Submitting to a
        closed engine raises :class:`~repro.errors.QueryError`.
        """
        registry = self.registry
        registry.counter("engine.requests").inc()
        deadline = (
            None
            if self._deadline_s is None
            else time.monotonic() + self._deadline_s
        )
        snap = self.pinned_snapshot()
        e_cap = snap.store.e_cap
        box = request.query_box(e_cap)
        cache = self._cache
        if cache is not None:
            columns = cache.lookup(box, epoch=snap.epoch)
            if columns is not None:  # A cached cube contains the box.
                return _resolved(
                    self._inline_outcome(request, columns, snap.epoch)
                )
        governor = self._governor
        reserved, degraded = 0.0, False
        if governor is not None:
            cost = snap.store.clusters.index.estimate_pages(box)
            registry.histogram("slo.estimated_cost").observe(cost)
            degradable = isinstance(request, UniformRequest)
            decision = governor.decide(tenant, cost, degradable=degradable)
            if decision.throttled:
                registry.counter("slo.tenant_throttled").inc()
            if decision.action == SHED:
                registry.counter("engine.shed").inc()
                return _resolved(self._shed_outcome(request, snap))
            reserved = decision.reserved_cost
            degraded = decision.action == DEGRADE
            if degraded:
                registry.counter("engine.overload_degraded").inc()
            else:
                registry.counter("engine.admitted").inc()
        # With a cache attached the job probes the prefetch-inflated
        # cube: the request's filter restores exactness, and the
        # taller cube turns nearby LODs into future cache hits.
        probe = box if cache is None else cache.inflate(box, e_cap)
        job = _Job(request, probe, snap)
        return self._submit_task(job, deadline, reserved, degraded)

    def _submit_task(
        self,
        job: _Job,
        deadline: float | None,
        reserved: float,
        degraded: bool,
    ) -> "Future[QueryOutcome]":
        """Queue a job on the pool — the one kind of task the engine
        runs — releasing its reservation (and the queue-depth gauge)
        however execution ends, a refused enqueue included.

        ``degraded`` serves the base mesh because admission said so:
        the same mechanism as a deadline miss, triggered by predicted
        overload before any work was wasted.
        """
        queue_depth = self.registry.gauge("slo.queue_depth")
        queue_depth.add(1)

        def release() -> None:
            queue_depth.add(-1)
            if self._governor is not None and reserved > 0:
                self._governor.release(reserved)

        def task() -> QueryOutcome:
            try:
                if degraded:
                    error = OverloadShedError(
                        "admission control degraded the request and the "
                        "base-mesh probe failed"
                    )
                    return self._degrade_or_fail(job, error, 1)
                return self._execute_with_policy(job, deadline)
            except Exception as exc:  # Last-ditch isolation: a bug in
                # the policy itself must not poison a sibling or leave a
                # submitter holding a raising future.
                return self._error_outcome(job, exc, 1)
            finally:
                release()

        try:
            return self._pool.submit(task)
        except RuntimeError as exc:  # The pool refuses work after close().
            release()
            raise QueryError("engine is closed") from exc

    def _inline_outcome(
        self,
        request: EngineRequest,
        columns: DMNodeColumns,
        epoch: int,
        coarse: UniformRequest | None = None,
    ) -> QueryOutcome:
        """Answer from resident columns in the caller's thread: one
        vectorized filter — no executor slot, no selection, no disk.

        A cache hit filters a cached cube with the request itself; a
        shed answer filters the base-mesh snapshot with the ``coarse``
        stand-in and is flagged ``degraded`` and ``shed``.
        """
        started = time.perf_counter()
        served = request if coarse is None else coarse
        result = served.filter(columns)
        filter_s = time.perf_counter() - started
        metrics = QueryMetrics(
            filter_s=filter_s, total_s=filter_s, cached=True, epoch=epoch
        )
        self.registry.histogram("engine.filter_s").observe(filter_s)
        shed = coarse is not None
        return QueryOutcome(request, result, metrics, degraded=shed, shed=shed)

    def _shed_outcome(
        self, request: EngineRequest, snap: _StoreSnapshot
    ) -> QueryOutcome:
        """Answer a shed request from the base-mesh snapshot, inline.

        Non-degradable requests (and an unbuildable snapshot) get an
        :class:`~repro.errors.OverloadShedError` outcome instead.
        """
        if isinstance(request, UniformRequest):
            columns = self._base_snapshot(snap)
            if columns is not None:
                self.registry.counter("engine.degraded").inc()
                coarse = UniformRequest(request.roi, snap.store.max_lod)
                return self._inline_outcome(
                    request, columns, snap.epoch, coarse
                )
        self.registry.counter("engine.errors").inc()
        error = OverloadShedError(
            "admission control shed the request and no degraded "
            "answer was possible"
        )
        return QueryOutcome(
            request, None, QueryMetrics(epoch=snap.epoch),
            error=error, shed=True,
        )

    def _base_snapshot(self, snap: _StoreSnapshot) -> DMNodeColumns | None:
        """The base mesh as one cached columnar page set.

        Fetched once (through the engine's one fetch; submit() races
        from many client threads) and shared read-only afterwards —
        root records are immutable for the life of a store *epoch*, so
        the cached set is tagged with the epoch it was fetched at and
        refetched after a patch swaps the snapshot.  The immutable
        ``(epoch, columns)`` pair is published by one assignment, like
        ``_snap`` and ``_patch_log``, with no lock: racing threads may
        fetch twice, and since readers check the epoch tag, an older
        epoch's late publish costs the next shed one refetch and never
        serves a wrong epoch.
        """
        cached = self._base_columns
        if cached is not None and cached[0] == snap.epoch:
            return cached[1]
        store = snap.store
        extent = store.clusters.index.extent
        if extent is None:
            return None
        probe = UniformRequest(extent.rect, store.max_lod)
        try:
            columns = self._fetch_clustered(
                probe.query_box(store.e_cap), snap
            ).columns
        except Exception:
            # Leave unset: the next shed retries the fetch.
            return None
        self._base_columns = (snap.epoch, columns)
        return columns

    # -- stages (run on worker threads) ------------------------------------

    def _execute_with_policy(
        self, job: _Job, deadline: float | None
    ) -> QueryOutcome:
        """Run a job under the retry/deadline policy; never raises."""
        registry = self.registry
        attempts = 0
        while True:
            attempts += 1
            if deadline is not None and time.monotonic() >= deadline:
                registry.counter("engine.deadline_misses").inc()
                missed = DeadlineExceededError(
                    f"deadline of {self._deadline_s}s expired before the "
                    "request ran"
                )
                return self._degrade_or_fail(job, missed, attempts)
            try:
                outcome = self._execute_job(job)
            except PageCorruptionError as exc:
                # Never retried: re-reading a rotten page returns the
                # same bytes.  Quarantine it and serve degraded.
                registry.counter("engine.corruptions").inc()
                segment = exc.context.get("segment")
                page = exc.context.get("page")
                if isinstance(segment, str) and isinstance(page, int):
                    self.quarantine.add(segment, page)
                return self._degrade_or_fail(job, exc, attempts)
            except TransientIOError as exc:
                if attempts > self._retries:
                    return self._error_outcome(job, exc, attempts)
                registry.counter("engine.retries").inc()
                delay = RETRY_BACKOFF_S * (2 ** (attempts - 1))
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - time.monotonic()))
                if delay > 0:
                    time.sleep(delay)
                continue
            except Exception as exc:  # Hard fault: isolate, don't retry.
                return self._error_outcome(job, exc, attempts)
            outcome.attempts = attempts
            return outcome

    def _execute_job(
        self, job: _Job, coarse: UniformRequest | None = None
    ) -> QueryOutcome:
        """The pipeline: select + fetch, the request's filter, then
        publish — semantic-cache insert,
        :class:`QueryMetrics`, counters and histograms.

        ``coarse`` is the base-mesh stand-in of a degraded answer: it
        filters in the request's stead (as in ``_inline_outcome``),
        and the outcome still names the request the caller submitted.
        """
        snap = job.snap
        registry = self.registry
        served = job.request if coarse is None else coarse
        started = time.perf_counter()
        with snap.store.database.stats.attribute() as probe:
            fetched = self._fetch_clustered(job.box, snap)
            records = fetched.columns
            fetch_done = time.perf_counter()
            result = served.filter(records)
        finished = time.perf_counter()
        if self._cache is not None:
            self._cache.insert(job.box, records, epoch=snap.epoch)

        metrics = QueryMetrics(
            pages_read=probe.physical_reads,
            logical_reads=probe.logical_reads,
            cache_hit_rate=probe.cache_hit_rate,
            index_s=fetched.index_done - started,
            fetch_s=fetch_done - fetched.index_done,
            filter_s=finished - fetch_done,
            total_s=finished - started,
            clusters_touched=fetched.clusters_touched,
            nodes_decoded=fetched.nodes_decoded,
            epoch=snap.epoch,
        )
        registry.counter("engine.range_queries").inc()
        registry.histogram("engine.index_s").observe(metrics.index_s)
        registry.histogram("engine.fetch_s").observe(metrics.fetch_s)
        registry.histogram("engine.filter_s").observe(metrics.filter_s)
        registry.histogram("engine.query_s").observe(metrics.total_s)
        registry.histogram("engine.pages_read").observe(probe.physical_reads)
        registry.histogram("engine.cache_hit_rate").observe(
            probe.cache_hit_rate
        )
        return QueryOutcome(job.request, result, metrics)

    def _fetch_clustered(self, box: Box3, snap: _StoreSnapshot) -> _Fetched:
        """The engine's one fetch: the rows of ``box`` from cluster runs.

        Selection runs against the cluster directory (one vectorized
        intersection over per-cluster extents); each candidate cluster
        is served from the decoded-cluster LRU or bulk-fetched with
        one sequential run read and one columnar decode.  Parity with
        the reference (:func:`repro.core.query.range_columns`): a node
        passing a filter has its capped segment intersecting the probe
        box, so its cluster's extent (a union of such segments) is
        always a candidate.

        The decoded batch is *narrowed* to the rows whose capped
        segment intersects the probe box (:func:`intersecting_rows`):
        exactly the row set an R*-tree probe retrieves, so
        ``retrieved`` counts and semantic-cache cubes are
        bit-identical to the reference's.  The pre-narrow count is
        kept as ``nodes_decoded`` — the overfetch ratio stays
        measurable — and ``pages_read`` counts the run pages actually
        transferred (the pager records a run as its page count, not
        one probe call).
        """
        store = snap.store
        clusters = store.clusters
        cluster_cache = self._cluster_cache
        cids = clusters.index.candidates(box)
        index_done = time.perf_counter()
        parts: list[DMNodeColumns] = []
        runs_read = 0
        hit_pages = 0
        for cid in cids:
            columns = cluster_cache.get(cid, snap.epoch)
            if columns is None:
                columns = clusters.decode(cid)
                cluster_cache.put(cid, columns, snap.epoch)
                runs_read += 1
            else:
                hit_pages += clusters.meta(cid).n_pages
            parts.append(columns)
        if hit_pages:
            # A decode hit stands in for requesting the run's pages
            # and finding every one resident: count them as logical
            # reads so per-probe hit rates count hits and misses in
            # the same unit (misses are counted by read_run).
            store.database.stats.record_logical_read(
                clusters.segment.name, pages=hit_pages
            )
        batch = concat_dm_columns(parts)
        nodes_decoded = len(batch)
        if nodes_decoded:
            batch = batch.select(intersecting_rows(batch, box, store.e_cap))

        registry = self.registry
        if runs_read:
            registry.counter("storage.cluster_reads").inc(runs_read)
            registry.counter("cluster.decode_misses").inc(runs_read)
        if runs_read < len(cids):
            registry.counter("cluster.decode_hits").inc(len(cids) - runs_read)
        registry.histogram("engine.clusters_touched").observe(len(cids))
        return _Fetched(batch, index_done, len(cids), nodes_decoded)

    # -- failure paths -----------------------------------------------------

    def _degrade_or_fail(
        self, job: _Job, error: Exception, attempts: int
    ) -> QueryOutcome:
        """Answer a uniform request at the coarsest LOD (flagged
        ``degraded``), or fail it in isolation with ``error`` — where
        a deadline miss, a corrupt page and an overload-degrade
        verdict all end up.

        Any ``e' > e`` is a valid, cheaper approximation (paper
        Section 4), and the base mesh is the cheapest of all — a
        handful of root records instead of a deep fetch.  No retry:
        this is the last, best effort under deadline pressure.
        """
        request = job.request
        if isinstance(request, UniformRequest):
            store = job.snap.store
            coarse = UniformRequest(request.roi, store.max_lod)
            coarse_job = _Job(request, coarse.query_box(store.e_cap), job.snap)
            try:
                outcome = self._execute_job(coarse_job, coarse)
            except Exception:  # The base mesh may be unreadable too.
                pass
            else:
                self.registry.counter("engine.degraded").inc()
                outcome.attempts = attempts
                outcome.degraded = True
                return outcome
        return self._error_outcome(job, error, attempts)

    def _error_outcome(
        self, job: _Job, error: Exception, attempts: int
    ) -> QueryOutcome:
        """The errored outcome of a job that failed."""
        self.registry.counter("engine.errors").inc()
        return QueryOutcome(
            job.request,
            None,
            QueryMetrics(epoch=job.snap.epoch),
            error=error,
            attempts=attempts,
        )
