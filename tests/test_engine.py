"""The concurrent batched query engine.

The contract under test: whatever the worker count, batch order, or
entry point, the engine returns the *same approximations* as the
sequential query processors, byte-identical (same nodes, same
``retrieved`` count).
"""

import random

import pytest

from repro.core import DirectMeshStore, QueryEngine
from repro.core.admission import CostGovernor
from repro.core.cache import SemanticCache
from repro.core.engine import SingleBaseRequest, UniformRequest
from repro.core.query import range_columns
from repro.errors import QueryError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.mesh.selective import uniform_query_ref, viewdep_query_ref
from repro.obs.metrics import MetricsRegistry
from repro.storage import Database
from repro.terrain import dataset_by_name
from tests.conftest import assert_same_rows, oracle_mesh


@pytest.fixture(scope="module")
def dataset():
    return dataset_by_name("foothills", 1500, seed=11)


@pytest.fixture(scope="module")
def store(dataset, tmp_path_factory):
    db = Database(tmp_path_factory.mktemp("engine_db"), pool_pages=128)
    store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
    yield store
    db.close()


def _extent(store) -> Rect:
    return store.rtree.data_space.rect


def _random_uniform(store, rng, frac=0.3) -> UniformRequest:
    extent = _extent(store)
    side = frac * min(extent.width, extent.height)
    x0 = extent.min_x + rng.random() * (extent.width - side)
    y0 = extent.min_y + rng.random() * (extent.height - side)
    lod = rng.random() * store.max_lod
    return UniformRequest(Rect(x0, y0, x0 + side, y0 + side), lod)


def _assert_identical(outcome, reference):
    assert outcome.result.nodes == reference.nodes
    assert outcome.result.retrieved == reference.retrieved
    assert outcome.result.n_range_queries == reference.n_range_queries
    # The reconstructed meshes must serialise to the same bytes.
    vertices, triangles = outcome.result.vertex_mesh()
    want_vertices, want_triangles = reference.vertex_mesh()
    assert vertices == want_vertices
    assert_same_rows(triangles, want_triangles)


class TestBatchIdentity:
    def test_uniform_matches_sequential(self, store):
        rng = random.Random(1)
        requests = [_random_uniform(store, rng) for _ in range(8)]
        with QueryEngine(store, workers=4) as engine:
            outcomes = engine.run_batch(requests)
        assert len(outcomes) == len(requests)
        for request, outcome in zip(requests, outcomes):
            assert outcome.request is request
            reference = store.uniform_query(request.roi, request.lod)
            _assert_identical(outcome, reference)

    def test_single_base_matches_sequential(self, store):
        extent = _extent(store)
        max_lod = store.max_lod
        planes = [
            QueryPlane(extent, 0.1 * max_lod, 0.6 * max_lod),
            QueryPlane(extent, 0.3 * max_lod, 0.9 * max_lod, (1.0, 0.0)),
        ]
        with QueryEngine(store, workers=2) as engine:
            outcomes = engine.run_batch(
                [SingleBaseRequest(p) for p in planes]
            )
        for plane, outcome in zip(planes, outcomes):
            _assert_identical(outcome, store.single_base_query(plane))

    def test_property_random_rois_and_lods(self, store):
        """Property-style sweep: any random ROI/LOD batch at any
        worker count agrees with the sequential reference."""
        rng = random.Random(1234)
        for workers in (1, 3, 8):
            requests = [
                _random_uniform(store, rng, frac=0.1 + 0.5 * rng.random())
                for _ in range(12)
            ]
            with QueryEngine(store, workers=workers) as engine:
                outcomes = engine.run_batch(requests)
            for request, outcome in zip(requests, outcomes):
                reference = store.uniform_query(request.roi, request.lod)
                _assert_identical(outcome, reference)

    def test_empty_batch(self, store):
        with QueryEngine(store, workers=2) as engine:
            assert engine.run_batch([]) == []

    def test_run_single(self, store):
        request = _random_uniform(store, random.Random(5))
        with QueryEngine(store, workers=1) as engine:
            outcome = engine.run(request)
        _assert_identical(
            outcome, store.uniform_query(request.roi, request.lod)
        )


class TestFetchStrategyMatrix:
    """The seam between the one pipeline and its one fetch: every
    serving configuration answers with the paper's reference
    semantics (in-memory selective refinement) and hands the pipeline
    the rows the sequential processors retrieve."""

    @staticmethod
    def _requests(store):
        rng = random.Random(2004)
        extent = _extent(store)
        max_lod = store.max_lod
        requests = [_random_uniform(store, rng) for _ in range(6)]
        requests += [
            SingleBaseRequest(plane)
            for plane in (
                QueryPlane(extent, 0.1 * max_lod, 0.6 * max_lod),
                QueryPlane(
                    extent.scaled(0.5), 0.3 * max_lod, 0.9 * max_lod, (1.0, 0.0)
                ),
                QueryPlane(
                    extent.scaled(0.3), 0.05 * max_lod, 0.4 * max_lod, (0.6, 0.8)
                ),
            )
        ]
        requests.append(UniformRequest(extent, store.e_cap * 2 + 5.0))
        beside = Rect(
            extent.max_x + 10.0,
            extent.min_y,
            extent.max_x + 20.0,
            extent.max_y,
        )
        requests.append(UniformRequest(beside, 0.5 * max_lod))  # Empty ROI.
        requests.append(requests[0])  # A repeat: the cache-hit path.
        rng.shuffle(requests)
        return requests

    @pytest.mark.parametrize("entry", ["run_batch", "submit"])
    @pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
    def test_every_configuration_matches_reference(
        self, dataset, store, cached, entry
    ):
        requests = self._requests(store)
        cache = (
            SemanticCache(64 << 20, prefetch_e=0.05 * store.max_lod)
            if cached
            else None
        )
        with QueryEngine(store, workers=3, cache=cache) as engine:
            if entry == "run_batch":
                outcomes = engine.run_batch(requests)
            else:
                outcomes = [
                    engine.submit(r).result(timeout=30) for r in requests
                ]
        for request, outcome in zip(requests, outcomes):
            assert outcome.ok and not outcome.degraded
            if isinstance(request, UniformRequest):
                selected = uniform_query_ref(
                    dataset.pm, request.roi, request.lod
                )
                reference = store.uniform_query(request.roi, request.lod)
            else:
                selected = viewdep_query_ref(dataset.pm, request.plane)
                reference = store.single_base_query(request.plane)
            assert set(outcome.result.nodes) == selected, request
            assert outcome.result.nodes == reference.nodes
            # The mesh rebuilt from the answer's gathered arrays (or,
            # for a small answer, by the oracle itself) is the
            # oracle's over its records.
            want_edges, want_triangles = oracle_mesh(outcome.result.nodes)
            assert_same_rows(outcome.result.triangles(), want_triangles)
            assert_same_rows(outcome.result.edges(), want_edges)
            # An executed probe (of the query box, or of its
            # prefetch-inflated cube) retrieves exactly the rows the
            # paper's range query does; a cache hit reports its cube.
            if not outcome.metrics.cached:
                box = request.query_box(store.e_cap)
                if cache is not None:
                    box = cache.inflate(box, store.e_cap)
                assert outcome.result.retrieved == len(
                    range_columns(store, box)
                )
        above_cap = [
            o for r, o in zip(requests, outcomes)
            if isinstance(r, UniformRequest) and r.lod > store.e_cap
        ]
        assert above_cap and all(len(o.result) > 0 for o in above_cap)
        if cached and entry == "submit":
            assert any(o.metrics.cached for o in outcomes)


class TestRunBatchIsSubmit:
    """The seam this file's other suites stand on: a batch is the
    closed-loop gather over ``submit``'s per-request task, so
    ``run_batch(requests)`` answers exactly what ``submit`` answers
    request by request — duplicates, contained and disjoint ROIs
    included — and both agree with the paper's reference semantics."""

    @staticmethod
    def _requests(store):
        """The fetch-strategy mix (it holds a repeat and disjoint
        ROIs) plus an ROI contained in the repeated one."""
        requests = TestFetchStrategyMatrix._requests(store)
        repeated = next(r for r in requests if requests.count(r) == 2)
        requests.append(UniformRequest(repeated.roi.scaled(0.5), repeated.lod))
        return requests

    @pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
    def test_batch_equals_sequential_submits(self, dataset, store, cached):
        requests = self._requests(store)

        def engine_for(registry=None):
            cache = SemanticCache(64 << 20) if cached else None
            return QueryEngine(
                store, workers=3, cache=cache, registry=registry
            )

        registry = MetricsRegistry()
        with engine_for(registry) as engine:
            batch = engine.run_batch(requests)
            # The cache pre-check precedes execution: even the repeat
            # is a miss, and every miss is one range query.
            assert not any(o.metrics.cached for o in batch)
            assert registry.counters()["engine.range_queries"] == len(requests)
            again = engine.run_batch(requests)
            misses = sum(not o.metrics.cached for o in again)
            if cached:
                assert misses < len(requests)
            else:
                assert misses == len(requests)
            assert (
                registry.counters()["engine.range_queries"]
                == len(requests) + misses
            )
        with engine_for() as engine:
            sequential = [
                engine.submit(r).result(timeout=30) for r in requests
            ]
        assert cached == any(o.metrics.cached for o in sequential)

        for request, ours, theirs in zip(requests, batch, sequential):
            assert ours.request is request and theirs.request is request
            if isinstance(request, UniformRequest):
                reference = uniform_query_ref(
                    dataset.pm, request.roi, request.lod
                )
            else:
                reference = viewdep_query_ref(dataset.pm, request.plane)
            assert set(ours.result.nodes) == reference, request
            assert ours.result.nodes == theirs.result.nodes
            assert (ours.degraded, type(ours.error)) == (
                theirs.degraded, type(theirs.error)
            )
            # A cache hit reports the cached cube's size, not a probe's.
            if not theirs.metrics.cached:
                assert ours.result.retrieved == theirs.result.retrieved

    def test_range_queries_counted_on_both_entry_points(self, store):
        """``engine.range_queries`` means "range queries executed"
        whichever way the requests arrive."""
        rng = random.Random(17)
        requests = [_random_uniform(store, rng) for _ in range(5)]
        counts = {}
        for entry in ("submit", "run_batch"):
            registry = MetricsRegistry()
            with QueryEngine(store, workers=2, registry=registry) as engine:
                if entry == "submit":
                    for request in requests:
                        assert engine.submit(request).result(timeout=30).ok
                else:
                    engine.run_batch(requests)
            counts[entry] = registry.counters().get("engine.range_queries", 0)
        assert counts == {"submit": 5, "run_batch": 5}

    def test_batch_straddling_install_store_reports_one_epoch(self, store):
        """A batch pins its snapshot once: a patch committed while it
        runs does not split its outcomes across epochs."""
        rng = random.Random(19)
        requests = [_random_uniform(store, rng) for _ in range(6)]
        with QueryEngine(store, workers=1) as engine:

            class Installing(UniformRequest):
                def filter(self, columns):
                    engine.install_store(store, 1)
                    return super().filter(columns)

            first = Installing(requests[0].roi, requests[0].lod)
            outcomes = engine.run_batch([first] + requests[1:])
            assert engine.epoch == 1
            assert {o.metrics.epoch for o in outcomes} == {0}
            assert engine.run(requests[0]).metrics.epoch == 1
        assert all(o.ok for o in outcomes)


class TestECapRegression:
    """Engine probes above the index cap must return the base mesh
    (the sequential path is checked in test_query_properties)."""

    @pytest.mark.parametrize("lod_kind", ["max_lod", "e_cap", "above"])
    def test_engine_matches_sequential_at_cap_heights(
        self, store, lod_kind
    ):
        lod = {
            "max_lod": store.max_lod,
            "e_cap": store.e_cap,
            "above": store.e_cap * 2 + 5.0,
        }[lod_kind]
        roi = _extent(store)
        request = UniformRequest(roi, lod)
        with QueryEngine(store, workers=2) as engine:
            outcome = engine.run(request)
        reference = store.uniform_query(roi, lod)
        _assert_identical(outcome, reference)
        assert len(outcome.result.nodes) > 0

    def test_same_box_different_lod_share_one_probe(self, store):
        """Two uniform requests above e_cap clamp to one query box;
        each request's own filter keeps its answer exact."""
        roi = _extent(store)
        first = UniformRequest(roi, store.e_cap + 1.0)
        second = UniformRequest(roi, store.e_cap + 2.0)
        assert first.query_box(store.e_cap) == second.query_box(store.e_cap)
        with QueryEngine(store, workers=2) as engine:
            outcomes = engine.run_batch([first, second])
        for request, outcome in zip((first, second), outcomes):
            reference = store.uniform_query(request.roi, request.lod)
            _assert_identical(outcome, reference)
            assert len(outcome.result.nodes) > 0


class TestMetrics:
    def test_per_query_metrics_populated(self, store):
        request = UniformRequest(_extent(store), 0.5 * store.max_lod)
        store.database.flush()  # Cold: the fetch must read pages.
        with QueryEngine(store, workers=1) as engine:
            outcome = engine.run(request)
        metrics = outcome.metrics
        assert metrics.clusters_touched >= 1
        assert metrics.pages_read > 0
        assert metrics.logical_reads >= metrics.pages_read
        assert 0.0 <= metrics.cache_hit_rate <= 1.0
        assert metrics.total_s > 0
        assert metrics.index_s >= 0
        assert metrics.fetch_s >= 0

    def test_registry_histograms_cover_stages(self, store):
        rng = random.Random(7)
        registry = MetricsRegistry()
        with QueryEngine(store, workers=4, registry=registry) as engine:
            engine.run_batch([_random_uniform(store, rng) for _ in range(5)])
        histograms = registry.histograms()
        for name in (
            "engine.index_s",
            "engine.fetch_s",
            "engine.query_s",
            "engine.clusters_touched",
            "engine.pages_read",
            "engine.cache_hit_rate",
        ):
            assert histograms[name].count == 5, name

    def test_warm_cache_has_high_hit_rate(self, store):
        request = UniformRequest(_extent(store), 0.5 * store.max_lod)
        with QueryEngine(store, workers=1) as engine:
            engine.run(request)  # Warm the pool.
            warm = engine.run(request)
        assert warm.metrics.cache_hit_rate > 0.9


class TestConcurrencyStress:
    def test_large_mixed_batch_under_contention(self, store):
        """Many overlapping queries racing on one buffer pool still
        produce sequential-identical results."""
        rng = random.Random(99)
        extent = _extent(store)
        requests = []
        for _ in range(30):
            requests.append(_random_uniform(store, rng))
        requests.append(
            SingleBaseRequest(
                QueryPlane(extent, 0.2 * store.max_lod, 0.8 * store.max_lod)
            )
        )
        store.database.flush()
        with QueryEngine(store, workers=8) as engine:
            outcomes = engine.run_batch(requests)
        for request, outcome in zip(requests, outcomes):
            if isinstance(request, UniformRequest):
                reference = store.uniform_query(request.roi, request.lod)
            else:
                reference = store.single_base_query(request.plane)
            _assert_identical(outcome, reference)

    def test_global_counters_survive_concurrency(self, store):
        """Thread-safe DiskStats: logical reads recorded concurrently
        are neither lost nor double-counted (sum of per-query probes
        equals the global delta)."""
        rng = random.Random(13)
        requests = [_random_uniform(store, rng) for _ in range(16)]
        store.database.flush()
        before = store.database.stats.snapshot()
        with QueryEngine(store, workers=8) as engine:
            outcomes = engine.run_batch(requests)
        delta = store.database.stats.snapshot().delta(before)
        assert delta.logical_reads == sum(
            o.metrics.logical_reads for o in outcomes
        )
        assert delta.physical_reads == sum(
            o.metrics.pages_read for o in outcomes
        )


class TestValidation:
    def test_bad_worker_count(self, store):
        with pytest.raises(QueryError):
            QueryEngine(store, workers=0)


class TestEdgesRace:
    """Callers may read one result object from several threads, so
    the lazy ``edges()`` cache must be race-free: every caller sees
    one complete set."""

    def test_concurrent_edges_single_object(self, store):
        import threading

        request = _random_uniform(store, random.Random(21), frac=0.6)
        with QueryEngine(store, workers=1) as engine:
            result = engine.run(request).result
        assert len(result.nodes) > 0
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        seen = []
        lock = threading.Lock()

        def hammer():
            barrier.wait()  # Maximise the chance of a true race.
            edges = result.edges()
            with lock:
                seen.append(edges)

        for _ in range(20):  # Re-arm the race on fresh result objects.
            result._edges = None
            threads = [
                threading.Thread(target=hammer) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Every call on one result object returned the same, fully
        # built edges (racing readers may each have computed them).
        reference = oracle_mesh(result.nodes)[0]
        assert len(seen) == 20 * n_threads
        for edges in seen:
            assert_same_rows(edges, reference)
        assert result.edges() is result.edges()


class TestMetricSources:
    """The registry reads ``cache.*``, ``cluster.*``, the governor, the
    database and the session manager where they count for themselves."""

    def test_registry_shows_the_owners_numbers_mid_run(self, store):
        rng = random.Random(41)
        requests = [_random_uniform(store, rng) for _ in range(6)]
        cache = SemanticCache(6000)  # Small: the run evicts.
        with QueryEngine(store, workers=2, cache=cache) as engine:
            for request in requests:  # A miss, then a hit on its cube.
                assert engine.submit(request).result(timeout=30).ok
                assert engine.submit(request).result(timeout=30).ok
            # Nothing is called in between: no flush, no close.
            counters = engine.registry.counters()
            gauges = engine.registry.gauges()
            stats, cluster = cache.stats(), engine.cluster_cache.stats()
        assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0
        for name in (
            "hits", "misses", "subsume_hits", "insertions", "evictions"
        ):
            assert counters[f"cache.{name}"] == getattr(stats, name), name
        assert gauges["cache.bytes"] == stats.bytes
        assert gauges["cache.entries"] == stats.entries
        assert gauges["cluster.bytes"] == cluster.bytes > 0
        assert gauges["cluster.entries"] == cluster.entries
        assert gauges["cluster.evictions"] == cluster.evictions

    def test_engines_sharing_a_cache_each_report_its_totals(self, store):
        rng = random.Random(43)
        requests = [_random_uniform(store, rng) for _ in range(4)]
        cache = SemanticCache(1 << 22)
        with QueryEngine(store, workers=1, cache=cache) as first:
            with QueryEngine(store, workers=1, cache=cache) as second:
                first.run_batch(requests)
                second.run_batch(requests)  # Served from first's cubes.
                stats = cache.stats()
                assert stats.hits == len(requests) == stats.misses
                for engine in (first, second):
                    counters = engine.registry.counters()
                    assert counters["cache.hits"] == stats.hits
                    assert counters["cache.misses"] == stats.misses
                    assert counters["cache.insertions"] == stats.insertions

    def test_exposition_after_a_fixed_sequence(self, tmp_path):
        """The names one engine exposes, pinned (PR 23 moved seven
        counters and eight gauges from pushed copies to sources: every
        name kept its name and, below, its owner's value).  The list
        is the parent's after the same sequence plus
        ``storage.crc_failures``, which the parent listed only once a
        page had failed and only when the CLI had wired the registry
        into the pagers."""
        from tests.test_mutate import (
            aligned_region,
            mutable_engine,
            patch_heights,
        )

        registry = MetricsRegistry()
        db, ms, engine = mutable_engine(
            tmp_path,
            workers=1,  # One insert order: the counts below are exact.
            registry=registry,
            cache=SemanticCache(1 << 16),
            governor=CostGovernor(1e9),
        )
        lod = ms.store.max_lod
        views = [
            UniformRequest(Rect(0, 0, 3 + i, 3 + i), lod * (0.2 + 0.1 * i))
            for i in range(6)
        ]
        with db, engine:
            engine.run_batch(views)
            engine.run_batch(views[:3])
            for view in views[2:]:
                engine.submit(view).result()
            session = engine.sessions().open()
            session.update(views[0])
            ms.apply_patch(
                aligned_region(0, 0, 8, 8), patch_heights(0, 0, 8, 8, seed=2)
            )
            session.update(views[0])
            for view in views:
                engine.submit(view).result()
            counters, gauges = registry.counters(), registry.gauges()
            report = registry.report()
            stats, cluster = engine.cache.stats(), engine.cluster_cache.stats()
        assert sorted(counters) == [
            "cache.evictions", "cache.hits", "cache.insertions",
            "cache.misses", "cache.region_invalidations",
            "cache.subsume_hits", "cluster.decode_hits",
            "cluster.decode_misses", "cluster.region_invalidations",
            "engine.admitted", "engine.batches", "engine.range_queries",
            "engine.requests", "session.added", "session.bytes_wire",
            "session.patch_resyncs", "session.removed", "session.updates",
            "storage.cluster_reads", "storage.crc_failures",
        ]
        assert sorted(gauges) == [
            "cache.bytes", "cache.entries", "cluster.bytes",
            "cluster.entries", "cluster.evictions", "engine.epoch",
            "session.active", "slo.inflight_cost", "slo.queue_depth",
        ]
        listed = [line.split()[0] for line in report.splitlines()[2:]]
        assert set(counters) | set(gauges) <= set(listed)
        # The values the parent's pushed copies held after this sequence.
        assert (stats.hits, stats.misses, stats.insertions) == (9, 12, 12)
        assert counters["cache.hits"] == 9
        assert counters["cache.misses"] == 12
        assert counters["cache.insertions"] == 12
        assert counters["cache.region_invalidations"] == 1
        assert counters["cluster.region_invalidations"] == 1
        assert counters["storage.crc_failures"] == 0
        assert gauges["cache.bytes"] == stats.bytes
        assert gauges["cache.entries"] == stats.entries == 6
        assert gauges["cluster.bytes"] == cluster.bytes
        assert gauges["cluster.entries"] == cluster.entries == 2
        assert gauges["cluster.evictions"] == 0
        assert gauges["engine.epoch"] == 1
        assert gauges["session.active"] == 1
        assert gauges["slo.inflight_cost"] == 0
