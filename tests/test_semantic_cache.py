"""The interval-aware semantic result cache.

Two layers under test:

* :class:`~repro.core.cache.SemanticCache` in isolation — exact and
  subsume hits, byte-budgeted LRU eviction, prefetch inflation,
  invalidation, and the lifetime counters;
* the cache wired into :class:`~repro.core.engine.QueryEngine` — the
  acceptance criterion is that cached answers are *exact*: an engine
  with a cache returns the same node-id sets as one without, for
  repeated, overlapping and ``lod > e_cap`` workloads alike.
"""

import random
import sys

import pytest

from repro.core import DirectMeshStore, QueryEngine, SemanticCache
from repro.core.engine import SingleBaseRequest, UniformRequest
from repro.errors import QueryError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Box3, Rect
from repro.mesh.progressive import PMNode
from repro.obs.metrics import MetricsRegistry
from repro.storage import Database
from repro.storage.record import decode_dm_nodes_columnar, encode_dm_node
from repro.terrain import dataset_by_name


def make_columns(n: int, seed: int = 0):
    """A columnar page of ``n`` synthetic records (for unit tests)."""
    rng = random.Random(seed)
    payloads = []
    for i in range(n):
        node = PMNode(i, rng.random(), rng.random(), rng.random(), error=0.0)
        node.e = rng.random()
        node.e_high = node.e + rng.random()
        payloads.append(encode_dm_node(node, []))
    return decode_dm_nodes_columnar(payloads)


BOX = Box3(0.0, 0.0, 0.0, 10.0, 10.0, 2.0)
INNER = Box3(2.0, 2.0, 0.5, 8.0, 8.0, 1.5)
DISJOINT = Box3(20.0, 20.0, 0.0, 30.0, 30.0, 2.0)


class TestCacheUnit:
    def test_bad_args(self):
        with pytest.raises(QueryError):
            SemanticCache(0)
        with pytest.raises(QueryError):
            SemanticCache(-5)
        with pytest.raises(QueryError):
            SemanticCache(1 << 20, prefetch_e=-0.1)

    def test_exact_hit_and_miss(self):
        cache = SemanticCache(1 << 20)
        columns = make_columns(10)
        assert cache.lookup(BOX) is None
        assert cache.insert(BOX, columns)
        assert cache.lookup(BOX) is columns
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.subsume_hits == 0
        assert stats.insertions == 1
        assert stats.hit_rate == 0.5

    def test_subsume_hit(self):
        cache = SemanticCache(1 << 20)
        columns = make_columns(10)
        cache.insert(BOX, columns)
        assert cache.lookup(INNER) is columns
        assert cache.lookup(DISJOINT) is None
        stats = cache.stats()
        assert stats.subsume_hits == 1
        assert stats.hits == 1
        assert stats.misses == 1

    def test_byte_budget_lru_eviction(self):
        columns = make_columns(50)
        entry_bytes = 0
        probe = SemanticCache(1 << 30)
        probe.insert(BOX, columns)
        entry_bytes = probe.bytes  # One entry's full charge.
        cache = SemanticCache(entry_bytes * 2)  # Room for two entries.
        boxes = [
            Box3(100.0 * i, 0.0, 0.0, 100.0 * i + 1, 1.0, 1.0)
            for i in range(4)
        ]
        for box in boxes:
            cache.insert(box, columns)
        assert len(cache) == 2
        assert cache.bytes <= cache.max_bytes
        assert cache.stats().evictions == 2
        # Oldest two are gone, newest two resident.
        assert cache.lookup(boxes[0]) is None
        assert cache.lookup(boxes[1]) is None
        assert cache.lookup(boxes[2]) is columns
        assert cache.lookup(boxes[3]) is columns

    def test_lookup_refreshes_lru_position(self):
        columns = make_columns(50)
        probe = SemanticCache(1 << 30)
        probe.insert(BOX, columns)
        cache = SemanticCache(probe.bytes * 2)
        a = Box3(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        b = Box3(100.0, 0.0, 0.0, 101.0, 1.0, 1.0)
        c = Box3(200.0, 0.0, 0.0, 201.0, 1.0, 1.0)
        cache.insert(a, columns)
        cache.insert(b, columns)
        cache.lookup(a)  # a becomes MRU; b is now the LRU victim.
        cache.insert(c, columns)
        assert cache.lookup(a) is columns
        assert cache.lookup(b) is None

    def test_oversized_entry_rejected(self):
        columns = make_columns(100)
        cache = SemanticCache(16)  # Smaller than any real entry.
        assert not cache.insert(BOX, columns)
        assert len(cache) == 0
        assert cache.bytes == 0

    def test_insert_noop_when_already_subsumed(self):
        cache = SemanticCache(1 << 20)
        big = make_columns(20)
        small = make_columns(5, seed=1)
        cache.insert(BOX, big)
        assert not cache.insert(INNER, small)
        assert len(cache) == 1
        assert cache.lookup(INNER) is big

    def test_insert_drops_subsumed_entries(self):
        cache = SemanticCache(1 << 20)
        small = make_columns(5, seed=1)
        big = make_columns(20)
        cache.insert(INNER, small)
        cache.insert(BOX, big)
        assert len(cache) == 1
        assert cache.lookup(INNER) is big

    def test_invalidate(self):
        cache = SemanticCache(1 << 20)
        cache.insert(BOX, make_columns(10))
        cache.invalidate()
        assert len(cache) == 0
        assert cache.bytes == 0
        assert cache.lookup(BOX) is None
        assert cache.stats().invalidations == 1

    def test_inflate_grows_and_clamps(self):
        cache = SemanticCache(1 << 20, prefetch_e=0.5)
        box = Box3(0.0, 0.0, 1.0, 10.0, 10.0, 2.0)
        grown = cache.inflate(box, e_cap=5.0)
        assert grown.min_e == 0.5
        assert grown.max_e == 2.5
        assert grown.rect == box.rect
        # Clamped at both ends of the indexed band.
        low = cache.inflate(Box3(0, 0, 0.2, 1, 1, 4.8), e_cap=5.0)
        assert low.min_e == 0.0
        assert low.max_e == 5.0

    def test_inflate_disabled_returns_same_box(self):
        cache = SemanticCache(1 << 20)
        assert cache.inflate(BOX, e_cap=5.0) is BOX

    def test_inflated_cube_answers_neighbour_lods(self):
        cache = SemanticCache(1 << 20, prefetch_e=1.0)
        plane = Box3(0.0, 0.0, 1.0, 10.0, 10.0, 1.0)
        cache.insert(cache.inflate(plane, e_cap=10.0), make_columns(10))
        nearby = Box3(0.0, 0.0, 1.7, 10.0, 10.0, 1.7)
        assert cache.lookup(nearby) is not None
        far = Box3(0.0, 0.0, 3.0, 10.0, 10.0, 3.0)
        assert cache.lookup(far) is None


# -- engine integration ------------------------------------------------------


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    dataset = dataset_by_name("foothills", 1200, seed=17)
    db = Database(tmp_path_factory.mktemp("cache_db"), pool_pages=128)
    store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
    yield store
    db.close()


def _workload(store, seed: int, n: int = 10) -> list:
    """Mixed uniform/viewdep requests with overlap and an above-cap LOD."""
    rng = random.Random(seed)
    extent = store.rtree.data_space.rect
    requests = []
    for _ in range(n):
        side = (0.2 + 0.5 * rng.random()) * min(extent.width, extent.height)
        x0 = extent.min_x + rng.random() * (extent.width - side)
        y0 = extent.min_y + rng.random() * (extent.height - side)
        roi = Rect(x0, y0, x0 + side, y0 + side)
        requests.append(UniformRequest(roi, rng.random() * store.max_lod))
    requests.append(UniformRequest(extent, store.e_cap * 2 + 1.0))
    requests.append(
        SingleBaseRequest(
            QueryPlane(extent, 0.1 * store.max_lod, 0.7 * store.max_lod)
        )
    )
    return requests


def _node_ids(outcomes) -> list:
    assert all(o.ok for o in outcomes)
    return [sorted(o.result.nodes) for o in outcomes]


def _assert_registry_mirrors(registry, stats) -> None:
    """The registry's ``cache.*`` counters are the cache's own."""
    counters = registry.counters()
    for name in ("hits", "misses", "subsume_hits", "insertions", "evictions"):
        assert counters[f"cache.{name}"] == getattr(stats, name), name


class TestEngineWithCache:
    @pytest.mark.parametrize("prefetch_frac", [0.0, 0.15])
    def test_cached_answers_exact(self, store, prefetch_frac):
        """Cache on == cache off, request for request, over a repeated
        overlapping workload (with and without prefetch inflation)."""
        requests = _workload(store, seed=23)
        with QueryEngine(store, workers=4) as engine:
            reference = _node_ids(engine.run_batch(requests))
        cache = SemanticCache(
            64 << 20, prefetch_e=prefetch_frac * store.max_lod
        )
        with QueryEngine(store, workers=4, cache=cache) as engine:
            for _ in range(3):  # Cold pass, then cache-served passes.
                assert _node_ids(engine.run_batch(requests)) == reference
        assert cache.stats().hits > 0

    def test_repeated_batch_served_from_cache(self, store):
        requests = _workload(store, seed=5)
        registry = MetricsRegistry()
        cache = SemanticCache(64 << 20)
        with QueryEngine(
            store, workers=4, cache=cache, registry=registry
        ) as engine:
            engine.run_batch(requests)
            probes_cold = registry.counters()["engine.range_queries"]
            engine.run_batch(requests)
            probes_warm = (
                registry.counters()["engine.range_queries"] - probes_cold
            )
        assert probes_warm == 0
        counters = registry.counters()
        assert counters["cache.hits"] >= len(requests)
        gauges = registry.gauges()
        assert gauges["cache.bytes"] == cache.bytes
        assert gauges["cache.entries"] == len(cache)

    def test_hit_rate_is_monotone_in_byte_budget(self, store):
        """The LRU's byte budget trades memory for hits: replaying one
        workload (one worker, so the order is fixed) never hits less
        under a larger budget, and the sweep's ends differ."""
        requests = _workload(store, seed=29, n=30)
        hit_rates = []
        for kib in (8, 32, 128, 1024):
            cache = SemanticCache(kib * 1024)
            with QueryEngine(store, workers=1, cache=cache) as engine:
                for _ in range(3):
                    engine.run_batch(requests)
            stats = cache.stats()
            hit_rates.append(stats.hits / (stats.hits + stats.misses))
        assert hit_rates == sorted(hit_rates)
        assert hit_rates[0] < hit_rates[-1]

    def test_submit_path_mirrors_cache_metrics(self, store):
        """``cache.*`` in the registry is the cache's own counters
        (the engine registers ``cache.stats`` as their source), after
        an open-loop run and a close as at any other time, evictions
        included (the budget holds two or three of the small cubes)."""
        requests = _workload(store, seed=13, n=4)
        registry = MetricsRegistry()
        cache = SemanticCache(5000)
        with QueryEngine(
            store, workers=2, cache=cache, registry=registry
        ) as engine:
            for request in requests + requests[-2:]:
                assert engine.submit(request).result(timeout=30).ok
        stats = cache.stats()
        assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0
        _assert_registry_mirrors(registry, stats)
        assert registry.gauges()["cache.bytes"] == cache.bytes

    def test_concurrent_mirroring_loses_and_doubles_nothing(self, store):
        """Workers hit and fill the cache concurrently (more workers
        than cores, a shortened switch interval) and nothing mirrors
        deltas any more: the registry reads the cache, so it cannot
        lose or double one — registry == cache.stats() still."""
        requests = _workload(store, seed=19, n=6)
        registry = MetricsRegistry()
        cache = SemanticCache(5000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryEngine(
                store, workers=16, cache=cache, registry=registry
            ) as engine:
                futures = [engine.submit(r) for r in requests * 8]
                assert all(f.result(timeout=60).ok for f in futures)
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats()
        assert stats.misses > 0 and stats.insertions > 0
        _assert_registry_mirrors(registry, stats)

    def test_subsumed_roi_served_from_cache(self, store):
        extent = store.rtree.data_space.rect
        lod = 0.4 * store.max_lod
        outer = UniformRequest(extent, lod)
        inner = UniformRequest(extent.scaled(0.4), lod)
        cache = SemanticCache(64 << 20)
        with QueryEngine(store, workers=2, cache=cache) as engine:
            engine.run(outer)
            outcome = engine.run(inner)
        assert outcome.metrics.cached
        assert cache.stats().subsume_hits == 1
        reference = store.uniform_query(inner.roi, inner.lod)
        assert outcome.result.nodes == reference.nodes

    def test_above_cap_lod_cached_exactly(self, store):
        """The e_cap blind spot must not reappear through the cache:
        an above-cap request served from cache still yields the base
        mesh."""
        roi = store.rtree.data_space.rect
        request = UniformRequest(roi, store.e_cap * 3)
        reference = store.uniform_query(roi, request.lod)
        assert len(reference) > 0
        cache = SemanticCache(64 << 20)
        with QueryEngine(store, workers=2, cache=cache) as engine:
            first = engine.run(request)
            second = engine.run(request)
        assert not first.metrics.cached
        assert second.metrics.cached
        assert first.result.nodes == reference.nodes
        assert second.result.nodes == reference.nodes

    def test_prefetch_turns_nearby_lods_into_hits(self, store):
        roi = store.rtree.data_space.rect.scaled(0.5)
        lod = 0.5 * store.max_lod
        cache = SemanticCache(64 << 20, prefetch_e=0.2 * store.max_lod)
        with QueryEngine(store, workers=2, cache=cache) as engine:
            engine.run(UniformRequest(roi, lod))
            nearby = engine.run(
                UniformRequest(roi, lod + 0.1 * store.max_lod)
            )
        assert nearby.metrics.cached
        reference = store.uniform_query(roi, lod + 0.1 * store.max_lod)
        assert nearby.result.nodes == reference.nodes

    def test_invalidate_forces_fresh_probes(self, store):
        requests = _workload(store, seed=31, n=4)
        registry = MetricsRegistry()
        cache = SemanticCache(64 << 20)
        with QueryEngine(
            store, workers=2, cache=cache, registry=registry
        ) as engine:
            engine.run_batch(requests)
            cache.invalidate()
            before = registry.counters()["engine.range_queries"]
            outcomes = engine.run_batch(requests)
            fresh = registry.counters()["engine.range_queries"] - before
        assert fresh > 0
        assert all(o.ok for o in outcomes)


class TestRegionInvalidation:
    """Spatial invalidation (patch commits): entries overlapping the
    patched region die, everything else survives — including across
    epochs."""

    def test_overlapping_entries_dropped_others_survive(self):
        cache = SemanticCache(1 << 20)
        cache.insert(BOX, make_columns(5))
        cache.insert(DISJOINT, make_columns(5, seed=1))
        cache.invalidate(Rect(1.0, 1.0, 5.0, 5.0))  # Overlaps BOX only.
        assert cache.lookup(BOX) is None
        assert cache.lookup(DISJOINT) is not None
        assert cache.stats().region_invalidations == 1

    def test_full_invalidate_still_clears_everything(self):
        cache = SemanticCache(1 << 20)
        cache.insert(BOX, make_columns(5))
        cache.insert(DISJOINT, make_columns(5, seed=1))
        cache.invalidate()
        assert cache.lookup(BOX) is None
        assert cache.lookup(DISJOINT) is None

    def test_begin_epoch_drops_overlap_and_keeps_rest(self):
        cache = SemanticCache(1 << 20)
        cache.insert(BOX, make_columns(5), epoch=0)
        cache.insert(DISJOINT, make_columns(5, seed=1), epoch=0)
        cache.begin_epoch(1, Rect(1.0, 1.0, 5.0, 5.0))
        # The non-overlapping epoch-0 cube is still a sound answer for
        # epoch-1 readers: the patch never touched its region.
        assert cache.lookup(DISJOINT, epoch=1) is not None
        assert cache.lookup(BOX, epoch=1) is None

    def test_new_epoch_entry_invisible_to_pinned_old_reader(self):
        cache = SemanticCache(1 << 20)
        cache.begin_epoch(1, Rect(0.0, 0.0, 10.0, 10.0))
        cache.insert(BOX, make_columns(5), epoch=1)
        assert cache.lookup(BOX, epoch=1) is not None
        # A reader still pinned to epoch 0 must not see epoch-1 data.
        assert cache.lookup(BOX, epoch=0) is None

    def test_stale_epoch_insert_refused_inside_patched_region(self):
        cache = SemanticCache(1 << 20)
        cache.begin_epoch(1, Rect(0.0, 0.0, 10.0, 10.0))
        # An in-flight epoch-0 probe finishing after the commit must
        # not publish pre-patch records over the patched region...
        assert not cache.insert(BOX, make_columns(5), epoch=0)
        assert cache.lookup(BOX, epoch=0) is None
        # ...but may still publish cubes the patch never touched.
        assert cache.insert(DISJOINT, make_columns(5, seed=1), epoch=0)

    def test_patch_log_overflow_fails_closed(self):
        from repro.core.cache import PATCH_LOG_LIMIT

        cache = SemanticCache(1 << 20)
        cache.insert(DISJOINT, make_columns(5), epoch=0)
        for i in range(PATCH_LOG_LIMIT + 1):
            cache.begin_epoch(i + 1, Rect(0.0, 0.0, 1.0, 1.0))
        # Overflow clears the cache outright rather than letting the
        # staleness check under-approximate.
        assert cache.lookup(DISJOINT, epoch=PATCH_LOG_LIMIT + 1) is None

    def test_patch_log_overflow_refuses_inserts_over_forgotten_regions(self):
        """The reset log entry covers everywhere: a reader pinned
        before a patch the overflow forgot cannot publish its cube."""
        from repro.core.cache import PATCH_LOG_LIMIT

        cache = SemanticCache(1 << 20)
        for i in range(PATCH_LOG_LIMIT):  # Disjoint strips; #0 is x 0..1.
            cache.begin_epoch(i + 1, Rect(2.0 * i, 0.0, 2.0 * i + 1.0, 1.0))
        newest = PATCH_LOG_LIMIT + 1
        cache.begin_epoch(newest, Rect(-9.0, -9.0, -8.0, -8.0))  # Overflows.
        over_first = Box3(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        assert not cache.insert(over_first, make_columns(5), epoch=0)
        assert cache.lookup(over_first, epoch=newest) is None
        # A cube fetched at the newest epoch is still admitted.
        assert cache.insert(over_first, make_columns(5), epoch=newest)
