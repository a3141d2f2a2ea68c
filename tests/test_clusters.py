"""The engine's cluster fetch against the one reference.

The contract (:mod:`repro.core.clusters`): for *any* store and any
query, the :class:`QueryEngine` returns node-id-identical results —
same record dicts, same ``retrieved`` counts — as the paper's
processors in :mod:`repro.core.query` (``store.uniform_query`` /
``store.single_base_query``), because cluster extents are unions of
their members' capped indexed segments and the decoded batch is
narrowed with the same intersection predicate the R*-tree applies;
and both select exactly the nodes in-memory selective refinement
(:mod:`repro.mesh.selective`) does.  Hypothesis drives random query
cubes, LODs above ``e_cap``, and degenerate ROIs through engine and
reference; the rest of the file covers the
blob codec, the directory invariants, the decoded-cluster LRU, and
the pager's multi-page run accounting.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DirectMeshStore, QueryEngine
from repro.core.cache import ClusterCache
from repro.core.clusters import (
    ClusterDirectory,
    ClusterIndex,
    cluster_directory_path,
    decode_cluster_blob,
    encode_cluster_blob,
    intersecting_rows,
)
from repro.core.engine import SingleBaseRequest, UniformRequest
from repro.errors import PageCorruptionError, StorageError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Box3, Rect
from repro.mesh.progressive import LOD_INFINITY, PMNode
from repro.mesh.selective import uniform_query_ref, viewdep_query_ref
from repro.storage import Database, FaultInjector
from repro.storage.record import decode_dm_nodes_columnar, encode_dm_node
from repro.terrain import dataset_by_name
from tests.test_mutate import (
    EXTENT,
    aligned_region,
    mutable_engine,
    patch_heights,
)

common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

fracs = st.floats(0.0, 1.0, allow_nan=False)


@pytest.fixture(scope="module")
def dataset():
    return dataset_by_name("foothills", 900, seed=13)


@pytest.fixture(scope="module")
def built(dataset, tmp_path_factory):
    """One store shared by the parity properties."""
    db = Database(tmp_path_factory.mktemp("clusters_db"))
    store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
    yield db, store
    db.close()


def _roi(store, fx, fy, fw, fh) -> Rect:
    extent = store.rtree.data_space.rect
    w = fw * extent.width
    h = fh * extent.height
    x0 = extent.min_x + fx * (extent.width - w)
    y0 = extent.min_y + fy * (extent.height - h)
    return Rect(x0, y0, x0 + w, y0 + h)


def _assert_parity(pm, store, request) -> None:
    """Engine == the sequential processor (nodes and ``retrieved``,
    uncached) == in-memory selective refinement (node ids)."""
    if isinstance(request, UniformRequest):
        reference = store.uniform_query(request.roi, request.lod)
        selected = uniform_query_ref(pm, request.roi, request.lod)
    else:
        reference = store.single_base_query(request.plane)
        selected = viewdep_query_ref(pm, request.plane)
    with QueryEngine(store, workers=1) as engine:
        outcome = engine.run(request)
    assert outcome.ok
    assert outcome.result.nodes == reference.nodes
    assert outcome.result.retrieved == reference.retrieved
    assert set(reference.nodes) == selected


class TestEngineParity:
    @common
    @given(fracs, fracs, fracs, fracs, st.floats(0.0, 1.3))
    def test_uniform_random_cubes(
        self, dataset, built, fx, fy, fw, fh, flod
    ):
        """Random ROIs and LODs — including LODs above ``e_cap``."""
        _, store = built
        lod = flod * (store.e_cap * 1.2)
        _assert_parity(
            dataset.pm, store,
            UniformRequest(_roi(store, fx, fy, fw, fh), lod),
        )

    @common
    @given(fracs, fracs, fracs, fracs, fracs, fracs)
    def test_viewdep_random_planes(
        self, dataset, built, fx, fy, fw, fh, fa, fb
    ):
        _, store = built
        e_a = fa * store.max_lod
        e_b = fb * store.max_lod
        plane = QueryPlane(
            _roi(store, fx, fy, fw, fh), min(e_a, e_b), max(e_a, e_b)
        )
        _assert_parity(dataset.pm, store, SingleBaseRequest(plane))

    def test_above_e_cap_returns_base_mesh(self, built):
        """``lod > e_cap`` clamps the probe and serves the base mesh."""
        _, store = built
        extent = store.rtree.data_space.rect
        reference = store.uniform_query(extent, store.e_cap * 2.0)
        assert len(reference) > 0
        with QueryEngine(store, workers=1) as engine:
            outcome = engine.run(UniformRequest(extent, store.e_cap * 2.0))
        assert outcome.result.nodes == reference.nodes

    def test_empty_roi(self, built):
        """A degenerate ROI outside the data selects nothing."""
        _, store = built
        extent = store.rtree.data_space.rect
        far = Rect(
            extent.max_x + 100.0,
            extent.max_y + 100.0,
            extent.max_x + 101.0,
            extent.max_y + 101.0,
        )
        with QueryEngine(store, workers=1) as engine:
            outcome = engine.run(UniformRequest(far, store.max_lod / 2))
        assert outcome.result.nodes == {}
        assert outcome.result.retrieved == 0

    def test_cluster_metrics_and_cache_reuse(self, built):
        """Run pages are counted honestly; repeats hit the LRU."""
        db, store = built
        extent = store.rtree.data_space.rect
        request = UniformRequest(extent, store.max_lod / 2)
        db.flush()
        with QueryEngine(store, workers=1) as engine:
            cold = engine.run(request)
            warm = engine.run(request)
            cache_stats = engine.cluster_cache.stats()
        assert cold.metrics.clusters_touched > 0
        assert cold.metrics.nodes_decoded >= cold.result.retrieved
        # Every candidate's run pages were transferred, once each.
        assert cold.metrics.pages_read == sum(
            store.clusters.meta(cid).n_pages
            for cid in store.clusters.index.candidates(
                request.query_box(store.e_cap)
            )
        )
        assert warm.metrics.pages_read == 0  # Served decoded.
        assert warm.metrics.cache_hit_rate == 1.0
        assert cache_stats.hits >= cold.metrics.clusters_touched
        assert warm.result.nodes == cold.result.nodes

    def test_open_without_cluster_directory_raises(self, tmp_path):
        """The cluster section is part of the store: no directory, no
        open — the error says to rebuild."""
        dataset = dataset_by_name("foothills", 300, seed=3)
        with Database(tmp_path / "nodir") as db:
            DirectMeshStore.build(dataset.pm, db, dataset.connections)
            cluster_directory_path(db, "dm").unlink()
        with Database(tmp_path / "nodir") as db:
            with pytest.raises(StorageError, match="rebuild"):
                DirectMeshStore.open(db)

    def test_reopened_store_serves_identically(self, tmp_path):
        dataset = dataset_by_name("foothills", 500, seed=9)
        with Database(tmp_path / "persist") as db:
            store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
            extent = store.rtree.data_space.rect
            reference = store.uniform_query(extent, store.max_lod / 3)
        with Database(tmp_path / "persist") as db:
            store = DirectMeshStore.open(db)
            with QueryEngine(store) as engine:
                outcome = engine.run(
                    UniformRequest(extent, store.max_lod / 3)
                )
            assert outcome.result.nodes == reference.nodes


class TestDirectoryInvariants:
    def test_runs_are_contiguous_and_disjoint(self, built):
        _, store = built
        directory = store.clusters.directory
        assert len(directory) > 1
        payload = store.clusters.segment.payload_size
        spans = sorted(
            (meta.start_page, meta.n_pages) for meta in directory.clusters
        )
        previous_end = None
        for start, count in spans:
            assert count >= 1
            if previous_end is not None:
                assert start >= previous_end
            previous_end = start + count
        for meta in directory.clusters:
            assert (meta.n_pages - 1) * payload < meta.n_bytes
            assert meta.n_bytes <= meta.n_pages * payload

    def test_index_extent_is_the_terrain_extent(self, built):
        """The serving side reads the terrain's extent off the
        directory; it is the box the reference R*-tree reports."""
        _, store = built
        assert store.clusters.index.extent == store.rtree.data_space
        empty = ClusterIndex(ClusterDirectory("dm_cruns", 64, []))
        assert empty.extent is None

    def test_extents_cover_members(self, built):
        """Each decoded member's capped segment lies in its extent."""
        _, store = built
        clusters = store.clusters
        for meta in clusters.directory.clusters:
            columns = clusters.decode(meta.cluster_id)
            assert len(columns) == meta.n_nodes
            capped = np.minimum(columns.e_high, store.e_cap)
            assert float(columns.x.min()) >= meta.min_x
            assert float(columns.x.max()) <= meta.max_x
            assert float(columns.y.min()) >= meta.min_y
            assert float(columns.y.max()) <= meta.max_y
            assert float(columns.e_low.min()) >= meta.min_e
            assert float(capped.max()) <= meta.max_e

    def test_directory_round_trips_through_json(self, built):
        db, store = built
        loaded = ClusterDirectory.load(db, "dm")
        assert loaded.clusters == store.clusters.directory.clusters
        assert loaded.segment == store.clusters.directory.segment

    def test_total_nodes_match_store(self, built):
        _, store = built
        assert store.clusters.directory.total_nodes == len(store.rtree)


class TestBlobCodec:
    @common
    @given(st.lists(st.binary(max_size=64), max_size=24))
    def test_roundtrip(self, payloads):
        assert decode_cluster_blob(encode_cluster_blob(payloads)) == payloads

    def test_bad_magic_rejected(self):
        blob = bytearray(encode_cluster_blob([b"abc"]))
        blob[:4] = b"XXXX"
        with pytest.raises(StorageError):
            decode_cluster_blob(bytes(blob))

    def test_truncation_rejected(self):
        blob = encode_cluster_blob([b"abcdef", b"ghi"])
        with pytest.raises(StorageError):
            decode_cluster_blob(blob[:-2])

    def test_trailing_bytes_rejected(self):
        blob = encode_cluster_blob([b"abc"])
        with pytest.raises(StorageError):
            decode_cluster_blob(blob + b"\x00")


def _columns(n: int, seed: int = 0):
    """A small decoded batch for cache and narrowing tests."""
    rng = random.Random(seed)
    payloads = []
    for i in range(n):
        node = PMNode(
            i,
            rng.uniform(-10.0, 10.0),
            rng.uniform(-10.0, 10.0),
            rng.uniform(0.0, 5.0),
            error=0.0,
            parent=-1,
            child1=-1,
            child2=-1,
            wing1=-1,
            wing2=-1,
        )
        node.e = rng.uniform(0.0, 3.0)
        node.e_high = (
            node.e + rng.uniform(0.0, 2.0) if i % 4 else LOD_INFINITY
        )
        connections = sorted(rng.sample(range(n), rng.randint(0, 5)))
        payloads.append(encode_dm_node(node, connections))
    return decode_dm_nodes_columnar(payloads)


class TestClusterCache:
    def test_hits_become_mru_and_misses_count(self):
        cache = ClusterCache(max_bytes=1 << 20)
        columns = _columns(8)
        assert cache.get(0) is None
        assert cache.put(0, columns)
        assert cache.get(0) is columns
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.entries == 1 and stats.bytes > 0
        assert stats.hit_rate == 0.5

    def test_lru_eviction_under_byte_budget(self):
        columns = _columns(8)
        entry_bytes = columns.nbytes + 512
        cache = ClusterCache(max_bytes=entry_bytes * 2)
        cache.put(0, columns)
        cache.put(1, columns)
        cache.get(0)  # 0 becomes MRU; 1 is now the eviction victim.
        cache.put(2, columns)
        assert cache.get(1) is None
        assert cache.get(0) is not None
        assert cache.stats().evictions == 1

    def test_oversized_entry_refused(self):
        columns = _columns(8)
        cache = ClusterCache(max_bytes=16)
        assert not cache.put(0, columns)
        assert len(cache) == 0

    def test_reinsert_refreshes_without_double_charge(self):
        columns = _columns(8)
        cache = ClusterCache(max_bytes=1 << 20)
        cache.put(0, columns)
        before = cache.bytes
        cache.put(0, columns)
        assert cache.bytes == before
        assert len(cache) == 1

    def test_invalidate_empties(self):
        cache = ClusterCache(max_bytes=1 << 20)
        cache.put(0, _columns(4))
        cache.invalidate()
        assert len(cache) == 0 and cache.bytes == 0


class TestNarrowing:
    def test_select_matches_per_row_materialize(self):
        columns = _columns(40, seed=3)
        mask = np.zeros(40, bool)
        mask[::3] = True
        subset = columns.select(mask)
        assert len(subset) == int(mask.sum())
        assert subset.records() == [
            columns.record(i) for i in np.flatnonzero(mask)
        ]

    def test_select_full_mask_is_identity(self):
        columns = _columns(10, seed=4)
        assert columns.select(np.ones(10, bool)) is columns

    def test_intersecting_rows_matches_bruteforce(self):
        columns = _columns(60, seed=5)
        e_cap = 4.0
        box = Box3(-5.0, -5.0, 0.5, 5.0, 5.0, 3.5)
        mask = intersecting_rows(columns, box, e_cap)
        for i, record in enumerate(columns.records()):
            e_high = min(record.e_high, e_cap)
            expected = (
                box.min_x <= record.x <= box.max_x
                and box.min_y <= record.y <= box.max_y
                and record.e_low <= box.max_e
                and e_high >= box.min_e
            )
            assert bool(mask[i]) == expected


class TestRunIO:
    def test_read_run_counts_every_page(self, tmp_path):
        with Database(tmp_path / "runs") as db:
            segment = db.segment("r")
            for _ in range(5):
                _, buf = segment.allocate()
                buf[:4] = b"abcd"
            db.flush()
            with db.stats.attribute() as probe:
                data = segment.read_run(1, 3)
            assert probe.physical_reads == 3  # Pages, not probe calls.
            assert probe.logical_reads == 3
            assert len(data) == 3 * segment.payload_size
            assert data[:4] == b"abcd"

    def test_read_run_bounds_checked(self, tmp_path):
        with Database(tmp_path / "bounds") as db:
            segment = db.segment("r")
            for _ in range(3):
                segment.allocate()
            db.flush()
            with pytest.raises(StorageError):
                segment.read_run(1, 5)
            with pytest.raises(StorageError):
                segment.read_run(0, 0)

    def test_corrupt_run_page_detected(self, built):
        db, store = built
        db.set_fault_injector(
            FaultInjector(corrupt_rate=1.0, seed=1, max_corruptions=1)
        )
        try:
            with pytest.raises(PageCorruptionError):
                store.clusters.decode(0)
        finally:
            db.set_fault_injector(None)
        # The budget is spent; the run now reads and decodes clean.
        assert len(store.clusters.decode(0)) > 0


class TestExplainClusterView:
    def test_plan_and_execution_fields(self, built):
        from repro.core.explain import explain

        _, store = built
        extent = store.rtree.data_space.rect
        explanation = explain(
            store, extent, lod=store.max_lod / 2, execute=True
        )
        view = explanation.cluster_view
        assert view is not None
        assert view.candidates > 0
        assert view.run_pages > 0
        assert view.pages_read is not None
        assert view.nodes_decoded >= view.retrieved
        assert view.result_nodes == explanation.result_nodes
        assert view.retrieved == explanation.retrieved
        assert view.decode_hits + view.decode_misses == view.candidates
        text = explanation.to_text()
        assert "cluster path" in text and "overfetch" in text


class TestClusterCacheRegions:
    """The epoch is the key, and a commit empties the cache."""

    def test_epoch_keys_do_not_collide(self):
        cache = ClusterCache(max_bytes=1 << 20)
        old, new = _columns(8), _columns(8, seed=9)
        cache.put(3, old, 0)
        cache.put(3, new, 1)
        assert cache.get(3, 0) is old
        assert cache.get(3, 1) is new

    def test_commit_leaves_no_older_epoch_resident(self, tmp_path):
        """No reader of epoch N + 1 can hit an entry of epoch N, so
        ``install_store`` drops them all rather than let dead entries
        sit in the budget."""
        db, ms, engine = mutable_engine(tmp_path)
        with db, engine:
            everything = UniformRequest(EXTENT, ms.store.max_lod)
            engine.submit(everything).result()
            old_clusters = len(ms.store.clusters)
            assert len(engine.cluster_cache) > 0
            # A patch over one corner: clusters elsewhere go too.
            ms.apply_patch(
                aligned_region(12, 12, 16, 16),
                patch_heights(12, 12, 16, 16, seed=5),
            )
            assert len(engine.cluster_cache) == 0
            assert engine.cluster_cache.bytes == 0
            engine.submit(everything).result()
            assert len(engine.cluster_cache) > 0
            assert all(
                engine.cluster_cache.get(cid, 0) is None
                for cid in range(old_clusters)
            )
            counters = engine.registry.counters()
            assert counters["cluster.region_invalidations"] == 1

    def test_reader_pinned_behind_a_commit_redecodes_its_own_epoch(
        self, tmp_path
    ):
        db, ms, engine = mutable_engine(tmp_path)
        with db, engine:
            box = UniformRequest(EXTENT, 0.0).query_box(ms.store.e_cap)
            pinned = engine.pinned_snapshot()
            before = engine._fetch_clustered(box, pinned)
            ms.apply_patch(
                aligned_region(0, 0, 8, 8), patch_heights(0, 0, 8, 8, seed=2)
            )
            assert engine.epoch == 1 and len(engine.cluster_cache) == 0
            misses = engine.cluster_cache.stats().misses
            after = engine._fetch_clustered(box, pinned)
            # Every candidate was a miss and decoded from epoch 0's runs.
            assert (
                engine.cluster_cache.stats().misses - misses
                == after.clusters_touched
            )
            assert after.columns.z.tolist() == before.columns.z.tolist()
            fresh = engine._fetch_clustered(box, engine.pinned_snapshot())
            assert fresh.columns.z.tolist() != before.columns.z.tolist()
