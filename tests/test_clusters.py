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
reference; the rest of the file covers the ``DMC2`` blob codec, the
directory invariants, the decoded-cluster LRU, and the pager's
multi-page run accounting.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.paper_layout import PaperLayoutStore
from repro.core import DirectMeshStore, QueryEngine
from repro.core.cache import ClusterCache
from repro.core.clusters import (
    _DIR_HEADER,
    DEFAULT_CLUSTER_NODES,
    ClusterDirectory,
    ClusterIndex,
    ClusterSet,
    build_cluster_runs,
    decode_cluster_blob,
    encode_cluster_blob,
    intersecting_rows,
    unchanged_clusters,
)
from repro.core.engine import SingleBaseRequest, UniformRequest
from repro.core.mutate import MutableStore
from repro.errors import PageCorruptionError, StorageError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Box3, Rect, union_all_boxes
from repro.index.rstar import str_groups, str_order
from repro.mesh.progressive import LOD_INFINITY, PMNode
from repro.mesh.selective import uniform_query_ref, viewdep_query_ref
from repro.storage import Database, FaultInjector
from repro.storage.record import (
    DMNodeColumns,
    decode_dm_node,
    decode_dm_nodes_columnar,
    encode_dm_node,
)
from repro.terrain import dataset_by_name
from repro.terrain.dem import DEM
from repro.terrain.synthetic import ridge_field
from tests.test_verify_store import parent_layout
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
    extent = store.clusters.index.extent.rect
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
        outcome = engine.submit(request).result()
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
        extent = store.clusters.index.extent.rect
        reference = store.uniform_query(extent, store.e_cap * 2.0)
        assert len(reference) > 0
        with QueryEngine(store, workers=1) as engine:
            outcome = engine.submit(UniformRequest(extent, store.e_cap * 2.0)).result()
        assert outcome.result.nodes == reference.nodes

    def test_empty_roi(self, built):
        """A degenerate ROI outside the data selects nothing."""
        _, store = built
        extent = store.clusters.index.extent.rect
        far = Rect(
            extent.max_x + 100.0,
            extent.max_y + 100.0,
            extent.max_x + 101.0,
            extent.max_y + 101.0,
        )
        with QueryEngine(store, workers=1) as engine:
            outcome = engine.submit(UniformRequest(far, store.max_lod / 2)).result()
        assert outcome.result.nodes == {}
        assert outcome.result.retrieved == 0

    def test_cluster_metrics_and_cache_reuse(self, built):
        """Run pages are counted honestly; repeats hit the LRU."""
        db, store = built
        extent = store.clusters.index.extent.rect
        request = UniformRequest(extent, store.max_lod / 2)
        db.flush()
        with QueryEngine(store, workers=1) as engine:
            cold = engine.submit(request).result()
            warm = engine.submit(request).result()
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
        """The cluster section is part of the store: a run segment with
        no directory at its head (as the version-3 builder wrote it,
        beside JSON sidecars) does not open — the error says to
        rebuild."""
        dataset = dataset_by_name("foothills", 300, seed=3)
        with Database(tmp_path / "nodir") as db:
            DirectMeshStore.build(dataset.pm, db, dataset.connections)
        parent_layout(tmp_path / "nodir")
        with Database(tmp_path / "nodir") as db:
            with pytest.raises(StorageError, match="rebuild"):
                DirectMeshStore.open(db)

    def test_reopened_store_serves_identically(self, tmp_path):
        dataset = dataset_by_name("foothills", 500, seed=9)
        with Database(tmp_path / "persist") as db:
            store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
            extent = store.clusters.index.extent.rect
            reference = store.uniform_query(extent, store.max_lod / 3)
        with Database(tmp_path / "persist") as db:
            store = DirectMeshStore.open(db)
            with QueryEngine(store) as engine:
                outcome = engine.submit(
                    UniformRequest(extent, store.max_lod / 3)
                ).result()
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

    def test_index_extent_is_the_terrain_extent(self, dataset, built):
        """The terrain's extent is read off the directory: the union of
        every node's capped ``(x, y, e)`` segment."""
        _, store = built
        nodes = dataset.pm.nodes
        assert store.clusters.index.extent == Box3(
            min(n.x for n in nodes), min(n.y for n in nodes),
            min(n.e for n in nodes), max(n.x for n in nodes),
            max(n.y for n in nodes),
            max(min(n.e_high, store.e_cap) for n in nodes),
        )
        empty = ClusterIndex(ClusterDirectory(1.0, 2.05, 64, []))
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

    def test_directory_round_trips_through_the_run_segment(self, built):
        _, store = built
        directory = store.clusters.directory
        assert ClusterDirectory.read(store.clusters.segment) == directory
        assert (directory.max_lod, directory.e_cap) == (
            store.max_lod, store.e_cap
        )
        assert directory.clusters[0].start_page > 0  # After the directory.

    def test_total_nodes_match_store(self, dataset, built):
        _, store = built
        assert store.clusters.directory.total_nodes == len(dataset.pm.nodes)


def _reseal_header(path, field: int, value) -> None:
    """Set field ``field`` (in :data:`_DIR_HEADER` order) of the header
    on page 0 of ``dm_cruns`` and re-seal the page."""
    with Database(path) as db:
        segment = db.segment("dm_cruns")
        head = list(_DIR_HEADER.unpack_from(segment.fetch(0), 0))
        head[field] = value
        _DIR_HEADER.pack_into(segment.fetch(0), 0, *head)
        segment.mark_dirty(0)


class TestDirectoryHeader:
    """The directory header is the first thing ``open`` trusts: an
    empty or damaged one is a typed error naming the fault, and a
    structural problem for fsck (a version-3 store's:
    ``test_open_without_cluster_directory_raises`` and
    ``test_missing_cluster_directory_is_reported``)."""

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda p: (p / "dm_cruns.seg").write_bytes(b""), "no pages"),
            (lambda p: _reseal_header(p, 0, b"XXXX"), "magic b'XXXX'"),
            (lambda p: _reseal_header(p, 5, 10**6), "do not fit"),
        ],
        ids=["zero pages", "magic", "table"],
    )
    def test_damaged_or_foreign_header_is_a_typed_error(
        self, tmp_path, damage, message
    ):
        from repro.cli import main as cli_main
        from repro.storage.integrity import scrub_database

        dataset = dataset_by_name("foothills", 300, seed=3)
        path = tmp_path / "db"
        with Database(path) as db:
            DirectMeshStore.build(dataset.pm, db, dataset.connections)
        damage(path)
        with Database(path) as db:
            with pytest.raises(StorageError, match=message):
                DirectMeshStore.open(db)
            report = scrub_database(db)
        assert report.corrupt_pages == 0
        assert len(report.structural) == 1
        assert re.search(message, report.structural[0])
        assert report.structural[0].startswith("dm: unreadable cluster dir")
        assert cli_main(["fsck", str(path)]) == 1

    def test_open_reads_the_header_and_the_table_only(self, dataset, tmp_path):
        """``open`` reads the pages up to the table's end, not the
        digests; a table over several pages reads back whole."""
        nodes = dataset.pm.nodes
        boxes = [
            Box3.vertical_segment(n.x, n.y, n.e, min(n.e_high, 99.0))
            for n in nodes
        ]
        with Database(tmp_path / "db") as db:
            store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
            small = build_cluster_runs(
                db, "r", nodes, boxes, dataset.connections, 1.0, 99.0, 4
            )
            db.flush()

            def pages(directory) -> list[int]:
                """Pages up to the table's end, and the directory's."""
                return [-(-at // db.payload_size) for at in directory.spans()]

            def reads(segment: str) -> int:
                return db.stats.snapshot().by_segment[segment]["physical_reads"]

            db.stats.reset()
            opened = DirectMeshStore.open(db).clusters.directory
            assert opened == store.clusters.directory
            table, end = pages(opened)
            assert reads("dm_cruns") == table < end
            assert ClusterDirectory.read(db.segment("r")) == small
            table, end = pages(small)
            assert reads("r") == table < end
            assert table > 1  # The small clusters' table spans pages.
            assert ClusterSet(db.segment("r"), small).problems() == []


class TestClusterSetProblems:
    """``ClusterSet.problems()`` reports each fault class of the run
    layout, and steps around the pages it is told to skip."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c, m: {"start_page": c.segment.n_pages}, "outside segment"),
            (
                lambda c, m: {"start_page": c.directory.clusters[1].start_page},
                "overlaps cluster",
            ),
            (
                lambda c, m: {"n_bytes": m.n_pages * c.segment.payload_size + 1},
                "directory claims",
            ),
            (lambda c, m: {"n_nodes": m.n_nodes + 1}, "decodes to"),
            (None, "bad cluster blob magic"),
        ],
    )
    def test_each_fault_class_is_reported(
        self, tmp_path, wavy_pm, wavy_connections, edit, message
    ):
        from tests.test_verify_store import reseal_cluster_run

        with Database(tmp_path / "db", pool_pages=64) as db:
            store = DirectMeshStore.build(wavy_pm, db, wavy_connections)
            clusters = store.clusters
            meta = clusters.meta(0)
            assert len(clusters) > 1 and clusters.problems() == []
            if edit is None:
                blob = clusters.read_blob(0)
                reseal_cluster_run(store, 0, b"XXXX" + blob[4:])
                assert clusters.problems(skip={meta.start_page}) == []
            else:
                clusters.directory.clusters[0] = replace(
                    meta, **edit(clusters, meta)
                )
            problems = clusters.problems()
        assert any(message in p for p in problems), problems



@pytest.fixture(scope="module", params=["foothills", "ridge65"])
def layout_store(request, tmp_path_factory):
    """A built foothills store and the 16-tile mutable ``ridge65``."""
    db = Database(tmp_path_factory.mktemp(request.param))
    if request.param == "foothills":
        dataset = dataset_by_name("foothills", 2000, seed=3)
        store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
    else:
        dem = DEM(ridge_field(exponent=6, seed=3))
        store = MutableStore.build(dem, db, tile_verts=17).store
    yield store
    db.close()


class TestStrLayout:
    """Each cluster is one STR tile of the nodes' capped ``(x, y, e)``
    segments, taken in their STR packing order."""

    def test_clusters_are_the_str_tiles_of_the_segments(self, layout_store):
        store = layout_store
        clusters = store.clusters
        # Both builders take the nodes in ascending id order.
        records = sorted(
            (
                r
                for cid in range(len(clusters))
                for r in clusters.decode(cid).records()
            ),
            key=lambda r: r.id,
        )
        boxes = [
            Box3.vertical_segment(
                r.x, r.y, r.e_low,
                store.e_cap if r.e_high == LOD_INFINITY else r.e_high,
            )
            for r in records
        ]
        order = str_order(boxes)
        records = [records[i] for i in order]
        boxes = [boxes[i] for i in order]
        groups = str_groups(boxes, DEFAULT_CLUSTER_NODES)
        directory = store.clusters.directory
        assert len(directory) == len(groups) > 1
        served = []
        for meta, group in zip(directory.clusters, groups):
            ids = store.clusters.decode(meta.cluster_id).ids.tolist()
            assert ids == [records[i].id for i in group]
            assert len(ids) <= DEFAULT_CLUSTER_NODES
            assert meta.box == union_all_boxes([boxes[i] for i in group])
            served.extend(ids)
        # A partition of the node set: every node in exactly one run.
        assert sorted(served) == sorted(r.id for r in records)


class TestPaperMetric:
    """The paper's cost is disk accesses per query.  On a seeded list
    of its uniform queries (Figure 6: ROI area x LOD), the engine's
    cold run reads — buffer pool and cluster cache flushed before each
    query — average no more pages than the paper's own layout reads
    (:class:`PaperLayoutStore`: per-node R*-tree pages plus record
    heap pages)."""

    AREAS = (0.025, 0.05, 0.10, 0.15, 0.20)
    LODS = (0.01, 0.02, 0.05, 0.10, 0.20, 0.50)

    def test_cold_reads_at_most_the_rtree_disk_accesses(self, tmp_path):
        dataset = dataset_by_name("foothills", 2000, seed=3)
        rng = random.Random(3)
        bounds = dataset.bounds()
        requests = []
        for _ in range(4):
            for area in self.AREAS:
                for lod in self.LODS:
                    side = (bounds.area * area) ** 0.5
                    x0 = bounds.min_x + rng.random() * (bounds.width - side)
                    y0 = bounds.min_y + rng.random() * (bounds.height - side)
                    requests.append(UniformRequest(
                        Rect(x0, y0, x0 + side, y0 + side),
                        lod * dataset.pm.max_lod(),
                    ))
        with Database(tmp_path / "db", pool_pages=64) as db:
            store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
            paper = PaperLayoutStore.build(dataset.pm, db, dataset.connections)
            rstar = engine = 0
            with QueryEngine(store, workers=1) as server:
                for request in requests:
                    db.begin_measured_query()
                    want = paper.uniform_query(request.roi, request.lod)
                    rstar += db.disk_accesses
                    db.begin_measured_query()
                    server.cluster_cache.invalidate()
                    outcome = server.submit(request).result()
                    assert outcome.result.nodes == want.nodes
                    engine += db.disk_accesses
        assert engine <= rstar


COLUMN_FIELDS = (
    "ids", "x", "y", "z", "e_low", "e_high", "parent", "child1", "child2",
    "wing1", "wing2", "conn_offsets", "conn_flat",
)


def _assert_same_columns(got, want) -> None:
    """Every array equal in dtype and values (infinities included)."""
    for name in COLUMN_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@st.composite
def random_columns(draw):
    """Columns of 0-300 rows with 0-20 connections each."""
    n = draw(st.integers(0, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 21, n)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    ints = np.iinfo(np.int32)

    def i32(size):
        return rng.integers(ints.min, ints.max, size, endpoint=True).astype(
            np.int32
        )

    e_high = rng.normal(size=n)
    e_high[rng.random(n) < 0.2] = np.inf
    return DMNodeColumns(
        ids=i32(n), x=rng.normal(size=n) * 1e6, y=rng.normal(size=n),
        z=rng.normal(size=n), e_low=rng.random(n), e_high=e_high,
        parent=i32(n), child1=i32(n), child2=i32(n), wing1=i32(n),
        wing2=i32(n), conn_offsets=offsets, conn_flat=i32(int(offsets[-1])),
    )


class TestBlobCodec:
    """The ``DMC2`` columnar blob: exact round trip, strict decode,
    aligned read-only views, and equality with the heap records'
    decode."""

    @common
    @given(random_columns())
    def test_roundtrip(self, columns):
        blob = encode_cluster_blob(columns)
        _assert_same_columns(decode_cluster_blob(blob), columns)
        # conn_flat, the blob's tail, starts on an 8-byte boundary.
        assert (len(blob) - 4 * columns.conn_flat.size) % 8 == 0

    def test_bad_magic_rejected(self):
        """A bad magic and a non-zero reserved word both refuse."""
        blob = bytearray(encode_cluster_blob(_columns(5)))
        bad_magic = bytearray(blob)
        bad_magic[:4] = b"DMC1"
        with pytest.raises(StorageError, match="magic"):
            decode_cluster_blob(bytes(bad_magic))
        blob[12] = 1
        with pytest.raises(StorageError, match="reserved"):
            decode_cluster_blob(bytes(blob))

    def test_truncation_rejected(self):
        """Every proper prefix of a blob refuses, odd and even ``n``."""
        for n in (0, 5, 8, 13):
            blob = encode_cluster_blob(_columns(n, seed=n))
            assert len(decode_cluster_blob(blob)) == n
            for size in range(len(blob)):
                with pytest.raises(StorageError):
                    decode_cluster_blob(blob[:size])

    def test_trailing_bytes_rejected(self):
        """A blob grown by one byte, of any value, refuses."""
        for n in (0, 5, 8, 13):
            blob = encode_cluster_blob(_columns(n, seed=n))
            for value in (0, 1, 255):
                with pytest.raises(StorageError):
                    decode_cluster_blob(blob + bytes([value]))

    def test_connection_count_mismatch_rejected(self):
        """``n_conn`` must sum to the header's entry count and never
        hold the record format's compressed-list sentinel."""
        columns = _columns(6, seed=1)
        blob = encode_cluster_blob(columns)
        n_conn_at = 16 + 64 * len(columns)
        shifted = bytearray(blob)
        shifted[n_conn_at] += 1
        with pytest.raises(StorageError, match="connections"):
            decode_cluster_blob(bytes(shifted))
        sentinel = bytearray(blob)
        sentinel[n_conn_at:n_conn_at + 2] = b"\xff\xff"
        with pytest.raises(StorageError, match="sentinel"):
            decode_cluster_blob(bytes(sentinel))

    def test_decoded_arrays_are_aligned_read_only_views(self):
        columns = _columns(33, seed=2)
        decoded = decode_cluster_blob(encode_cluster_blob(columns))
        for name in COLUMN_FIELDS:
            array = getattr(decoded, name)
            assert array.flags.aligned, name
            assert not array.flags.writeable, name
        _assert_same_columns(decoded, columns)

    def test_built_store_matches_the_heap_records(
        self, dataset, built, tmp_path
    ):
        """Every run decodes to exactly what the columnar decoder
        makes of the same nodes' payloads in the paper layout's heap."""
        _, store = built
        with Database(tmp_path / "paper") as db:
            heap = PaperLayoutStore.build(
                dataset.pm, db, dataset.connections
            ).heap
            payloads = {decode_dm_node(p).id: p for _, p in heap.scan()}
        for cid in range(len(store.clusters)):
            columns = store.clusters.decode(cid)
            heap = decode_dm_nodes_columnar(
                [payloads[i] for i in columns.ids.tolist()]
            )
            _assert_same_columns(columns, heap)

    @staticmethod
    def _old_store(path, version=1):
        """A store whose directory header says it is an older
        ``version``: 1 held ``DMC1`` blobs, 2 carried no row digests."""
        dataset = dataset_by_name("foothills", 300, seed=3)
        with Database(path) as db:
            DirectMeshStore.build(dataset.pm, db, dataset.connections)
        _reseal_header(path, 1, version)
        return path

    def test_version_1_store_refused_on_open(self, tmp_path):
        path = self._old_store(tmp_path / "v1")
        with Database(path) as db:
            with pytest.raises(StorageError, match="version 1.*rebuild"):
                DirectMeshStore.open(db)

    def test_version_2_store_refused_on_open(self, tmp_path):
        """A store built before the row digests is refused whole, not
        half-opened without them."""
        path = self._old_store(tmp_path / "v2", version=2)
        with Database(path) as db:
            with pytest.raises(StorageError, match="version 2.*rebuild"):
                DirectMeshStore.open(db)

    def test_cli_query_on_version_1_store_exits_1(self, tmp_path, capsys):
        """The CLI says to rebuild rather than print a traceback."""
        from repro.cli import main as cli_main

        path = self._old_store(tmp_path / "v1")
        assert cli_main(["query", str(path), "--lod", "1.0"]) == 1
        err = capsys.readouterr().err
        assert "version 1" in err and "rebuild" in err
        assert "Traceback" not in err


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
        extent = store.clusters.index.extent.rect
        explanation = explain(
            store, extent, lod=store.max_lod / 2, execute=True
        )
        view = explanation.cluster_view
        assert view is not None
        assert view.candidates > 0
        assert view.run_pages > 0
        # The selected clusters hold every record the execution
        # retrieved, and the overfetch is theirs over it.
        assert view.nodes >= explanation.retrieved > 0
        assert explanation.overfetch == view.nodes / explanation.retrieved
        # The same clusters the engine decodes for the same query.
        with QueryEngine(store, workers=1) as engine:
            outcome = engine.submit(
                UniformRequest(extent, store.max_lod / 2)
            ).result()
        assert outcome.metrics.clusters_touched == view.candidates
        assert outcome.metrics.nodes_decoded == view.nodes
        text = explanation.to_text()
        assert "cluster path" in text and "overfetch" in text


class TestClusterCacheRegions:
    """The epoch is the key, and a commit keeps only the clusters it
    left byte-identical."""

    def test_epoch_keys_do_not_collide(self):
        cache = ClusterCache(max_bytes=1 << 20)
        old, new = _columns(8), _columns(8, seed=9)
        cache.put(3, old, 0)
        cache.put(3, new, 1)
        assert cache.get(3, 0) is old
        assert cache.get(3, 1) is new

    def test_commit_leaves_no_older_epoch_resident(self, tmp_path):
        """No reader of epoch N + 1 can hit an entry of epoch N: a
        commit re-keys to N + 1 the decoded clusters it left
        byte-identical (each equal to its new run's decode) and drops
        every other entry."""
        db, ms, engine = mutable_engine(tmp_path)
        with db, engine:
            everything = UniformRequest(EXTENT, ms.store.max_lod)
            engine.submit(everything).result()
            old = ms.store.clusters.directory
            cache = engine.cluster_cache
            cached = [
                cid for cid in range(len(old)) if cache.get(cid, 0) is not None
            ]
            assert cached
            # A patch over one corner.
            ms.apply_patch(
                aligned_region(12, 12, 16, 16),
                patch_heights(12, 12, 16, 16, seed=5),
            )
            carried = unchanged_clusters(old, ms.store.clusters.directory)
            kept = [carried[cid] for cid in cached if cid in carried]
            assert 0 < len(carried) < len(old)
            assert len(cache) == len(kept)
            for cid in kept:
                columns = cache.get(cid, 1)
                assert columns is not None
                fresh = ms.store.clusters.decode(cid)
                assert columns.ids.tolist() == fresh.ids.tolist()
                assert columns.z.tolist() == fresh.z.tolist()
            assert all(cache.get(cid, 0) is None for cid in range(len(old)))
            engine.submit(everything).result()
            assert len(cache) > 0
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
            assert engine.epoch == 1
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
