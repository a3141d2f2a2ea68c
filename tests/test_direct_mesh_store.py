"""Tests for the Direct Mesh store and query processors — the core."""

import pytest

from repro.core.direct_mesh import DirectMeshStore, epoch_files
from repro.errors import StorageError
from repro.geometry.plane import QueryPlane, max_angle
from repro.geometry.predicates import orient2d
from repro.mesh.selective import uniform_query_ref, viewdep_query_ref
from repro.storage.database import STORAGE_META_FILENAME, Database


@pytest.fixture
def setup(session_db, hills_dataset):
    return session_db["db"], session_db["dm"], hills_dataset


class TestUniformQuery:
    def test_matches_reference_across_lods(self, setup):
        db, store, ds = setup
        roi = ds.bounds().scaled(0.35)
        for fraction in (0.0, 0.02, 0.1, 0.4, 0.9):
            lod = ds.pm.max_lod() * fraction
            result = store.uniform_query(roi, lod)
            assert set(result.nodes) == uniform_query_ref(ds.pm, roi, lod), (
                f"mismatch at lod fraction {fraction}"
            )

    def test_no_extraneous_records(self, setup):
        # The headline claim: the plane query retrieves (almost) only
        # the answer.  Boundary effects allow a small overshoot.
        db, store, ds = setup
        roi = ds.bounds().scaled(0.4)
        result = store.uniform_query(roi, ds.pm.average_lod())
        assert result.retrieved <= len(result.nodes) * 1.2 + 5

    def test_small_roi(self, setup):
        db, store, ds = setup
        bounds = ds.bounds()
        roi = ds.roi_for_fraction(0.01, bounds.center.x, bounds.center.y)
        lod = ds.pm.average_lod()
        result = store.uniform_query(roi, lod)
        assert set(result.nodes) == uniform_query_ref(ds.pm, roi, lod)

    def test_rejects_negative_lod(self, setup):
        from repro.errors import QueryError

        _, store, ds = setup
        with pytest.raises(QueryError):
            store.uniform_query(ds.bounds(), -1.0)


class TestMeshReconstruction:
    def test_edges_connect_result_nodes_only(self, setup):
        _, store, ds = setup
        roi = ds.bounds().scaled(0.4)
        result = store.uniform_query(roi, ds.pm.average_lod())
        ids = set(result.nodes)
        for a, b in result.edges().tolist():
            assert a in ids and b in ids

    def test_edge_counts_planar(self, setup):
        _, store, ds = setup
        roi = ds.bounds().scaled(0.5)
        result = store.uniform_query(roi, ds.pm.average_lod())
        v = len(result.nodes)
        e = len(result.edges())
        assert e <= 3 * v - 6
        assert e >= v - 1  # Connected-ish within the ROI.

    def test_triangles_are_valid(self, setup):
        _, store, ds = setup
        roi = ds.bounds().scaled(0.4)
        result = store.uniform_query(roi, ds.pm.average_lod())
        tris = result.triangles().tolist()
        assert tris
        edges = set(map(tuple, result.edges().tolist()))
        for a, b, c in tris:
            assert len({a, b, c}) == 3
            for u, v in ((a, b), (b, c), (a, c)):
                assert ((u, v) if u < v else (v, u)) in edges

    def test_triangles_nondegenerate(self, setup):
        _, store, ds = setup
        roi = ds.bounds().scaled(0.4)
        result = store.uniform_query(roi, ds.pm.average_lod())
        degenerate = 0
        for a, b, c in result.triangles().tolist():
            na, nb, nc = (result.nodes[i] for i in (a, b, c))
            if orient2d(na.x, na.y, nb.x, nb.y, nc.x, nc.y) == 0:
                degenerate += 1
        assert degenerate == 0

    def test_vertex_mesh_export(self, setup):
        _, store, ds = setup
        roi = ds.bounds().scaled(0.3)
        result = store.uniform_query(roi, ds.pm.average_lod())
        vertices, triangles = result.vertex_mesh()
        assert len(vertices) == len(result.nodes)
        for tri in triangles.tolist():
            assert all(0 <= idx < len(vertices) for idx in tri)


class TestViewdepQueries:
    @pytest.mark.parametrize("angle_fraction", [0.1, 0.5, 0.9])
    def test_single_base_matches_reference(self, setup, angle_fraction):
        db, store, ds = setup
        roi = ds.bounds().scaled(0.35)
        theta = max_angle(store.max_lod, roi.height)
        plane = QueryPlane.from_angle(
            roi, ds.pm.max_lod() * 0.02, theta * angle_fraction
        )
        result = store.single_base_query(plane)
        assert set(result.nodes) == viewdep_query_ref(ds.pm, plane)

    def test_multi_base_equals_single_base(self, setup):
        db, store, ds = setup
        roi = ds.bounds().scaled(0.45)
        theta = max_angle(store.max_lod, roi.height)
        plane = QueryPlane.from_angle(
            roi, ds.pm.max_lod() * 0.01, theta * 0.6
        )
        sb = store.single_base_query(plane)
        mb = store.multi_base_query(plane)
        assert set(sb.nodes) == set(mb.nodes)
        assert mb.n_range_queries >= 1
        assert mb.plan is not None

    def test_multi_base_arbitrary_direction(self, setup):
        db, store, ds = setup
        roi = ds.bounds().scaled(0.3)
        plane = QueryPlane(
            roi,
            ds.pm.max_lod() * 0.02,
            ds.pm.max_lod() * 0.5,
            direction=(0.8, -0.6),
        )
        mb = store.multi_base_query(plane)
        assert set(mb.nodes) == viewdep_query_ref(ds.pm, plane)

    def test_single_base_retrieves_more_than_needed(self, setup):
        # The cube fetches the whole LOD range; the plane filter keeps
        # a subset — this is the volume multi-base attacks.
        db, store, ds = setup
        roi = ds.bounds().scaled(0.4)
        plane = QueryPlane(roi, 0.0, ds.pm.max_lod() * 0.8)
        result = store.single_base_query(plane)
        assert result.retrieved > len(result.nodes)


class TestDiskAccessOrdering:
    def test_dm_beats_pm_cold(self, session_db, hills_dataset):
        db = session_db["db"]
        dm = session_db["dm"]
        pm_store = session_db["pm"]
        ds = hills_dataset
        roi = ds.bounds().scaled(0.35)
        lod = ds.pm.average_lod()
        db.begin_measured_query()
        dm.uniform_query(roi, lod)
        dm_da = db.disk_accesses
        db.begin_measured_query()
        pm_store.uniform_query(roi, lod)
        pm_da = db.disk_accesses
        assert dm_da < pm_da

    def test_warm_buffer_cheaper(self, setup):
        db, store, ds = setup
        roi = ds.bounds().scaled(0.3)
        lod = ds.pm.average_lod()
        db.begin_measured_query()
        store.uniform_query(roi, lod)
        cold = db.disk_accesses
        db.stats.reset()  # Keep the buffer warm this time.
        store.uniform_query(roi, lod)
        warm = db.disk_accesses
        assert warm < cold


class TestLifecycle:
    def test_build_report(self, setup):
        _, store, ds = setup
        report = store.build_report
        assert report is not None
        assert report.n_nodes == len(ds.pm.nodes)
        assert 4 <= report.avg_connections <= 30
        assert report.cluster_pages == store.database.segment_pages("dm_cruns")
        assert report.cluster_pages > 0

    def test_reopen(self, tmp_path, hills_dataset):
        with Database(tmp_path / "db") as db:
            DirectMeshStore.build(
                hills_dataset.pm, db, hills_dataset.connections
            )
        with Database(tmp_path / "db") as db:
            store = DirectMeshStore.open(db)
            roi = hills_dataset.bounds().scaled(0.25)
            lod = hills_dataset.pm.average_lod()
            assert set(store.uniform_query(roi, lod).nodes) == (
                uniform_query_ref(hills_dataset.pm, roi, lod)
            )

    def test_open_missing(self, fresh_db):
        with pytest.raises(StorageError):
            DirectMeshStore.open(fresh_db)

    def test_open_without_its_rtree_refuses(self, tmp_path, hills_dataset):
        """A store whose R*-tree segment is gone does not open (and
        writes nothing): probing a fresh empty tree would answer every
        query with an empty mesh."""
        path = tmp_path / "db"
        with Database(path) as db:
            DirectMeshStore.build(
                hills_dataset.pm, db, hills_dataset.connections
            )
        (path / "dm_ctree.seg").unlink()
        with Database(path) as db:
            with pytest.raises(StorageError, match="dm_ctree.*rebuild"):
                DirectMeshStore.open(db)
        assert not (path / "dm_ctree.seg").exists()

    def test_directory_holds_exactly_the_epoch_files(
        self, tmp_path, hills_dataset
    ):
        """A store is its run segment (the directory, then the cluster
        runs) and the R*-tree over their extents, as :func:`epoch_files`
        names them, beside the page-format flag: no sidecar, no record
        heap, no per-node R*-tree, no id B+-tree, no other file."""
        with Database(tmp_path / "db") as db:
            DirectMeshStore.build(
                hills_dataset.pm, db, hills_dataset.connections
            )
        files = epoch_files("dm")
        assert files.segments == ("dm_cruns", "dm_ctree")
        assert {p.name for p in (tmp_path / "db").iterdir()} == {
            *(f"{name}.seg" for name in files.segments),
            STORAGE_META_FILENAME,
        }

    def test_btree_segment_of_an_older_build_is_ignored(
        self, tmp_path, hills_dataset
    ):
        """A directory an older build left, with its ``dm_btree.seg``
        id index (and the record heap and per-node R*-tree beside it),
        opens, serves and scrubs clean: the files are ignored, not
        migrated."""
        from repro.baselines.paper_layout import PaperLayoutStore
        from repro.core.engine import QueryEngine, UniformRequest
        from repro.index.btree import BPlusTree
        from repro.storage.integrity import scrub_database
        from repro.storage.record import decode_dm_node

        path = tmp_path / "db"
        with Database(path) as db:
            DirectMeshStore.build(
                hills_dataset.pm, db, hills_dataset.connections
            )
            with db.atomic():
                older = PaperLayoutStore.build(
                    hills_dataset.pm, db, hills_dataset.connections,
                    prefix="dm",
                )
                BPlusTree(db.segment("dm_btree")).bulk_load(
                    sorted(
                        (decode_dm_node(payload).id, rid)
                        for rid, payload in older.heap.scan()
                    )
                )
        for name in ("nodes", "rtree", "btree"):
            assert (path / f"dm_{name}.seg").stat().st_size > 0
        roi = hills_dataset.bounds().scaled(0.3)
        lod = hills_dataset.pm.average_lod()
        expected = uniform_query_ref(hills_dataset.pm, roi, lod)
        with Database(path) as db:
            store = DirectMeshStore.open(db)
            assert set(store.uniform_query(roi, lod).nodes) == expected
            with QueryEngine(store, workers=1) as engine:
                outcome = engine.submit(UniformRequest(roi, lod)).result()
            assert set(outcome.result.nodes) == expected
            assert scrub_database(db).ok


class TestRadialViewerModel:
    """The f(m.e, d) <= E extension: radial LOD fields end to end."""

    def make_field(self, ds, roi):
        from repro.geometry.plane import RadialLodField

        return RadialLodField(
            roi,
            viewer=(roi.center.x, roi.min_y - roi.height * 0.2),
            rate=ds.pm.max_lod() / (roi.height * 3),
            e_min=ds.pm.lod_percentile(0.3),
            e_max=ds.pm.max_lod(),
        )

    def test_single_base_matches_reference(self, setup):
        _, store, ds = setup
        roi = ds.bounds().scaled(0.4)
        field = self.make_field(ds, roi)
        result = store.single_base_query(field)
        assert set(result.nodes) == viewdep_query_ref(ds.pm, field)

    def test_multi_base_matches_reference(self, setup):
        _, store, ds = setup
        roi = ds.bounds().scaled(0.4)
        field = self.make_field(ds, roi)
        result = store.multi_base_query(field)
        assert set(result.nodes) == viewdep_query_ref(ds.pm, field)

    def test_pm_baseline_handles_radial(self, session_db, hills_dataset):
        ds = hills_dataset
        roi = ds.bounds().scaled(0.35)
        field = self.make_field(ds, roi)
        result = session_db["pm"].viewdep_query(field)
        assert set(result.nodes) == viewdep_query_ref(ds.pm, field)

    def test_density_decays_with_distance(self, setup):
        _, store, ds = setup
        roi = ds.bounds().scaled(0.5)
        field = self.make_field(ds, roi)
        result = store.multi_base_query(field)
        near = [
            r for r in result.nodes.values()
            if r.y < roi.min_y + roi.height * 0.3
        ]
        far = [
            r for r in result.nodes.values()
            if r.y > roi.max_y - roi.height * 0.3
        ]
        assert len(near) > len(far)
