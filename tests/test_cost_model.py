"""Tests for the R-tree cost model and multi-base optimiser."""

import math

import pytest

from repro.core.cost_model import RTreeCostModel
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Box3, Rect
from repro.index.rstar import RTreeNodeStats


def uniform_stats(n_nodes=100, extent=0.1):
    """Synthetic stats: n identical cubes of normalised side ``extent``."""
    w = h = d = extent
    return RTreeNodeStats(
        n_nodes=n_nodes,
        sum_w=n_nodes * w,
        sum_h=n_nodes * h,
        sum_d=n_nodes * d,
        sum_wh=n_nodes * w * h,
        sum_wd=n_nodes * w * d,
        sum_hd=n_nodes * h * d,
        sum_whd=n_nodes * w * h * d,
        data_space=Box3(0, 0, 0, 100, 100, 10),
    )


@pytest.fixture
def model():
    return RTreeCostModel(uniform_stats(), e_cap=10.0)


ROI = Rect(20, 20, 60, 60)


class TestEstimates:
    def test_formula_matches_hand_computation(self, model):
        # One query of normalised size (0.2, 0.2, 0.5) against 100
        # nodes of size 0.1: DA = 100 * 0.3 * 0.3 * 0.6.
        q = Box3(0, 0, 0, 20, 20, 5)
        assert model.estimate(q) == pytest.approx(100 * 0.3 * 0.3 * 0.6)

    def test_monotone_in_volume(self, model):
        small = Box3(0, 0, 0, 10, 10, 1)
        large = Box3(0, 0, 0, 50, 50, 5)
        assert model.estimate(small) < model.estimate(large)

    def test_plane_estimate_uses_cube(self, model):
        plane = QueryPlane(ROI, 1.0, 5.0)
        assert model.estimate_plane(plane) == pytest.approx(
            model.estimate(Box3.from_rect(ROI, 1.0, 5.0))
        )


class TestMultiBasePlan:
    def test_tilted_plane_splits(self, model):
        # A strongly tilted plane over a large ROI: splitting wins.
        plane = QueryPlane(ROI, 0.0, 8.0)
        plan = model.plan_multi_base(plane)
        assert plan.n_queries >= 2
        assert plan.estimated_da < plan.single_base_da
        assert plan.predicted_gain > 0

    def test_flat_plane_does_not_split(self, model):
        plane = QueryPlane(ROI, 2.0, 2.0)
        plan = model.plan_multi_base(plane)
        assert plan.n_queries == 1
        assert plan.predicted_gain == 0

    def test_strips_tile_roi(self, model):
        plane = QueryPlane(ROI, 0.0, 8.0)
        plan = model.plan_multi_base(plane)
        total = sum(s.roi.area for s in plan.strips)
        assert total == pytest.approx(ROI.area)
        # Strips chain along the viewing direction.
        ys = sorted((s.roi.min_y, s.roi.max_y) for s in plan.strips)
        assert ys[0][0] == ROI.min_y
        assert ys[-1][1] == ROI.max_y
        for (_, a_max), (b_min, _) in zip(ys, ys[1:]):
            assert a_max == pytest.approx(b_min)

    def test_depth_limit_respected(self, model):
        plane = QueryPlane(ROI, 0.0, 9.9)
        plan = model.plan_multi_base(plane, max_depth=2)
        assert plan.n_queries <= 4


class TestAgainstRealTree(object):
    def test_plan_reduces_real_disk_accesses(self, session_db, hills_dataset):
        db = session_db["db"]
        dm = session_db["dm"]
        ds = hills_dataset
        roi = ds.bounds().scaled(0.5)
        plane = QueryPlane(roi, ds.pm.max_lod() * 0.01, ds.pm.max_lod() * 0.9)
        plan = dm.cost_model.plan_multi_base(plane)
        db.begin_measured_query()
        dm.single_base_query(plane)
        single = db.disk_accesses
        db.begin_measured_query()
        dm.multi_base_query(plane)
        multi = db.disk_accesses
        if plan.n_queries > 1:
            assert multi <= single


class TestRunPageStats:
    """A store's cost model is formula (1) over its cluster extents,
    each weighted by the pages of its run: the estimate prices the run
    pages a range query reads."""

    def test_estimate_prices_run_pages(self, session_db):
        dm = session_db["dm"]
        space = dm.clusters.index.extent
        # Formula (1) for a query of the whole data space, by hand.
        want = sum(
            meta.n_pages
            * (1 + meta.box.width / space.width)
            * (1 + meta.box.height / space.height)
            * (1 + meta.box.depth / space.depth)
            for meta in dm.clusters.directory.clusters
        )
        assert dm.cost_model.estimate(space) == pytest.approx(want)

    def test_estimate_tracks_cold_run_pages(self, session_db, hills_dataset):
        db = session_db["db"]
        dm = session_db["dm"]
        space = dm.clusters.index.extent
        small = Box3.from_rect(space.rect.scaled(0.1), 0.0, 0.0)
        large = Box3.from_rect(space.rect, 0.0, dm.max_lod)
        assert dm.cost_model.estimate(small) < dm.cost_model.estimate(large)
        db.begin_measured_query()
        dm.single_base_query(QueryPlane(space.rect, 0.0, dm.max_lod))
        actual = db.disk_accesses
        # Within a loose factor of the run pages really read.
        assert 0.2 * actual <= dm.cost_model.estimate(large) <= 5 * actual

    @pytest.mark.parametrize("factor", [1.0, 3.0, float("inf")])
    def test_plane_is_priced_as_its_clamped_probe(self, session_db, factor):
        """A plane reaching past ``e_cap`` probes the clamped cube, and
        is priced as it: finite, and the same however far it reaches."""
        dm = session_db["dm"]
        roi = dm.clusters.index.extent.rect.scaled(0.5)
        e_min = 0.1 * dm.max_lod
        capped = dm.cost_model.estimate_plane(QueryPlane(roi, e_min, dm.e_cap))
        reaching = dm.cost_model.estimate_plane(
            QueryPlane(roi, e_min, factor * dm.e_cap)
        )
        assert math.isfinite(reaching)
        assert reaching == capped

    def test_empty_directory_has_no_stats(self):
        from repro.core.clusters import ClusterDirectory, ClusterIndex
        from repro.errors import StorageError

        empty = ClusterIndex(ClusterDirectory(1.0, 2.05, 128, []))
        with pytest.raises(StorageError):
            empty.extent_stats()

    def test_steep_plane_splits_with_lower_predicted_da(self, tmp_path):
        """A steep seeded plane over a built store: the planner splits
        it into strips, predicting fewer run pages than one cube, and
        the strips read no more run pages than the cube."""
        from repro.core.direct_mesh import DirectMeshStore
        from repro.storage.database import Database
        from repro.terrain import dataset_by_name

        dataset = dataset_by_name("foothills", 2000, seed=3)
        with Database(tmp_path / "db") as db:
            dm = DirectMeshStore.build(dataset.pm, db, dataset.connections)
            roi = dm.clusters.index.extent.rect.scaled(0.6)
            plane = QueryPlane(roi, 0.01 * dm.max_lod, 0.9 * dm.max_lod)
            plan = dm.cost_model.plan_multi_base(plane)
            assert plan.n_queries >= 2
            assert plan.estimated_da < plan.single_base_da
            db.begin_measured_query()
            dm.single_base_query(plane)
            single = db.disk_accesses
            db.begin_measured_query()
            dm.multi_base_query(plane, plan)
            assert db.disk_accesses <= single
