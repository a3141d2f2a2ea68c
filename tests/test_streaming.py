"""Tests for progressive terrain streaming sessions."""

import pytest

from repro.core.streaming import TerrainSession
from repro.errors import QueryError
from repro.geometry.plane import QueryPlane, RadialLodField
from repro.geometry.primitives import Rect


@pytest.fixture
def session(session_db):
    return TerrainSession(session_db["dm"])


class TestFirstUpdate:
    def test_everything_added(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.3)
        lod = hills_dataset.pm.average_lod()
        delta = session.update(roi, lod)
        assert delta.kept == 0
        assert delta.removed == []
        assert len(delta.added) == len(session.active_ids)
        assert delta.churn == 1.0
        assert delta.bytes_added > 0
        assert delta.disk_accesses > 0

    def test_mesh_materialises(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.4)
        session.update(roi, hills_dataset.pm.average_lod())
        edges, triangles = session.mesh()
        assert len(edges) > 0 and edges.shape[1] == 2
        assert len(triangles) > 0 and triangles.shape[1] == 3

    def test_requires_lod_for_rect(self, session, hills_dataset):
        with pytest.raises(QueryError):
            session.update(hills_dataset.bounds())

    def test_rejects_unknown_view(self, session):
        with pytest.raises(QueryError):
            session.update(42)


class TestIncrementalUpdates:
    def test_same_view_is_free_churn(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.3)
        lod = hills_dataset.pm.average_lod()
        session.update(roi, lod)
        delta = session.update(roi, lod)
        assert delta.added == []
        assert delta.removed == []
        assert delta.churn == 0.0
        assert delta.kept == len(session.active_ids)

    def test_overlapping_view_reuses(self, session, hills_dataset):
        bounds = hills_dataset.bounds()
        lod = hills_dataset.pm.average_lod()
        roi1 = hills_dataset.roi_for_fraction(
            0.2, bounds.center.x, bounds.center.y
        )
        shift = roi1.width * 0.2
        roi2 = Rect(
            roi1.min_x + shift, roi1.min_y, roi1.max_x + shift, roi1.max_y
        )
        session.update(roi1, lod)
        delta = session.update(roi2, lod)
        assert delta.kept > 0
        assert 0.0 < delta.churn < 1.0
        # Removed nodes must be those that left the ROI.
        for node_id in delta.removed:
            assert node_id not in session.active_ids

    def test_lod_refinement_adds_detail(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.3)
        coarse = hills_dataset.pm.max_lod() * 0.4
        fine = hills_dataset.pm.max_lod() * 0.05
        session.update(roi, coarse)
        n_coarse = len(session.active_ids)
        delta = session.update(roi, fine)
        assert len(session.active_ids) > n_coarse
        assert delta.added

    def test_active_matches_store_query(self, session, session_db,
                                         hills_dataset):
        roi = hills_dataset.bounds().scaled(0.35)
        lod = hills_dataset.pm.average_lod()
        session.update(roi, lod)
        direct = session_db["dm"].uniform_query(roi, lod)
        assert session.active_ids == set(direct.nodes)

    def test_reset_clears_the_view(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.2)
        lod = hills_dataset.pm.average_lod()
        session.update(roi, lod)
        session.update(roi, lod)
        assert session.active_ids
        session.reset()
        assert session.active_ids == set()


class TestMeasurementBracket:
    """Regression tests for the ISSUE 7 exception-unsafe bracket."""

    def test_failed_update_leaves_state_untouched(
        self, session, hills_dataset
    ):
        roi = hills_dataset.bounds().scaled(0.3)
        lod = hills_dataset.pm.average_lod()
        session.update(roi, lod)
        active = session.active_ids
        with pytest.raises(QueryError):
            session.update(42)
        assert session.active_ids == active

    def test_failed_update_does_not_clobber_external_measurement(
        self, session_db, hills_dataset
    ):
        # The old bracket called begin_measured_query() *before*
        # evaluating the view, so a raise reset the global disk
        # counters and whatever measurement an outer caller had open
        # lost its counts.  The probe-scoped bracket must not.
        store = session_db["dm"]
        db = store.database
        streaming_session = TerrainSession(store)
        roi = hills_dataset.bounds().scaled(0.3)
        lod = hills_dataset.pm.average_lod()
        db.begin_measured_query()
        store.uniform_query(roi, lod)
        external = db.disk_accesses
        assert external > 0
        with pytest.raises(QueryError):
            streaming_session.update(42)
        assert db.disk_accesses == external

    def test_attribution_matches_a_never_failed_session(
        self, session_db, hills_dataset
    ):
        # A failed update between two good ones must not leak its
        # accounting into the next: the victim's post-failure update
        # reports the same disk accesses as a control session that
        # never failed.
        store = session_db["dm"]
        lod = hills_dataset.pm.average_lod()
        roi1 = hills_dataset.bounds().scaled(0.3)
        roi2 = hills_dataset.bounds().scaled(0.45)
        control = TerrainSession(store)
        victim = TerrainSession(store)
        control.update(roi1, lod)
        victim.update(roi1, lod)
        with pytest.raises(QueryError):
            victim.update(object())
        assert (
            victim.update(roi2, lod).disk_accesses
            == control.update(roi2, lod).disk_accesses
        )


class TestViewdepStreaming:
    def test_plane_view(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.4)
        plane = QueryPlane(
            roi,
            hills_dataset.pm.lod_percentile(0.5),
            hills_dataset.pm.max_lod() * 0.8,
        )
        delta = session.update(plane)
        assert delta.added

    def test_walking_viewer_low_churn(self, session, hills_dataset):
        # A small camera step should reuse most of the mesh.
        ds = hills_dataset
        bounds = ds.bounds()
        roi = bounds.scaled(0.5)
        rate = ds.pm.max_lod() / (roi.height * 2)

        def view(vy):
            return RadialLodField(
                roi,
                viewer=(bounds.center.x, vy),
                rate=rate,
                e_min=ds.pm.lod_percentile(0.4),
                e_max=ds.pm.max_lod(),
            )

        session.update(view(bounds.min_y))
        delta = session.update(view(bounds.min_y + roi.height * 0.05))
        assert delta.churn < 0.5
