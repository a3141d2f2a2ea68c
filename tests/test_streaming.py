"""Progressive terrain streaming: a delta session over the engine.

Each update is served by :class:`EngineSession` and spliced by a
:class:`ClientMesh`, and the client's mesh is held to the paper's
query processors view by view.
"""

import pytest

from repro.core.engine import QueryEngine, SingleBaseRequest, UniformRequest
from repro.core.streaming import EngineSession
from repro.core.wire import ClientMesh
from repro.errors import QueryError
from repro.geometry.plane import QueryPlane, RadialLodField
from repro.geometry.primitives import Rect
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def engine(session_db):
    with QueryEngine(
        session_db["dm"], workers=2, registry=MetricsRegistry()
    ) as eng:
        yield eng


@pytest.fixture
def session(engine):
    return EngineSession(engine, "test")


class Broken(UniformRequest):
    """A view whose evaluation fails after its clusters are fetched."""

    def filter(self, columns):
        raise QueryError("broken view")


def radial_view(dataset, step):
    """A radial viewer over a fixed ROI, moved ``step`` ROI heights
    from the ROI's near edge.  The LOD reaches the dataset's 70th
    percentile one ROI height away (a couple of hundred nodes)."""
    bounds = dataset.bounds()
    roi = bounds.scaled(0.5)
    return SingleBaseRequest(
        RadialLodField(
            roi,
            viewer=(bounds.center.x, bounds.min_y + step * roi.height),
            rate=dataset.pm.lod_percentile(0.7) / roi.height,
            e_min=0.0,
            e_max=dataset.pm.max_lod(),
        )
    )


class TestFirstUpdate:
    def test_everything_added(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.3)
        lod = hills_dataset.pm.average_lod()
        update = session.update(UniformRequest(roi, lod))
        delta = update.delta
        assert update.frame.keyframe
        assert delta.kept == 0
        assert delta.removed == []
        assert len(delta.added) == len(session.active_ids)
        assert delta.churn == 1.0
        assert len(update.payload) > 0
        assert update.outcome.metrics.pages_read > 0

    def test_mesh_materialises(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.4)
        client = ClientMesh()
        request = UniformRequest(roi, hills_dataset.pm.average_lod())
        client.apply(session.update(request).payload)
        edges, triangles = client.mesh()
        assert len(edges) > 0 and edges.shape[1] == 2
        assert len(triangles) > 0 and triangles.shape[1] == 3


class TestIncrementalUpdates:
    def test_same_view_is_free_churn(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.3)
        request = UniformRequest(roi, hills_dataset.pm.average_lod())
        session.update(request)
        delta = session.update(request).delta
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
        session.update(UniformRequest(roi1, lod))
        delta = session.update(UniformRequest(roi2, lod)).delta
        assert delta.kept > 0
        assert 0.0 < delta.churn < 1.0
        # Removed nodes must be those that left the ROI.
        for node_id in delta.removed:
            assert node_id not in session.active_ids

    def test_lod_refinement_adds_detail(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.3)
        coarse = hills_dataset.pm.max_lod() * 0.4
        fine = hills_dataset.pm.max_lod() * 0.05
        session.update(UniformRequest(roi, coarse))
        n_coarse = len(session.active_ids)
        delta = session.update(UniformRequest(roi, fine)).delta
        assert len(session.active_ids) > n_coarse
        assert delta.added

    def test_active_matches_store_query(self, session, session_db,
                                         hills_dataset):
        roi = hills_dataset.bounds().scaled(0.35)
        lod = hills_dataset.pm.average_lod()
        session.update(UniformRequest(roi, lod))
        direct = session_db["dm"].uniform_query(roi, lod)
        assert session.active_ids == set(direct.nodes)


class TestMeasurementBracket:
    """A failed update changes neither the session nor anyone else's
    counters."""

    def test_failed_update_leaves_state_untouched(
        self, session, hills_dataset
    ):
        roi = hills_dataset.bounds().scaled(0.3)
        lod = hills_dataset.pm.average_lod()
        session.update(UniformRequest(roi, lod))
        active, seq = session.active_ids, session.next_seq
        with pytest.raises(QueryError):
            session.update(Broken(roi, lod))
        assert session.active_ids == active
        assert session.next_seq == seq

    def test_failed_update_does_not_clobber_external_measurement(
        self, session, session_db, hills_dataset
    ):
        # A session update never resets the database's counters, so a
        # measurement an outer caller has open keeps its counts.  The
        # view's clusters are resident first, so the failed update
        # itself reads nothing.
        store = session_db["dm"]
        db = store.database
        roi = hills_dataset.bounds().scaled(0.3)
        lod = hills_dataset.pm.average_lod()
        session.update(UniformRequest(roi, lod))
        db.flush()
        db.begin_measured_query()
        store.uniform_query(roi, lod)
        external = db.disk_accesses
        assert external > 0
        with pytest.raises(QueryError):
            session.update(Broken(roi, lod))
        assert db.disk_accesses == external

    def test_attribution_matches_a_never_failed_session(
        self, session_db, hills_dataset
    ):
        # A failed update between two good ones must not leak its
        # accounting into the next: the victim's post-failure update
        # reports the same pages read as a control session (on an
        # engine of its own) that never failed.
        store = session_db["dm"]
        lod = hills_dataset.pm.average_lod()
        roi1 = hills_dataset.bounds().scaled(0.3)
        roi2 = hills_dataset.bounds().scaled(0.45)
        with QueryEngine(store, workers=1) as first, QueryEngine(
            store, workers=1
        ) as second:
            control = EngineSession(first, "control")
            victim = EngineSession(second, "victim")
            control.update(UniformRequest(roi1, lod))
            victim.update(UniformRequest(roi1, lod))
            with pytest.raises(QueryError):
                victim.update(Broken(roi1, lod))
            after_failure = victim.update(UniformRequest(roi2, lod))
            never_failed = control.update(UniformRequest(roi2, lod))
        pages = after_failure.outcome.metrics.pages_read
        assert pages == never_failed.outcome.metrics.pages_read
        assert after_failure.delta.churn == never_failed.delta.churn


class TestViewdepStreaming:
    def test_plane_view(self, session, hills_dataset):
        roi = hills_dataset.bounds().scaled(0.4)
        plane = QueryPlane(
            roi,
            hills_dataset.pm.lod_percentile(0.5),
            hills_dataset.pm.max_lod() * 0.8,
        )
        assert session.update(SingleBaseRequest(plane)).delta.added

    def test_walking_viewer_low_churn(self, session, hills_dataset):
        # A small camera step should reuse most of the mesh.
        session.update(radial_view(hills_dataset, 0.0))
        delta = session.update(radial_view(hills_dataset, 0.05)).delta
        assert delta.churn < 0.5

    def test_walking_viewer_matches_the_processors(
        self, session, session_db, hills_dataset
    ):
        """Every step of a radial walk leaves the client holding the
        nodes of the paper's multi-base query for that view."""
        store = session_db["dm"]
        client = ClientMesh()
        for step in range(6):
            request = radial_view(hills_dataset, 0.04 * step)
            client.apply(session.update(request).payload)
            want = set(store.multi_base_query(request.plane).nodes)
            assert client.active_ids == want
            assert session.active_ids == want

    def test_resent_view_has_zero_churn(self, session, hills_dataset):
        request = radial_view(hills_dataset, 0.1)
        session.update(request)
        delta = session.update(request).delta
        assert (delta.added, delta.removed, delta.churn) == ([], [], 0.0)

    def test_small_steps_churn_less_than_large(self, engine, hills_dataset):
        churn = {}
        for step in (0.02, 0.3):
            session = EngineSession(engine, f"step-{step}")
            session.update(radial_view(hills_dataset, 0.0))
            update = session.update(radial_view(hills_dataset, step))
            churn[step] = update.delta.churn
        assert 0.0 < churn[0.02] < churn[0.3]
