"""Delta sessions over the query engine: manager, frames, composition.

The tentpole property of ISSUE 7 is exercised throughout: decoding
every frame client-side yields a mesh node-id-identical to a fresh
query for the same view — including the delta-algebra hypothesis
property, which replays arbitrary update sequences.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.openloop import (
    SESSION_TRANSPORTS,
    OpenLoopConfig,
    run_delta_sessions,
    validate_session_report,
)
from repro.core.admission import CostGovernor
from repro.core.cache import SemanticCache
from repro.core.engine import QueryEngine, UniformRequest
from repro.core.streaming import TerrainSession
from repro.core.wire import ClientMesh
from repro.errors import SessionError, TransientIOError
from repro.geometry.primitives import Rect
from repro.obs.metrics import MetricsRegistry
from repro.storage import FaultInjector
from tests.conftest import assert_same_rows, oracle_mesh


@pytest.fixture(scope="module")
def engine(session_db):
    with QueryEngine(
        session_db["dm"], workers=2, registry=MetricsRegistry()
    ) as eng:
        yield eng


def roi_at(dataset, frac, cx_frac, cy_frac):
    bounds = dataset.bounds()
    side = frac * min(bounds.width, bounds.height)
    x0 = bounds.min_x + cx_frac * (bounds.width - side)
    y0 = bounds.min_y + cy_frac * (bounds.height - side)
    return Rect(x0, y0, x0 + side, y0 + side)


class TestSessionManager:
    def test_lazy_singleton_on_engine(self, engine):
        assert engine.sessions() is engine.sessions()

    def test_open_get_close(self, engine):
        manager = engine.sessions()
        session = manager.open(tenant="tenant-0")
        assert manager.get(session.session_id) is session
        assert session.session_id in manager.ids()
        n_before = len(manager)
        manager.close(session.session_id)
        assert len(manager) == n_before - 1
        with pytest.raises(SessionError):
            manager.get(session.session_id)
        with pytest.raises(SessionError):
            manager.close(session.session_id)

    def test_duplicate_id_rejected(self, engine):
        manager = engine.sessions()
        manager.open(session_id="dup")
        try:
            with pytest.raises(SessionError):
                manager.open(session_id="dup")
        finally:
            manager.close("dup")

    def test_active_gauge_tracks_sessions(self, engine):
        manager = engine.sessions()
        session = manager.open()
        assert engine.registry.gauge("session.active").value == len(manager)
        manager.close(session.session_id)
        assert engine.registry.gauge("session.active").value == len(manager)


class TestEngineSession:
    def test_frames_reconstruct_fresh_queries(
        self, engine, session_db, hills_dataset
    ):
        store = session_db["dm"]
        lod = hills_dataset.pm.average_lod()
        manager = engine.sessions()
        session = manager.open(tenant="tenant-1")
        client = ClientMesh()
        try:
            for step in range(5):
                roi = roi_at(hills_dataset, 0.35, 0.1 * step, 0.05 * step)
                result = session.update(UniformRequest(roi, lod))
                frame = client.apply(result.payload)
                assert frame.keyframe == (step == 0)
                fresh = store.uniform_query(roi, lod)
                assert client.active_ids == set(fresh.nodes)
                assert client.active_ids == session.active_ids
                assert 0.0 <= result.delta.churn <= 1.0
        finally:
            manager.close(session.session_id)

    def test_flight_meshes_agree_every_frame(
        self, engine, session_db, hills_dataset
    ):
        """Client, session and oracle rebuild the same mesh: the wire
        client and the store-side session share the kernels (through
        the records packer) and both are held to the scalar oracle."""
        max_lod = hills_dataset.pm.max_lod()
        manager = engine.sessions()
        session = manager.open(tenant="flight")
        local = TerrainSession(session_db["dm"])
        client = ClientMesh()
        try:
            for frame in range(40):
                t = frame / 39
                roi = roi_at(hills_dataset, 0.3 + 0.2 * t, t, 0.5 + 0.4 * (t - 0.5))
                lod = (0.05 + 0.5 * t * (1 - t)) * max_lod
                client.apply(session.update(UniformRequest(roi, lod)).payload)
                local.update(roi, lod)
                assert client.active_ids == local.active_ids
                want_edges, want_triangles = oracle_mesh(client.records())
                for edges, triangles in (client.mesh(), local.mesh()):
                    assert_same_rows(edges, want_edges)
                    assert_same_rows(triangles, want_triangles)
        finally:
            manager.close(session.session_id)

    def test_session_metrics_flow(self, engine, hills_dataset):
        manager = engine.sessions()
        session = manager.open()
        try:
            roi = roi_at(hills_dataset, 0.3, 0.5, 0.5)
            session.update(
                UniformRequest(roi, hills_dataset.pm.average_lod())
            )
            counters = engine.registry.counters()
            assert counters["session.updates"] >= 1
            assert counters["session.bytes_wire"] > 0
        finally:
            manager.close(session.session_id)

    def test_resync_recovers_a_lost_client(self, engine, hills_dataset):
        lod = hills_dataset.pm.average_lod()
        manager = engine.sessions()
        session = manager.open()
        try:
            session.update(
                UniformRequest(roi_at(hills_dataset, 0.3, 0.2, 0.2), lod)
            )
            session.update(
                UniformRequest(roi_at(hills_dataset, 0.3, 0.4, 0.4), lod)
            )
            # A client that joined late (or dropped frames) resyncs.
            late = ClientMesh()
            late.apply(session.resync())
            assert late.active_ids == session.active_ids
        finally:
            manager.close(session.session_id)

    def test_failed_update_leaves_session_untouched(
        self, session_db, hills_dataset
    ):
        store = session_db["dm"]
        db = store.database
        lod = hills_dataset.pm.average_lod()
        with QueryEngine(
            store, workers=2, retries=0, registry=MetricsRegistry()
        ) as eng:
            session = eng.sessions().open()
            session.update(
                UniformRequest(roi_at(hills_dataset, 0.3, 0.1, 0.1), lod)
            )
            active = session.active_ids
            seq = session.next_seq
            db.set_fault_injector(FaultInjector(error_rate=1.0, seed=5))
            try:
                db.flush()  # Force physical reads so faults fire.
                with pytest.raises(TransientIOError):
                    session.update(
                        UniformRequest(
                            roi_at(hills_dataset, 0.3, 0.8, 0.8), lod
                        )
                    )
            finally:
                db.set_fault_injector(None)
            assert session.active_ids == active
            assert session.next_seq == seq
            assert eng.registry.counters()["session.errors"] == 1
            # The stream continues cleanly after the fault clears.
            result = session.update(
                UniformRequest(roi_at(hills_dataset, 0.3, 0.2, 0.2), lod)
            )
            client = ClientMesh()
            client.apply(session.resync())
            assert client.active_ids == session.active_ids
            assert result.frame.seq == seq

    def test_degraded_answers_are_flagged_frames(
        self, session_db, hills_dataset
    ):
        store = session_db["dm"]
        governor = CostGovernor(budget=0.5)
        with QueryEngine(
            store,
            workers=2,
            governor=governor,
            registry=MetricsRegistry(),
        ) as eng:
            session = eng.sessions().open(tenant="tenant-2")
            client = ClientMesh()
            result = session.update(
                UniformRequest(
                    roi_at(hills_dataset, 0.4, 0.5, 0.5),
                    hills_dataset.pm.average_lod(),
                )
            )
            assert result.outcome.degraded
            frame = client.apply(result.payload)
            assert frame.degraded
            assert client.active_ids == session.active_ids

    def test_cache_does_not_change_frames(self, session_db, hills_dataset):
        store = session_db["dm"]
        lod = hills_dataset.pm.average_lod()
        walk = [
            UniformRequest(roi_at(hills_dataset, 0.35, 0.1 * i, 0.1), lod)
            for i in range(4)
        ]
        meshes = []
        for cache in (None, SemanticCache(max_bytes=1 << 22)):
            with QueryEngine(
                store, workers=2, cache=cache, registry=MetricsRegistry()
            ) as eng:
                session = eng.sessions().open()
                client = ClientMesh()
                for request in walk:
                    client.apply(session.update(request).payload)
                meshes.append(client.active_ids)
        assert meshes[0] == meshes[1]


class TestDeltaVsNaiveTransport:
    """The byte and keyframe accounting of delta transport against
    stateless re-query, on a warm (3 % of the ROI per frame) and a
    churny (30 %) flight path: the warm walk must save the 5x in
    bytes that ISSUE 7 set, the churny one must merely win.
    ``verify=True`` also decodes every frame client-side and raises
    on divergence."""

    @pytest.mark.parametrize("step_frac, saving", [(0.03, 5.0), (0.3, 1.0)])
    def test_delta_ships_fewer_bytes_and_one_keyframe_per_session(
        self, session_db, step_frac, saving
    ):
        config = OpenLoopConfig(
            offered_rate=1.0,  # Closed-loop per frame; the rate is unused.
            n_requests=40,
            mode="flightpath",
            seed=11,
            roi_frac=0.35,
            step_frac=step_frac,
            lod_breathe=0.05,
            sessions=2,
        )
        runs = {}
        for transport in SESSION_TRANSPORTS:
            with QueryEngine(
                session_db["dm"], workers=2, registry=MetricsRegistry()
            ) as eng:
                runs[transport] = run_delta_sessions(
                    eng, config, transport, verify=True
                )
            assert validate_session_report(runs[transport].to_json()) == []
        delta, naive = runs["delta"], runs["naive"]
        assert saving * delta.bytes_wire < naive.bytes_wire
        assert delta.n_keyframes == config.sessions
        assert naive.n_keyframes == naive.n_frames == config.n_requests
        assert delta.churn_mean < 1.0 == naive.churn_mean


class TestDeltaAlgebra:
    """Replaying (added, removed) frames of any update sequence
    reconstructs exactly the fresh-query active set."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        steps=st.lists(
            st.tuples(
                st.floats(0.15, 0.5),   # ROI side fraction
                st.floats(0.0, 1.0),    # x position
                st.floats(0.0, 1.0),    # y position
                st.floats(0.05, 0.9),   # LOD fraction
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_replay_reconstructs_fresh_query(
        self, engine, session_db, hills_dataset, steps
    ):
        store = session_db["dm"]
        manager = engine.sessions()
        session = manager.open()
        client = ClientMesh()
        try:
            for frac, cx, cy, lod_frac in steps:
                roi = roi_at(hills_dataset, frac, cx, cy)
                lod = lod_frac * hills_dataset.pm.max_lod()
                result = session.update(UniformRequest(roi, lod))
                client.apply(result.payload)
                assert 0.0 <= result.delta.churn <= 1.0
            fresh = store.uniform_query(roi, lod)
            assert client.active_ids == set(fresh.nodes)
            # The spliced records materialise a mesh without help.
            edges, triangles = client.mesh()
            want_edges, want_triangles = oracle_mesh(client.records())
            assert_same_rows(edges, want_edges)
            assert_same_rows(triangles, want_triangles)
        finally:
            manager.close(session.session_id)
