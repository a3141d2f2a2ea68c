"""Delta sessions over the query engine: manager, frames, composition.

The tentpole property of ISSUE 7 is exercised throughout: decoding
every frame client-side yields a mesh node-id-identical to a fresh
query for the same view — including the delta-algebra hypothesis
property, which replays arbitrary update sequences.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.openloop import OpenLoopConfig, flight_path_workload
from repro.core.admission import CostGovernor
from repro.core.cache import PATCH_LOG_LIMIT, SemanticCache
from repro.core.engine import QueryEngine, UniformRequest
from repro.core.streaming import EngineSession, TerrainSession
from repro.core.wire import FLAG_KEYFRAME, ClientMesh, DeltaFrame, encode_frame
from repro.errors import SessionError, TransientIOError
from repro.geometry.primitives import Rect
from repro.obs.metrics import MetricsRegistry
from repro.storage import FaultInjector
from tests.conftest import assert_same_rows, oracle_mesh
from tests.test_mutate import (
    EXTENT,
    aligned_region,
    mutable_engine,
    patch_heights,
)


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
        assert engine.registry.gauges()["session.active"] == len(manager)
        manager.close(session.session_id)
        assert engine.registry.gauges()["session.active"] == len(manager)


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
    bytes that ISSUE 7 set, the churny one must merely win.  The
    naive arm is the same answers keyframe-encoded whole; every delta
    frame is also decoded client-side and held to the answer."""

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
        workload = flight_path_workload(session_db["dm"], config)
        delta_bytes = naive_bytes = keyframes = 0
        with QueryEngine(
            session_db["dm"], workers=2, registry=MetricsRegistry()
        ) as eng:
            streams = [
                (EngineSession(eng, f"flight-{slot}"), ClientMesh())
                for slot in range(config.sessions)
            ]
            for index in range(config.n_requests):
                request, _ = next(workload)
                session, client = streams[index % config.sessions]
                result = session.update(request)
                client.apply(result.payload)
                nodes = result.outcome.result.nodes
                assert client.records() == nodes
                delta_bytes += len(result.payload)
                keyframes += result.frame.keyframe
                naive_bytes += len(
                    encode_frame(
                        DeltaFrame(
                            result.frame.seq,
                            tuple(nodes[i] for i in sorted(nodes)),
                            (),
                            FLAG_KEYFRAME,
                        )
                    )
                )
        assert saving * delta_bytes < naive_bytes
        assert keyframes == config.sessions


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


# -- commits reach every session through the engine ----------------------------


def test_unmanaged_session_keyframes_after_patch(tmp_path):
    """A session is correct however it was constructed: the patch
    history is the engine's, so a directly built ``EngineSession``
    hears of a commit exactly as a managed one does."""
    db, ms, engine = mutable_engine(tmp_path)
    with db, engine:
        streams = [
            (engine.sessions().open(), ClientMesh()),
            (EngineSession(engine, "x"), ClientMesh()),
        ]
        view = UniformRequest(EXTENT, ms.store.max_lod * 0.5)
        corner = UniformRequest(Rect(0.0, 0.0, 3.0, 3.0), ms.store.max_lod)

        def step(request):
            frames = []
            for session, client in streams:
                result = session.update(request)
                client.apply(result.payload)
                frames.append(result.frame)
            return frames

        step(view)
        ms.apply_patch(
            aligned_region(0, 0, 8, 8), patch_heights(0, 0, 8, 8, seed=2)
        )
        assert [frame.keyframe for frame in step(view)] == [True, True]
        fresh = engine.submit(view).result()
        assert fresh.metrics.epoch == 1
        for _, client in streams:
            assert client.records() == fresh.result.nodes

        # A patch outside the view leaves both streaming deltas.
        step(corner)
        ms.apply_patch(
            aligned_region(12, 12, 16, 16),
            patch_heights(12, 12, 16, 16, seed=5),
        )
        assert [frame.keyframe for frame in step(corner)] == [False, False]
        fresh = engine.submit(corner).result()
        for _, client in streams:
            assert client.records() == fresh.result.nodes


class TestPatchLog:
    """``QueryEngine.patched_since`` is the one patch history; a
    session's keyframe decision is a question put to it."""

    # Views and patch regions over the unit square, scaled to the
    # terrain; ``None`` is a whole-terrain commit.
    _CELLS = (
        (0.0, 0.0, 0.3, 0.3),
        (0.2, 0.2, 0.5, 0.5),
        (0.6, 0.6, 0.9, 0.9),
        (0.7, 0.0, 1.0, 0.3),
    )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("update"), st.integers(0, 2),
                          st.integers(0, 3)),
                st.tuples(st.just("commit"), st.integers(0, 4)),
                st.tuples(st.just("burst"), st.integers(0, 3)),
            ),
            min_size=1,
            max_size=14,
        )
    )
    def test_keyframe_iff_patched_since_previous_answer(
        self, session_db, hills_dataset, ops
    ):
        store = session_db["dm"]
        bounds = hills_dataset.bounds()
        lod = hills_dataset.pm.average_lod()

        def rect(cell):
            x0, y0, x1, y1 = self._CELLS[cell]
            return Rect(
                bounds.min_x + x0 * bounds.width,
                bounds.min_y + y0 * bounds.height,
                bounds.min_x + x1 * bounds.width,
                bounds.min_y + y1 * bounds.height,
            )

        commits = []  # every (epoch, region) ever installed
        with QueryEngine(store, workers=1) as engine:
            # One managed session, one built directly, and a third
            # that only updates when the draw says so (it sits idle
            # through any burst of PATCH_LOG_LIMIT + 1 commits).
            sessions = [
                engine.sessions().open(),
                EngineSession(engine, "direct"),
                EngineSession(engine, "idle"),
            ]
            previous = [None, None, None]  # (answer epoch, view)

            def commit(region):
                epoch = engine.epoch + 1
                engine.install_store(store, epoch, region)
                commits.append((epoch, region))

            for op in ops:
                if op[0] == "commit":
                    commit(None if op[1] == 4 else rect(op[1]))
                elif op[0] == "burst":
                    for _ in range(PATCH_LOG_LIMIT + 1):
                        commit(rect(op[1]))
                else:
                    _, slot, cell = op
                    frame = sessions[slot].update(
                        UniformRequest(rect(cell), lod)
                    ).frame
                    floor = (
                        commits[-PATCH_LOG_LIMIT - 1][0]
                        if len(commits) > PATCH_LOG_LIMIT
                        else 0
                    )
                    if previous[slot] is None:
                        expected = True  # Frame 0 always is.
                    else:
                        answered, view = previous[slot]
                        expected = answered < floor or any(
                            epoch > answered
                            and (region is None or region.intersects(view))
                            for epoch, region in commits
                        )
                    assert frame.keyframe == expected
                    previous[slot] = (engine.epoch, rect(cell))

    def test_floor_and_unknown_views_count_as_patched(self, session_db):
        store = session_db["dm"]
        far = Rect(0.0, 0.0, 1.0, 1.0)
        elsewhere = Rect(5.0, 5.0, 6.0, 6.0)
        with QueryEngine(store, workers=1, epoch=3) as engine:
            assert not engine.patched_since(3, None)
            assert engine.patched_since(2, elsewhere)  # Before the engine.
            engine.install_store(store, 4, far)
            assert engine.patched_since(3, far)
            assert engine.patched_since(3, None)  # Unknown view.
            assert not engine.patched_since(3, elsewhere)
            assert not engine.patched_since(4, far)
            for epoch in range(5, 5 + PATCH_LOG_LIMIT):
                engine.install_store(store, epoch, far)
            # Epoch 4's region fell off the log: 3 is below the floor.
            assert engine.patched_since(3, elsewhere)
            assert not engine.patched_since(4, elsewhere)

    def test_an_answers_epoch_always_finds_its_patch_logged(self, session_db):
        """``install_store`` replaces the log before it publishes the
        snapshot: a reader that sees epoch N (more readers than cores,
        a shortened switch interval) finds N's patch in the history,
        through any number of log overflows."""
        store = session_db["dm"]
        commits = 4 * PATCH_LOG_LIMIT
        region = Rect(0.0, 0.0, 1.0, 1.0)
        missed: list[int] = []
        done = threading.Event()

        def reader(engine):
            while not done.is_set():
                epoch = engine.epoch
                if epoch and not engine.patched_since(epoch - 1, region):
                    missed.append(epoch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryEngine(store, workers=1) as engine:
                readers = [
                    threading.Thread(target=reader, args=(engine,))
                    for _ in range(8)
                ]
                for thread in readers:
                    thread.start()
                try:
                    for epoch in range(1, commits + 1):
                        engine.install_store(store, epoch, region)
                finally:
                    done.set()
                    for thread in readers:
                        thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in readers)
                assert engine.epoch == commits
        finally:
            sys.setswitchinterval(interval)
        assert missed == []
