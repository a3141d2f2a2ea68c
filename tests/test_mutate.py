"""Live terrain mutation: parity, epochs, and the kill-anywhere matrix.

The contract under test (ISSUE 10):

* **Parity** — a store patched in place is node-id-identical to a
  store rebuilt from scratch on the patched DEM (the tile-
  deterministic pipeline makes subtree recomputation exact, not
  approximate).
* **Epoch snapshots** — readers pin ``(store, epoch)`` per request;
  commits swap the snapshot, invalidate exactly the overlapping cache
  state, and force keyframe resyncs on overlapping sessions.
* **Kill-anywhere** — a simulated crash at *every* WAL record
  boundary and page write (optionally with torn/bitflip damage to the
  staged pages) recovers to exactly the pre- or post-patch snapshot,
  never a hybrid.
"""

import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cache import SemanticCache
from repro.core.direct_mesh import epoch_files
from repro.core.engine import QueryEngine, UniformRequest
from repro.core.mutate import MutableStore, plan_tiles
from repro.core.streaming import EngineSession
from repro.errors import MutationError, PatchError
from repro.geometry.primitives import Rect
from repro.storage.database import (
    STORAGE_META_FILENAME,
    Database,
    epoch_prefix,
)
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.integrity import (
    inject_corruption,
    repair_database,
    scrub_database,
)
from repro.storage.wal import WriteAheadLog
from tests.test_wal import logged_patch_header

GRID = 17
CELL = 1.0
TILE_VERTS = 9  # 2x2 tiles over a 17x17 grid.
EXTENT = Rect(0.0, 0.0, (GRID - 1) * CELL, (GRID - 1) * CELL)


def make_dem(seed: int = 0):
    from repro.terrain.dem import DEM
    from repro.terrain.gridfield import GridField

    rng = np.random.default_rng(seed)
    heights = rng.uniform(0.0, 30.0, (GRID, GRID))
    return DEM(GridField(heights.tolist(), cell_size=CELL))


def clone_dem(dem):
    from repro.terrain.dem import DEM
    from repro.terrain.gridfield import GridField

    return DEM(
        GridField(
            dem.field.heights.copy().tolist(),
            cell_size=dem.field.cell_size,
            origin=dem.field.origin,
        )
    )


def aligned_region(r0: int, c0: int, r1: int, c1: int) -> Rect:
    """A grid-aligned patch region over sample rows/cols (inclusive)."""
    return Rect(c0 * CELL, r0 * CELL, c1 * CELL, r1 * CELL)


def patch_heights(r0: int, c0: int, r1: int, c1: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 30.0, (r1 - r0 + 1, c1 - c0 + 1))


def mutable_engine(tmp_path, seed: int = 4, workers: int = 2, **engine_args):
    """A small mutable store with an engine attached."""
    db = Database(tmp_path / "db")
    ms = MutableStore.build(
        make_dem(seed), db, tile_verts=TILE_VERTS
    )
    engine = QueryEngine(
        ms.store, epoch=ms.epoch, workers=workers, **engine_args
    )
    ms.attach(engine)
    return db, ms, engine


def store_digest(store) -> dict:
    """Every record's full identity, keyed by node id."""
    digest = {}
    clusters = store.clusters
    for record in (
        r for cid in range(len(clusters)) for r in clusters.decode(cid).records()
    ):
        digest[record.id] = (
            record.x,
            record.y,
            record.z,
            record.e_low,
            record.e_high,
            record.parent,
            record.child1,
            record.child2,
            record.wing1,
            record.wing2,
            tuple(record.connections),
        )
    return digest


def crash_process(db: Database) -> None:
    """Process death: dirty buffers lost, descriptors dropped."""
    db.buffer._frames.clear()
    for pager in db._pagers.values():
        pager.close()
    db._pagers.clear()
    db._closed = True


# -- parity ------------------------------------------------------------------


class TestParity:
    """Patched store == rebuilt-from-scratch store, node for node."""

    def _build(self, tmp_path, dem, name):
        db = Database(tmp_path / name)
        return db, MutableStore.build(
            dem, db, tile_verts=TILE_VERTS
        )

    def test_single_patch_parity(self, tmp_path):
        dem = make_dem(0)
        db, ms = self._build(tmp_path, clone_dem(dem), "live")
        region = aligned_region(4, 4, 8, 8)
        heights = patch_heights(4, 4, 8, 8, seed=1)
        report = ms.apply_patch(region, heights)
        assert report.to_epoch == 1

        patched = clone_dem(dem)
        patched.apply_patch(region, heights)
        db2, fresh = self._build(tmp_path, patched, "scratch")
        assert store_digest(ms.store) == store_digest(fresh.store)
        db.close()
        db2.close()

    def test_sequential_patches_and_reopen(self, tmp_path):
        dem = make_dem(3)
        live_dem = clone_dem(dem)
        db, ms = self._build(tmp_path, live_dem, "live")
        windows = [(0, 0, 4, 4), (6, 2, 12, 10), (8, 8, 16, 16)]
        for i, window in enumerate(windows):
            ms.apply_patch(
                aligned_region(*window), patch_heights(*window, seed=10 + i)
            )
        assert ms.epoch == 3
        db.close()

        # Reopen from the sidecar at the committed epoch and keep
        # patching: the epoch sequence continues where it left off.
        db = Database(tmp_path / "live")
        ms = MutableStore.open(db, live_dem)
        assert ms.epoch == 3
        ms.apply_patch(
            aligned_region(2, 2, 6, 6), patch_heights(2, 2, 6, 6, seed=99)
        )
        assert ms.epoch == 4

        patched = clone_dem(dem)
        for i, window in enumerate(windows):
            patched.apply_patch(
                aligned_region(*window), patch_heights(*window, seed=10 + i)
            )
        patched.apply_patch(
            aligned_region(2, 2, 6, 6), patch_heights(2, 2, 6, 6, seed=99)
        )
        db2, fresh = self._build(tmp_path, patched, "scratch")
        assert store_digest(ms.store) == store_digest(fresh.store)
        db.close()
        db2.close()

    def test_old_epoch_stays_readable_after_commit(self, tmp_path):
        from repro.core.direct_mesh import DirectMeshStore

        dem = make_dem(5)
        db, ms = self._build(tmp_path, dem, "live")
        before = store_digest(ms.store)
        ms.apply_patch(
            aligned_region(0, 0, 8, 8), patch_heights(0, 0, 8, 8, seed=7)
        )
        # A reader pinned to epoch 0 still sees the old snapshot.
        old = DirectMeshStore.open(db, epoch_prefix("dm", 0))
        assert store_digest(old) == before
        db.close()

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_parity_property(self, tmp_path_factory, data):
        # Random patch sequences over random terrain: the patched
        # store must always be node-id-identical to a fresh build on
        # the patched DEM.
        tmp_path = tmp_path_factory.mktemp("parity")
        dem = make_dem(data.draw(st.integers(0, 2**16), label="terrain"))
        db, ms = self._build(tmp_path, clone_dem(dem), "live")
        patched = clone_dem(dem)
        for i in range(data.draw(st.integers(1, 3), label="n_patches")):
            r0 = data.draw(st.integers(0, GRID - 2), label=f"r0_{i}")
            c0 = data.draw(st.integers(0, GRID - 2), label=f"c0_{i}")
            r1 = data.draw(st.integers(r0 + 1, GRID - 1), label=f"r1_{i}")
            c1 = data.draw(st.integers(c0 + 1, GRID - 1), label=f"c1_{i}")
            seed = data.draw(st.integers(0, 2**16), label=f"seed_{i}")
            region = aligned_region(r0, c0, r1, c1)
            heights = patch_heights(r0, c0, r1, c1, seed)
            ms.apply_patch(region, heights)
            patched.apply_patch(region, heights)
        db2, fresh = self._build(tmp_path, patched, "scratch")
        assert store_digest(ms.store) == store_digest(fresh.store)
        db.close()
        db2.close()
        shutil.rmtree(tmp_path, ignore_errors=True)


# -- kill-anywhere crash matrix ---------------------------------------------


REGION = aligned_region(4, 4, 10, 10)
HEIGHTS = patch_heights(4, 4, 10, 10, seed=42)


def _enumerate_kill_events(tmp_path) -> list:
    """Dry-run one patch commit and record the full event schedule."""
    events = []
    dem = make_dem(1)
    db = Database(tmp_path / "dryrun")
    ms = MutableStore.build(dem, db, tile_verts=TILE_VERTS)
    ms.apply_patch(REGION, HEIGHTS.copy(), kill_hook=events.append)
    db.close()
    return events


class TestKillAnywhere:
    """Crash at every protocol point: recovery lands on exactly the
    pre- or post-patch snapshot (classified by the committed epoch),
    with fsck clean apart from reclaimable orphans."""

    @pytest.fixture(scope="class")
    def matrix(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("matrix")
        events = _enumerate_kill_events(tmp_path)
        assert events[0] == "patch_begin:pre"
        assert "commit:durable" in events and "flip:post" in events
        # Every distinct label once, plus a deterministic sample of
        # the (many) interior page boundaries: ~40 kill points total.
        chosen = []
        seen_labels = set()
        for index, label in enumerate(events):
            if label not in seen_labels:
                seen_labels.add(label)
                chosen.append(index)
        rng = np.random.default_rng(7)
        remaining = [i for i in range(len(events)) if i not in set(chosen)]
        extra = min(len(remaining), 40 - len(chosen))
        if extra > 0:
            chosen.extend(
                sorted(rng.choice(remaining, size=extra, replace=False))
            )
        dem = make_dem(1)
        base = tmp_path / "base"
        db = Database(base)
        ms = MutableStore.build(
            clone_dem(dem), db, tile_verts=TILE_VERTS
        )
        pre_digest = store_digest(ms.store)
        db.close()
        # The post-patch truth, built once on a copy.
        post_dir = tmp_path / "post"
        shutil.copytree(base, post_dir)
        post_db = Database(post_dir)
        post_dem = clone_dem(dem)
        post_ms = MutableStore.open(post_db, post_dem)
        post_ms.apply_patch(REGION, HEIGHTS.copy())
        post_digest = store_digest(post_ms.store)
        post_db.close()
        return {
            "tmp_path": tmp_path,
            "events": events,
            "chosen": chosen,
            "dem": dem,
            "base": base,
            "pre": pre_digest,
            "post": post_digest,
        }

    def _run_kill(self, matrix, kill_at: int, corrupt: str | None):
        from repro.core.direct_mesh import DirectMeshStore

        tmp_path = matrix["tmp_path"]
        label = matrix["events"][kill_at]
        work = tmp_path / f"kill-{kill_at}-{corrupt or 'clean'}"
        shutil.copytree(matrix["base"], work)
        db = Database(work)
        ms = MutableStore.open(db, clone_dem(matrix["dem"]))
        fired = {"n": 0}

        def hook(event: str) -> None:
            if fired["n"] == kill_at:
                fired["n"] += 1
                raise SimulatedCrash(event)
            fired["n"] += 1

        with pytest.raises(SimulatedCrash) as excinfo:
            ms.apply_patch(REGION, HEIGHTS.copy(), kill_hook=hook)
        assert excinfo.value.event == label
        # The in-process handle is poisoned until reopen.
        with pytest.raises(MutationError):
            ms.apply_patch(REGION, HEIGHTS.copy())
        crash_process(db)

        if corrupt is not None:
            # Additionally damage one staged page (torn write): only
            # the shadow segments of the in-flight epoch are fair game
            # — committed state survived the crash by construction.
            staged = tuple(
                p.stem
                for p in work.glob("dm@1_*.seg")
                if p.stat().st_size > 0
            )
            if staged:
                inject_corruption(
                    work, 1, seed=kill_at, kinds=(corrupt,),
                    segments=staged,
                )

        db = Database(work)  # Recovery runs here.
        epoch = db.store_epoch("dm")
        assert epoch in (0, 1), f"impossible epoch {epoch} at {label}"
        store = DirectMeshStore.open(db, epoch_prefix("dm", epoch))
        digest = store_digest(store)
        expected = matrix["pre"] if epoch == 0 else matrix["post"]
        assert digest == expected, (
            f"kill at {label} (event {kill_at}) landed on a hybrid "
            f"snapshot (epoch {epoch})"
        )
        report = scrub_database(db)
        assert report.ok, (
            f"kill at {label}: fsck found real damage: "
            f"{report.to_text()}"
        )
        if epoch == 0 and report.orphans:
            repair_database(db, report)
            follow_up = scrub_database(db)
            assert follow_up.ok and not follow_up.orphans
        db.close()
        shutil.rmtree(work, ignore_errors=True)
        return label, epoch

    def test_kill_at_every_boundary(self, matrix):
        outcomes = {}
        for kill_at in matrix["chosen"]:
            label, epoch = self._run_kill(matrix, kill_at, corrupt=None)
            outcomes.setdefault(label, set()).add(epoch)
        # Sanity on the classification itself: a crash before the
        # commit marker is durable must recover to pre-patch; one
        # after the flip must recover to post-patch.
        assert outcomes["patch_begin:pre"] == {0}
        assert outcomes["commit:pre"] == {0}
        assert outcomes["flip:post"] == {1}
        assert outcomes["unlink:post"] == {1}
        # commit:durable and flip:pre carry a durable commit marker:
        # recovery replays and re-flips.
        assert outcomes["commit:durable"] == {1}
        assert outcomes["flip:pre"] == {1}

    @pytest.mark.parametrize("kind", ["torn", "bitflip"])
    def test_kill_with_staged_page_damage(self, matrix, kind):
        # Crash points where staged pages exist on disk, then damage
        # one of them: pre-commit the segment is an orphan (damage
        # invisible); post-commit recovery rewrites every staged page
        # from the log, healing the damage.
        for label in ("page:post", "commit:pre", "commit:durable"):
            kill_at = matrix["events"].index(label)
            got_label, epoch = self._run_kill(matrix, kill_at, corrupt=kind)
            assert got_label == label
            assert epoch == (1 if label == "commit:durable" else 0)


# -- epoch pinning through the engine ----------------------------------------


class TestEnginePinning:
    def _open(self, tmp_path):
        return mutable_engine(tmp_path, seed=2, cache=SemanticCache(1 << 22))

    def test_outcomes_carry_the_pinned_epoch(self, tmp_path):
        db, ms, engine = self._open(tmp_path)
        request = UniformRequest(EXTENT, ms.store.max_lod)
        assert engine.submit(request).result().metrics.epoch == 0
        ms.apply_patch(
            aligned_region(0, 0, 8, 8), patch_heights(0, 0, 8, 8, seed=1)
        )
        outcome = engine.submit(request).result()
        assert outcome.ok and outcome.metrics.epoch == 1
        assert engine.epoch == 1
        # A request that fails still reports the epoch it was pinned to.
        db.set_fault_injector(FaultInjector(error_rate=1.0, seed=0))
        db.flush()
        engine.cluster_cache.invalidate()
        failed = engine.submit(UniformRequest(EXTENT, 0.0)).result()
        assert not failed.ok and failed.metrics.epoch == 1
        db.set_fault_injector(None)
        db.close()

    def test_commit_invalidates_only_overlapping_cache(self, tmp_path):
        db, ms, engine = self._open(tmp_path)
        corner = UniformRequest(
            Rect(0.0, 0.0, 3.0, 3.0), ms.store.max_lod
        )
        engine.submit(corner).result()  # Populate the cache.
        before = engine.cache.stats()
        engine.submit(corner).result()
        assert engine.cache.stats().hits == before.hits + 1
        # A patch in the far corner leaves the cached cube servable.
        ms.apply_patch(
            aligned_region(12, 12, 16, 16),
            patch_heights(12, 12, 16, 16, seed=3),
        )
        mid = engine.cache.stats()
        engine.submit(corner).result()
        after = engine.cache.stats()
        assert after.hits == mid.hits + 1
        assert after.region_invalidations >= 1
        # An overlapping patch kills it.
        ms.apply_patch(
            aligned_region(0, 0, 4, 4), patch_heights(0, 0, 4, 4, seed=4)
        )
        probe = engine.cache.stats()
        engine.submit(corner).result()
        assert engine.cache.stats().hits == probe.hits
        db.close()

    def test_patched_answers_match_fresh_build(self, tmp_path):
        db, ms, engine = self._open(tmp_path)
        window = (2, 2, 14, 14)
        region = aligned_region(*window)
        heights = patch_heights(*window, seed=8)
        ms.apply_patch(region, heights)
        request = UniformRequest(EXTENT, ms.store.max_lod * 0.5)
        served = engine.submit(request).result()
        assert served.ok
        truth = ms.store.uniform_query(EXTENT, ms.store.max_lod * 0.5)
        assert set(served.result.nodes) == set(truth.nodes)
        db.close()


# -- streaming sessions across commits ---------------------------------------


class TestSessionResync:
    def test_overlapping_session_gets_keyframe(self, tmp_path):
        from repro.core.wire import FLAG_KEYFRAME

        dem = make_dem(4)
        db = Database(tmp_path / "db")
        ms = MutableStore.build(dem, db, tile_verts=TILE_VERTS)
        engine = QueryEngine(ms.store, epoch=ms.epoch, workers=2)
        ms.attach(engine)
        session = EngineSession(engine, "s")
        request = UniformRequest(EXTENT, ms.store.max_lod)
        first = session.update(request)
        assert first.frame.flags & FLAG_KEYFRAME  # Frame 0 always is.
        steady = session.update(request)
        assert not steady.frame.flags & FLAG_KEYFRAME
        assert not session.stale

        ms.apply_patch(
            aligned_region(0, 0, 8, 8), patch_heights(0, 0, 8, 8, seed=2)
        )
        assert session.stale
        resync = session.update(request)
        assert resync.frame.flags & FLAG_KEYFRAME
        assert not resync.frame.removed
        assert not session.stale
        assert {record.id for record in resync.frame.added} == set(
            session.active_ids
        )
        assert (
            engine.registry.counter("session.patch_resyncs").value == 1
        )
        db.close()

    def test_disjoint_session_keeps_streaming_deltas(self, tmp_path):
        from repro.core.wire import FLAG_KEYFRAME

        dem = make_dem(4)
        db = Database(tmp_path / "db")
        ms = MutableStore.build(dem, db, tile_verts=TILE_VERTS)
        engine = QueryEngine(ms.store, epoch=ms.epoch, workers=2)
        ms.attach(engine)
        session = EngineSession(engine, "s")
        corner = UniformRequest(Rect(0.0, 0.0, 3.0, 3.0), ms.store.max_lod)
        session.update(corner)
        # Patch the far corner: this session's view is untouched.
        ms.apply_patch(
            aligned_region(12, 12, 16, 16),
            patch_heights(12, 12, 16, 16, seed=5),
        )
        assert not session.stale
        follow = session.update(corner)
        assert not follow.frame.flags & FLAG_KEYFRAME
        db.close()


    def test_patch_committing_mid_update_resyncs_by_next_frame(
        self, tmp_path, monkeypatch
    ):
        """An answer pinned before the patch cannot be its resync: the
        session stays stale until a post-patch answer keyframes, and
        the client then holds exactly a fresh answer's records."""
        from repro.core.wire import FLAG_KEYFRAME, ClientMesh

        dem = make_dem(4)
        db = Database(tmp_path / "db")
        ms = MutableStore.build(dem, db, tile_verts=TILE_VERTS)
        engine = QueryEngine(ms.store, epoch=ms.epoch, workers=2)
        ms.attach(engine)
        session = EngineSession(engine, "s")
        client = ClientMesh()
        request = UniformRequest(EXTENT, ms.store.max_lod * 0.5)
        client.apply(session.update(request).payload)
        submit = engine.submit

        def submit_then_patch(*args, **kwargs):
            future = submit(*args, **kwargs)
            future.result()
            monkeypatch.setattr(engine, "submit", submit)
            ms.apply_patch(
                aligned_region(0, 0, 8, 8), patch_heights(0, 0, 8, 8, seed=2)
            )
            return future

        monkeypatch.setattr(engine, "submit", submit_then_patch)
        racing = session.update(request)
        assert racing.outcome.metrics.epoch == 0 and engine.epoch == 1
        client.apply(racing.payload)
        assert session.stale
        following = session.update(request)
        assert following.frame.flags & FLAG_KEYFRAME
        client.apply(following.payload)
        assert not session.stale
        fresh = engine.submit(request).result()
        assert fresh.metrics.epoch == 1
        assert client.records() == fresh.result.nodes
        db.close()


# -- fsck orphan handling end to end ------------------------------------------


class TestOrphanReclamation:
    def test_aborted_patch_leaves_quarantinable_orphans(self, tmp_path):
        dem = make_dem(6)
        db = Database(tmp_path / "db")
        ms = MutableStore.build(dem, db, tile_verts=TILE_VERTS)

        def kill(event: str) -> None:
            if event == "commit:pre":
                raise SimulatedCrash(event)

        with pytest.raises(SimulatedCrash):
            ms.apply_patch(
                aligned_region(0, 0, 8, 8),
                patch_heights(0, 0, 8, 8, seed=1),
                kill_hook=kill,
            )
        crash_process(db)
        # The patch's WAL header lists exactly the epoch's segments.
        header = logged_patch_header(
            WriteAheadLog(tmp_path / "db", db.page_size)
        )
        staged = epoch_files("dm@1").segments
        assert header["segments"] == list(staged)

        db = Database(tmp_path / "db")
        report = scrub_database(db)
        assert report.ok  # Orphans are not corruption.
        assert {orphan.segment for orphan in report.orphans} == set(staged)
        repair_database(db, report)
        assert all(orphan.removed for orphan in report.orphans)
        assert not list((tmp_path / "db").glob("dm@1_*"))
        # The reopened store picks up where epoch 0 left off.
        ms = MutableStore.open(db, make_dem(6))
        assert ms.epoch == 0
        report2 = ms.apply_patch(
            aligned_region(0, 0, 8, 8), patch_heights(0, 0, 8, 8, seed=1)
        )
        assert report2.to_epoch == 1
        db.close()


class TestDurability:
    """What a patch fsyncs around its epoch flip, each ``os.fsync``
    recorded by the path its descriptor names."""

    @staticmethod
    def patch_recording(tmp_path, monkeypatch) -> tuple[Database, list]:
        db = Database(tmp_path / "db")
        ms = MutableStore.build(make_dem(3), db, tile_verts=TILE_VERTS)
        events: list[tuple] = []
        fsync, replace = os.fsync, os.replace
        patch, flip = Database.patch, Database.set_store_epoch

        def record_fsync(fd):
            events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
            fsync(fd)

        def record_replace(src, dst):
            replace(src, dst)
            events.append(("replace", str(Path(dst).resolve())))

        def record_patch(self, header, kill_hook=None):
            events.append(("header", header))
            return patch(self, header, kill_hook=kill_hook)

        def record_flip(self, prefix, epoch):
            events.append(("flip", None))
            flip(self, prefix, epoch)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        monkeypatch.setattr(Database, "patch", record_patch)
        monkeypatch.setattr(Database, "set_store_epoch", record_flip)
        ms.apply_patch(
            aligned_region(0, 0, 4, 4), patch_heights(0, 0, 4, 4, seed=1)
        )
        db.close()
        return db, events

    def test_epoch_flip_fsyncs_the_directory_after_the_rename(
        self, tmp_path, monkeypatch
    ):
        """Only an fsync of the directory makes the rename of
        ``storage_meta.json`` survive a power loss."""
        db, events = self.patch_recording(tmp_path, monkeypatch)
        directory = db.path.resolve()
        renamed = events.index(
            ("replace", str(directory / STORAGE_META_FILENAME))
        )
        assert ("fsync", str(directory)) in events[renamed + 1:]

    def test_new_epoch_is_durable_before_the_flip(self, tmp_path, monkeypatch):
        """Each file of the new epoch is a segment the WAL's patch
        header names, fsynced before the flip: an epoch is its
        segments."""
        db, events = self.patch_recording(tmp_path, monkeypatch)
        ((_, header),) = [e for e in events if e[0] == "header"]
        synced = {
            path for kind, path in events[:events.index(("flip", None))]
            if kind == "fsync"
        }
        staged = {p.name for p in db.path.iterdir() if p.name.startswith("dm@1_")}
        assert staged == {f"{name}.seg" for name in header["segments"]}
        assert {str(db.path.resolve() / name) for name in staged} <= synced


# -- validation plumbing -------------------------------------------------------


class TestMutableStoreValidation:
    def test_rejected_patch_is_a_noop(self, tmp_path):
        dem = make_dem(8)
        db = Database(tmp_path / "db")
        ms = MutableStore.build(dem, db, tile_verts=TILE_VERTS)
        before = store_digest(ms.store)
        with pytest.raises(PatchError):
            ms.apply_patch(
                Rect(0.5, 0.0, 4.5, 4.0), np.zeros((5, 5))
            )
        assert ms.epoch == 0
        assert store_digest(ms.store) == before
        # A rejected patch does not poison the handle.
        ms.apply_patch(
            aligned_region(0, 0, 4, 4), patch_heights(0, 0, 4, 4, seed=1)
        )
        assert ms.epoch == 1
        db.close()

    def test_open_rejects_mismatched_dem(self, tmp_path):
        from repro.terrain.dem import DEM
        from repro.terrain.gridfield import GridField

        dem = make_dem(9)
        db = Database(tmp_path / "db")
        MutableStore.build(dem, db, tile_verts=TILE_VERTS)
        wrong = DEM(GridField(np.zeros((5, 5)), cell_size=CELL))
        with pytest.raises(MutationError):
            MutableStore.open(db, wrong)
        db.close()

    def test_directory_holds_exactly_the_epoch_files(self, tmp_path):
        """Each committed epoch adds exactly the files ``epoch_files``
        names; the tile layout sidecar is the mutable store's own."""
        path = tmp_path / "db"
        db = Database(path)
        ms = MutableStore.build(make_dem(3), db, tile_verts=TILE_VERTS)
        ms.apply_patch(
            aligned_region(0, 0, 4, 4), patch_heights(0, 0, 4, 4, seed=1)
        )
        db.close()
        expected = {STORAGE_META_FILENAME, "dm_mutate.json"}
        for epoch in (0, 1):
            files = epoch_files(epoch_prefix("dm", epoch))
            expected |= {f"{name}.seg" for name in files.segments}
        assert {p.name for p in path.iterdir()} == expected

    def test_layout_is_deterministic(self):
        layout_a = plan_tiles(make_dem(0), TILE_VERTS)
        layout_b = plan_tiles(make_dem(1), TILE_VERTS)
        assert layout_a.to_json() == layout_b.to_json()
