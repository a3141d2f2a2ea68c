"""Concurrency stress tests for the storage and serving layers.

These are the tests `make stress` repeats: threads hammering a small
buffer pool while it is flushed and resized underneath them,
per-thread statistics attribution under real contention, and the
engine at ``workers=8`` with fault injection active.  They assert
invariants (no exception, no lost or cross-attributed counts, correct
page contents), not timings.
"""

import random
import threading
import time

import pytest

from repro.core import DirectMeshStore, QueryEngine
from repro.core.engine import UniformRequest
from repro.errors import PageCorruptionError, TransientIOError
from repro.geometry.primitives import Rect
from repro.storage import Database, DiskStats, FaultInjector, Pager
from repro.storage.buffer import BufferPool
from repro.terrain import dataset_by_name

STRESS_WORKERS = 8


class TestBufferPoolRaces:
    N_PAGES = 32
    PAGE_SIZE = 512

    @pytest.fixture
    def pager(self, tmp_path):
        stats = DiskStats()
        pager = Pager(
            tmp_path / "seg.dat", stats, name="seg",
            page_size=self.PAGE_SIZE,
        )
        for i in range(self.N_PAGES):
            page_no = pager.allocate()
            pager.write_page(
                page_no, bytes([i % 256]) * self.PAGE_SIZE
            )
        yield pager
        pager.close()

    def test_fetch_races_flush_and_resize(self, pager):
        """Reader threads hammer a tiny pool while the main thread
        flushes and resizes it; every fetch must return the right
        page bytes and nothing may raise."""
        pool = BufferPool(pager._stats, capacity=4)
        stop = threading.Event()
        failures: list[str] = []

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            while not stop.is_set():
                page_no = rng.randrange(self.N_PAGES)
                data = pool.fetch(pager, page_no)
                if data[0] != page_no % 256:
                    failures.append(
                        f"page {page_no} returned byte {data[0]}"
                    )
                    return

        threads = [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(STRESS_WORKERS)
        ]
        for thread in threads:
            thread.start()
        try:
            for i in range(200):
                if i % 3 == 0:
                    pool.flush()
                else:
                    pool.resize(2 + (i % 7))
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        assert pool.resident_pages() <= pool.capacity

    def test_concurrent_misses_single_physical_read(self, pager):
        """Many threads missing on the same cold page perform one
        physical read between them (stripe de-duplication)."""
        stats = pager._stats
        pool = BufferPool(stats, capacity=self.N_PAGES)
        stats.reset()
        barrier = threading.Barrier(STRESS_WORKERS)

        def fetch_same() -> None:
            barrier.wait()
            pool.fetch(pager, 7)

        threads = [
            threading.Thread(target=fetch_same)
            for _ in range(STRESS_WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.physical_reads == 1
        assert stats.logical_reads == STRESS_WORKERS


class TestStatsAttribution:
    def test_probes_see_only_their_thread(self):
        """Per-thread attribute() scopes racing on one DiskStats: each
        probe must count exactly its own traffic, and the global
        counters the sum."""
        stats = DiskStats()
        results: dict[int, tuple[int, int]] = {}
        barrier = threading.Barrier(STRESS_WORKERS)

        def worker(ident: int) -> None:
            barrier.wait()
            expected = 100 + ident
            with stats.attribute() as probe:
                for _ in range(expected):
                    stats.record_logical_read(f"seg{ident % 3}")
                stats.record_physical_read(f"seg{ident % 3}", ident)
            results[ident] = (probe.logical_reads, probe.physical_reads)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(STRESS_WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for ident, (logical, physical) in results.items():
            assert logical == 100 + ident
            assert physical == ident
        assert stats.logical_reads == sum(
            100 + i for i in range(STRESS_WORKERS)
        )
        assert stats.physical_reads == sum(range(STRESS_WORKERS))

    def test_attribution_under_engine_worker_pool(self, tmp_path):
        """The engine's per-query probes, summed, equal the global
        delta even with 8 workers sharing one pool."""
        dataset = dataset_by_name("foothills", 1200, seed=23)
        with Database(tmp_path / "db", pool_pages=64) as db:
            store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
            extent = store.rtree.data_space.rect
            rng = random.Random(31)
            side = 0.25 * min(extent.width, extent.height)
            requests = []
            for _ in range(24):
                x0 = extent.min_x + rng.random() * (extent.width - side)
                y0 = extent.min_y + rng.random() * (extent.height - side)
                requests.append(
                    UniformRequest(
                        Rect(x0, y0, x0 + side, y0 + side),
                        rng.random() * store.max_lod,
                    )
                )
            db.flush()
            before = db.stats.snapshot()
            with QueryEngine(store, workers=STRESS_WORKERS) as engine:
                outcomes = engine.run_batch(requests)
            delta = db.stats.snapshot().delta(before)
            assert all(o.ok for o in outcomes)
            assert delta.logical_reads == sum(
                o.metrics.logical_reads for o in outcomes
            )
            assert delta.physical_reads == sum(
                o.metrics.pages_read for o in outcomes
            )


class TestEngineUnderFaults:
    def test_eight_workers_with_faults_and_deadlines(self, tmp_path):
        """Everything at once: 8 workers, fault injection, retries and
        deadlines on — the batch completes, outcomes partition into
        ok / degraded / errored, and no exception escapes."""
        dataset = dataset_by_name("foothills", 1200, seed=23)
        with Database(tmp_path / "db", pool_pages=64) as db:
            store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
            db.set_fault_injector(
                FaultInjector(
                    error_rate=0.05, latency_rate=0.1,
                    latency_s=0.0005, seed=77,
                )
            )
            extent = store.rtree.data_space.rect
            rng = random.Random(37)
            side = 0.2 * min(extent.width, extent.height)
            requests = []
            for _ in range(60):
                x0 = extent.min_x + rng.random() * (extent.width - side)
                y0 = extent.min_y + rng.random() * (extent.height - side)
                requests.append(
                    UniformRequest(
                        Rect(x0, y0, x0 + side, y0 + side),
                        rng.random() * store.max_lod,
                    )
                )
            db.flush()
            with QueryEngine(
                store,
                workers=STRESS_WORKERS,
                retries=6,
                deadline_s=30.0,
            ) as engine:
                outcomes = engine.run_batch(requests)
            db.set_fault_injector(None)
            assert len(outcomes) == len(requests)
            for outcome in outcomes:
                assert (outcome.result is None) == (outcome.error is not None)
            ok = sum(o.ok for o in outcomes)
            assert ok >= len(requests) * 0.9

    def test_eight_workers_with_corruption(self, tmp_path, monkeypatch):
        """Corruption storm at workers=8: no exception escapes, every
        corrupted request surfaces as degraded or errored, the
        quarantine stays bounded though the storm offers it more pages
        than it holds, and the checksum counter matches the injector's
        fire count exactly."""
        monkeypatch.setattr("repro.core.engine.QUARANTINE_CAP", 4)
        dataset = dataset_by_name("foothills", 1200, seed=23)
        # A pool too small for the working set keeps every worker doing
        # physical reads, so the injector fires reliably; a warm pool
        # would absorb almost all reads and starve the corrupt path.
        with Database(tmp_path / "db", pool_pages=8) as db:
            store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
            injector = FaultInjector(
                error_rate=0.02, corrupt_rate=0.1, seed=91
            )
            db.set_fault_injector(injector)
            extent = store.rtree.data_space.rect
            rng = random.Random(47)
            side = 0.2 * min(extent.width, extent.height)
            requests = []
            for _ in range(60):
                x0 = extent.min_x + rng.random() * (extent.width - side)
                y0 = extent.min_y + rng.random() * (extent.height - side)
                requests.append(
                    UniformRequest(
                        Rect(x0, y0, x0 + side, y0 + side),
                        rng.random() * store.max_lod,
                    )
                )
            db.flush()
            offered = set()
            # No decoded-cluster cache: every request reads its runs
            # from disk, so the storm touches far more pages than the
            # quarantine holds.
            with QueryEngine(
                store, workers=STRESS_WORKERS, retries=4,
                cluster_cache_bytes=1,
            ) as engine:
                quarantine_add = engine.quarantine.add

                def add(segment, page):
                    offered.add((segment, page))
                    return quarantine_add(segment, page)

                monkeypatch.setattr(engine.quarantine, "add", add)
                outcomes = engine.run_batch(requests)
            db.set_fault_injector(None)
            assert len(outcomes) == len(requests)
            for outcome in outcomes:
                assert (outcome.result is None) == (
                    outcome.error is not None
                )
                if not outcome.ok:
                    assert isinstance(
                        outcome.error,
                        (PageCorruptionError, TransientIOError),
                    )
            assert injector.corruptions_injected > 0
            assert len(offered) > engine.quarantine.capacity == 4
            assert len(engine.quarantine) == engine.quarantine.capacity
            assert db.crc_failures == injector.corruptions_injected


class TestReadersAcrossPatchCommits:
    """8 reader threads race 20 live patch commits.

    Every outcome must match the exact snapshot its pinned epoch
    names — never a hybrid of two epochs, never an epoch that was
    never committed.  The truth table is built by the writer as it
    goes: after each commit it queries the (single-writer) store
    directly and records the digest for that epoch.
    """

    GRID = 17
    TILE_VERTS = 9
    N_PATCHES = 20
    LOD_FRACTION = 0.6

    def test_every_read_lands_on_a_committed_snapshot(self, tmp_path):
        import numpy as np

        from repro.core.cache import SemanticCache
        from repro.core.mutate import MutableStore
        from repro.terrain.dem import DEM
        from repro.terrain.gridfield import GridField

        rng = np.random.default_rng(17)
        dem = DEM(
            GridField(
                rng.uniform(0.0, 30.0, (self.GRID, self.GRID)),
                cell_size=1.0,
            )
        )
        extent = dem.field.bounds()
        db = Database(tmp_path / "db")
        ms = MutableStore.build(
            dem, db, prefix="dm", tile_verts=self.TILE_VERTS
        )
        lod = ms.store.max_lod * self.LOD_FRACTION

        def digest(store):
            result = store.uniform_query(extent, lod)
            return {
                nid: (r.x, r.y, r.z, tuple(r.connections))
                for nid, r in result.nodes.items()
            }

        truth = {0: digest(ms.store)}
        truth_lock = threading.Lock()
        engine = QueryEngine(
            ms.store,
            epoch=ms.epoch,
            workers=STRESS_WORKERS,
            cache=SemanticCache(1 << 22),
        )
        ms.attach(engine)
        request = UniformRequest(extent, lod)
        stop = threading.Event()
        failures: list[str] = []

        def reader(seed: int) -> None:
            while not stop.is_set():
                outcome = engine.submit(request).result()
                if not outcome.ok:
                    failures.append(f"reader error: {outcome.error!r}")
                    return
                epoch = outcome.metrics.epoch
                # The engine swaps snapshots before apply_patch
                # returns to the writer, so a reader can pin the new
                # epoch a beat before the writer records its digest:
                # wait it out (bounded) before calling foul.
                expected = None
                deadline = time.monotonic() + 10.0
                while expected is None and time.monotonic() < deadline:
                    with truth_lock:
                        expected = truth.get(epoch)
                    if expected is None:
                        time.sleep(0.005)
                if expected is None:
                    failures.append(
                        f"served epoch {epoch} before/without commit"
                    )
                    return
                got = {
                    nid: (r.x, r.y, r.z, tuple(r.connections))
                    for nid, r in outcome.result.nodes.items()
                }
                if got != expected:
                    failures.append(
                        f"epoch {epoch}: result is not that epoch's "
                        f"snapshot ({len(got)} vs {len(expected)} nodes)"
                    )
                    return
                # A beat of backoff: zero-sleep readers starve the
                # writer thread under the GIL (one patch can take
                # minutes), without making the race any more likely.
                time.sleep(0.001)

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(STRESS_WORKERS)
        ]
        for thread in threads:
            thread.start()
        try:
            prng = random.Random(29)
            for i in range(self.N_PATCHES):
                r0 = prng.randrange(0, self.GRID - 1)
                c0 = prng.randrange(0, self.GRID - 1)
                r1 = prng.randrange(r0 + 1, self.GRID)
                c1 = prng.randrange(c0 + 1, self.GRID)
                heights = np.random.default_rng(100 + i).uniform(
                    0.0, 30.0, (r1 - r0 + 1, c1 - c0 + 1)
                )
                report = ms.apply_patch(
                    Rect(float(c0), float(r0), float(c1), float(r1)),
                    heights,
                )
                # Record the new truth *after* the commit flipped: a
                # reader that pinned the new epoch can only have done
                # so after install_store, which this ordering covers
                # (digest reads the single-writer handle, no racing
                # mutation is possible).
                with truth_lock:
                    truth[report.to_epoch] = digest(ms.store)
                if failures:
                    break
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            engine.close()
            db.close()
        assert not failures, failures[0]
        assert ms.epoch == self.N_PATCHES or failures
