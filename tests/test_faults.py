"""Fault injection and the engine's robustness policy.

Covers the :class:`FaultInjector` itself (determinism, rates, bounds),
its wiring through :class:`Pager` / :class:`BufferPool` /
:class:`Database`, and the serving guarantees built on it: per-request
fault isolation, bounded retry for transient errors, per-request
deadlines with graceful degradation.
"""

import random
import time

import pytest

from repro.core import DirectMeshStore, QueryEngine
from repro.core.engine import SingleBaseRequest, UniformRequest
from repro.errors import (
    DeadlineExceededError,
    PageCorruptionError,
    QueryError,
    StorageError,
    TransientIOError,
)
from repro.storage.faults import CORRUPTION_KINDS, corrupt_buffer
from repro.storage.page import seal_page, verify_page
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.obs.metrics import MetricsRegistry
from repro.storage import Database, DiskStats, FaultInjector, Pager
from repro.terrain import dataset_by_name


@pytest.fixture(scope="module")
def faulty_env(tmp_path_factory):
    """A store whose database accepts pluggable fault injectors.

    Module-scoped for build cost; every test must leave the injector
    cleared (the ``clean_injector`` fixture below guarantees it).
    """
    dataset = dataset_by_name("foothills", 1500, seed=11)
    db = Database(tmp_path_factory.mktemp("faults_db"), pool_pages=128)
    store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
    yield db, store
    db.close()


@pytest.fixture
def clean_injector(faulty_env):
    """Clear any installed injector after the test."""
    db, store = faulty_env
    yield db, store
    db.set_fault_injector(None)
    db.buffer.fault_injector = None


def _random_uniform(store, rng, frac=0.3) -> UniformRequest:
    extent = store.rtree.data_space.rect
    side = frac * min(extent.width, extent.height)
    x0 = extent.min_x + rng.random() * (extent.width - side)
    y0 = extent.min_y + rng.random() * (extent.height - side)
    return UniformRequest(
        Rect(x0, y0, x0 + side, y0 + side), rng.random() * store.max_lod
    )


class TestFaultInjector:
    def test_deterministic_replay(self):
        a = FaultInjector(error_rate=0.3, seed=42)
        b = FaultInjector(error_rate=0.3, seed=42)

        def decisions(injector):
            out = []
            for _ in range(200):
                try:
                    injector.fire("test")
                    out.append(False)
                except TransientIOError:
                    out.append(True)
            return out

        assert decisions(a) == decisions(b)
        assert a.errors_injected == b.errors_injected > 0

    def test_reset_restarts_the_stream(self):
        injector = FaultInjector(error_rate=0.5, seed=9)
        first = [self._roll(injector) for _ in range(50)]
        injector.reset()
        assert [self._roll(injector) for _ in range(50)] == first
        assert injector.calls == 50

    @staticmethod
    def _roll(injector) -> bool:
        try:
            injector.fire("test")
            return False
        except TransientIOError:
            return True

    def test_rate_one_always_fails(self):
        injector = FaultInjector(error_rate=1.0, seed=0)
        for _ in range(10):
            with pytest.raises(TransientIOError):
                injector.fire("site", "detail")
        assert injector.errors_injected == 10

    def test_rate_zero_never_fails(self):
        injector = FaultInjector(error_rate=0.0, seed=0)
        for _ in range(100):
            injector.fire("site")
        assert injector.errors_injected == 0

    def test_max_errors_bounds_injection(self):
        injector = FaultInjector(error_rate=1.0, seed=0, max_errors=3)
        failures = sum(self._roll(injector) for _ in range(10))
        assert failures == 3

    def test_latency_spike_sleeps(self):
        injector = FaultInjector(
            latency_rate=1.0, latency_s=0.01, seed=0
        )
        started = time.perf_counter()
        injector.fire("site")
        assert time.perf_counter() - started >= 0.01
        assert injector.latencies_injected == 1

    def test_invalid_rates_rejected(self):
        with pytest.raises(StorageError):
            FaultInjector(error_rate=1.5)
        with pytest.raises(StorageError):
            FaultInjector(latency_rate=-0.1)
        with pytest.raises(StorageError):
            FaultInjector(latency_s=-1.0)


class TestCorruptionInjector:
    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_every_kind_invalidates_a_sealed_page(self, kind):
        buf = bytearray(random.Random(1).randbytes(4096))
        seal_page(buf)
        assert verify_page(buf)
        corrupt_buffer(buf, kind, random.Random(2))
        assert not verify_page(buf)

    def test_unknown_kind_and_empty_buffer_rejected(self):
        with pytest.raises(StorageError):
            corrupt_buffer(bytearray(16), "gamma-ray", random.Random(0))
        with pytest.raises(StorageError):
            corrupt_buffer(bytearray(), "bitflip", random.Random(0))

    def test_corrupt_page_deterministic_replay(self):
        def kinds_drawn(injector):
            out = []
            for _ in range(100):
                buf = bytearray(random.Random(7).randbytes(512))
                seal_page(buf)
                out.append(injector.corrupt_page(buf))
            return out

        a = FaultInjector(corrupt_rate=0.5, seed=21)
        b = FaultInjector(corrupt_rate=0.5, seed=21)
        assert kinds_drawn(a) == kinds_drawn(b)
        assert a.corruptions_injected == b.corruptions_injected > 0

    def test_rate_zero_never_corrupts(self):
        injector = FaultInjector(corrupt_rate=0.0, seed=0)
        buf = bytearray(512)
        seal_page(buf)
        assert injector.corrupt_page(buf) is None
        assert verify_page(buf)
        assert injector.corruptions_injected == 0

    def test_max_corruptions_bounds_injection(self):
        injector = FaultInjector(
            corrupt_rate=1.0, seed=0, max_corruptions=3
        )
        hits = 0
        for _ in range(10):
            buf = bytearray(512)
            seal_page(buf)
            if injector.corrupt_page(buf) is not None:
                hits += 1
        assert hits == 3
        assert sum(injector.corruptions_by_kind.values()) == 3

    def test_invalid_corruption_config_rejected(self):
        with pytest.raises(StorageError):
            FaultInjector(corrupt_rate=1.5)
        with pytest.raises(StorageError):
            FaultInjector(corrupt_kinds=())
        with pytest.raises(StorageError):
            FaultInjector(corrupt_kinds=("bogus",))


class TestStorageWiring:
    def test_pager_raises_transient(self, tmp_path):
        stats = DiskStats()
        pager = Pager(tmp_path / "seg.dat", stats, name="seg", page_size=512)
        page_no = pager.allocate()
        pager.fault_injector = FaultInjector(error_rate=1.0, max_errors=1)
        with pytest.raises(TransientIOError):
            pager.read_page(page_no)
        # The failed read was not counted as a physical read...
        assert stats.physical_reads == 0
        # ...and once the injector's budget is spent, the read works.
        assert len(pager.read_page(page_no)) == 512
        pager.close()

    def test_buffer_pool_fetch_faults_warm_reads(self, fresh_db):
        segment = fresh_db.segment("t")
        page_no, _ = segment.allocate()
        segment.fetch(page_no)  # Warm.
        fresh_db.buffer.fault_injector = FaultInjector(error_rate=1.0)
        with pytest.raises(TransientIOError):
            segment.fetch(page_no)
        fresh_db.buffer.fault_injector = None
        segment.fetch(page_no)

    def test_database_installs_on_current_and_future_segments(
        self, fresh_db
    ):
        early = fresh_db.segment("early")
        injector = FaultInjector(error_rate=1.0)
        fresh_db.set_fault_injector(injector)
        late = fresh_db.segment("late")
        for segment in (early, late):
            page_no, _ = segment.allocate()
            fresh_db.flush()  # Force the next fetch to hit the pager.
            with pytest.raises(TransientIOError):
                segment.fetch(page_no)
        fresh_db.set_fault_injector(None)
        page_no, _ = early.allocate()
        fresh_db.flush()
        early.fetch(page_no)


class TestFaultIsolation:
    def test_no_exception_escapes_run_batch(self, clean_injector):
        db, store = clean_injector
        # Device-level injection: covers both the buffered per-node
        # path and the cluster fast path's pool-bypassing run reads.
        db.set_fault_injector(FaultInjector(error_rate=1.0, seed=1))
        db.flush()  # Cold cache: reads (and faults) happen.
        rng = random.Random(3)
        requests = [_random_uniform(store, rng) for _ in range(8)]
        registry = MetricsRegistry()
        with QueryEngine(
            store, workers=4, retries=1, registry=registry
        ) as engine:
            outcomes = engine.run_batch(requests)
        assert len(outcomes) == len(requests)
        for outcome in outcomes:
            assert not outcome.ok
            assert isinstance(outcome.error, TransientIOError)
            assert outcome.result is None
            assert outcome.attempts == 2  # 1 try + 1 retry.
        assert registry.counters()["engine.errors"] == len(requests)

    def test_overload_degrade_with_unreadable_base_mesh_is_a_shed(
        self, clean_injector
    ):
        """Failure-mode table, overload row: admission degrades a
        request and the base-mesh fetch fails too — the outcome is
        the typed ``OverloadShedError`` (not the fetch's error),
        counted as an error and not as a degraded answer."""
        from repro.core.admission import CostGovernor
        from repro.errors import OverloadShedError

        db, store = clean_injector
        db.set_fault_injector(FaultInjector(error_rate=1.0, seed=1))
        db.flush()
        # Budget below any estimate, huge headroom: always degrade.
        governor = CostGovernor(budget=0.5, degrade_headroom=1000.0)
        registry = MetricsRegistry()
        request = _random_uniform(store, random.Random(31))
        with QueryEngine(
            store, workers=1, governor=governor, registry=registry
        ) as engine:
            outcome = engine.submit(request).result(timeout=30)
        assert isinstance(outcome.error, OverloadShedError)
        assert outcome.result is None and not outcome.degraded
        counters = registry.counters()
        assert counters["engine.overload_degraded"] == 1
        assert counters["engine.errors"] == 1
        assert counters.get("engine.degraded", 0) == 0
        assert governor.inflight_cost == 0.0

    def test_partial_faults_do_not_poison_siblings(self, clean_injector):
        db, store = clean_injector
        # Every read can fail; retry budget large enough that most
        # requests eventually succeed, and the ones that don't report
        # their own error without touching the others.
        db.set_fault_injector(FaultInjector(error_rate=0.2, seed=5))
        db.flush()
        rng = random.Random(7)
        requests = [_random_uniform(store, rng) for _ in range(24)]
        with QueryEngine(store, workers=8, retries=8) as engine:
            outcomes = engine.run_batch(requests)
        assert len(outcomes) == len(requests)
        ok = [o for o in outcomes if o.ok]
        assert len(ok) >= len(requests) // 2
        for outcome in ok:
            assert outcome.result is not None
        for outcome in outcomes:
            if not outcome.ok:
                assert isinstance(outcome.error, TransientIOError)

    def test_retries_recover_and_match_sequential(self, clean_injector):
        db, store = clean_injector
        db.set_fault_injector(FaultInjector(error_rate=0.1, seed=11))
        db.flush()  # Cold cache: physical reads (and faults) happen.
        rng = random.Random(13)
        requests = [_random_uniform(store, rng) for _ in range(16)]
        registry = MetricsRegistry()
        with QueryEngine(
            store, workers=4, retries=10, registry=registry
        ) as engine:
            outcomes = engine.run_batch(requests)
        db.set_fault_injector(None)
        assert all(o.ok for o in outcomes)
        for request, outcome in zip(requests, outcomes):
            reference = store.uniform_query(request.roi, request.lod)
            assert outcome.result.nodes == reference.nodes

    def test_hard_errors_are_not_retried(self, clean_injector, monkeypatch):
        db, store = clean_injector
        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise ValueError("corrupt index node")

        # The default engine serves via cluster selection; patching it
        # (not rtree.search) puts the hard error on the live path.
        monkeypatch.setattr(store.clusters.index, "candidates", boom)
        registry = MetricsRegistry()
        request = _random_uniform(store, random.Random(29))
        with QueryEngine(
            store, workers=2, retries=5, registry=registry
        ) as engine:
            outcome = engine.run(request)
        assert not outcome.ok
        assert isinstance(outcome.error, ValueError)
        assert outcome.attempts == 1
        assert calls["n"] == 1  # No retry for non-transient failures.
        assert registry.counters().get("engine.retries", 0) == 0


class TestCorruptionServing:
    def test_corrupt_uniform_degrades_and_quarantines(
        self, clean_injector
    ):
        db, store = clean_injector
        injector = FaultInjector(
            corrupt_rate=1.0, seed=3, max_corruptions=1
        )
        db.set_fault_injector(injector)
        db.flush()  # Cold cache: the first physical read is corrupted.
        crc_before = db.crc_failures
        registry = MetricsRegistry()
        request = _random_uniform(store, random.Random(41))
        with QueryEngine(
            store, workers=2, retries=5, registry=registry
        ) as engine:
            outcome = engine.run(request)
        db.set_fault_injector(None)
        assert outcome.ok and outcome.degraded
        assert outcome.attempts == 1  # Corruption is never retried.
        counters = registry.counters()
        assert counters["engine.corruptions"] == 1
        assert counters["engine.degraded"] == 1
        assert counters.get("engine.retries", 0) == 0
        assert len(engine.quarantine) == 1
        assert db.crc_failures - crc_before == 1
        # The degraded answer matches the sequential base mesh.
        reference = store.uniform_query(request.roi, store.max_lod)
        assert outcome.result.nodes == reference.nodes

    def test_corrupt_viewdep_fails_in_isolation(self, clean_injector):
        db, store = clean_injector
        injector = FaultInjector(
            corrupt_rate=1.0, seed=5, max_corruptions=1
        )
        db.set_fault_injector(injector)
        db.flush()
        extent = store.rtree.data_space.rect
        plane = QueryPlane(
            extent, 0.2 * store.max_lod, 0.8 * store.max_lod
        )
        registry = MetricsRegistry()
        with QueryEngine(
            store, workers=2, retries=5, registry=registry
        ) as engine:
            outcome = engine.run(SingleBaseRequest(plane))
        db.set_fault_injector(None)
        assert not outcome.ok
        assert isinstance(outcome.error, PageCorruptionError)
        assert outcome.attempts == 1
        assert not outcome.degraded
        assert registry.counters()["engine.corruptions"] == 1

    def test_crc_failures_track_injected_corruptions(
        self, clean_injector
    ):
        db, store = clean_injector
        injector = FaultInjector(corrupt_rate=0.3, seed=9)
        db.set_fault_injector(injector)
        db.flush()
        crc_before = db.crc_failures
        rng = random.Random(43)
        requests = [_random_uniform(store, rng) for _ in range(12)]
        with QueryEngine(store, workers=4, retries=2) as engine:
            outcomes = engine.run_batch(requests)
        db.set_fault_injector(None)
        assert len(outcomes) == len(requests)
        # Every injected corruption is caught by exactly one checksum
        # failure — corrupt pages are never admitted to the pool.
        assert injector.corruptions_injected > 0
        assert (
            db.crc_failures - crc_before == injector.corruptions_injected
        )
        for outcome in outcomes:
            assert (outcome.result is None) == (outcome.error is not None)
            if not outcome.ok:
                assert isinstance(outcome.error, PageCorruptionError)


class TestDeadlines:
    def test_expired_deadline_degrades_uniform(self, clean_injector):
        db, store = clean_injector
        rng = random.Random(17)
        requests = [_random_uniform(store, rng) for _ in range(6)]
        registry = MetricsRegistry()
        with QueryEngine(
            store, workers=2, deadline_s=1e-9, registry=registry
        ) as engine:
            outcomes = engine.run_batch(requests)
        counters = registry.counters()
        assert counters["engine.deadline_misses"] == len(requests)
        assert counters["engine.degraded"] == len(requests)
        for request, outcome in zip(requests, outcomes):
            assert outcome.ok
            assert outcome.degraded
            # The degraded answer is the coarsest valid approximation:
            # exactly what the sequential path returns at max LOD.
            reference = store.uniform_query(request.roi, store.max_lod)
            assert outcome.result.nodes == reference.nodes

    def test_batch_deadline_runs_from_batch_submission(self, clean_injector):
        """One deadline per batch: a slow first request uses up its
        siblings' time too, where sequential submits each get their
        own."""
        db, store = clean_injector

        class Slow(UniformRequest):
            def filter(self, columns):
                time.sleep(0.2)
                return super().filter(columns)

        rng = random.Random(29)
        requests = [_random_uniform(store, rng) for _ in range(4)]
        requests[0] = Slow(requests[0].roi, requests[0].lod)
        with QueryEngine(store, workers=1, deadline_s=0.1) as engine:
            batch = engine.run_batch(requests)
            sequential = [
                engine.submit(r).result(timeout=30) for r in requests
            ]
        assert [o.degraded for o in batch] == [False, True, True, True]
        assert not any(o.degraded for o in sequential)
        assert all(o.ok for o in batch + sequential)

    def test_expired_deadline_fails_viewdep(self, clean_injector):
        db, store = clean_injector
        extent = store.rtree.data_space.rect
        plane = QueryPlane(extent, 0.2 * store.max_lod, 0.8 * store.max_lod)
        registry = MetricsRegistry()
        with QueryEngine(
            store, workers=2, deadline_s=1e-9, registry=registry
        ) as engine:
            outcome = engine.run(SingleBaseRequest(plane))
        assert not outcome.ok
        assert isinstance(outcome.error, DeadlineExceededError)
        assert not outcome.degraded
        assert registry.counters()["engine.deadline_misses"] == 1

    def test_generous_deadline_changes_nothing(self, clean_injector):
        db, store = clean_injector
        request = _random_uniform(store, random.Random(23))
        with QueryEngine(store, workers=2, deadline_s=60.0) as engine:
            outcome = engine.run(request)
        assert outcome.ok and not outcome.degraded
        reference = store.uniform_query(request.roi, request.lod)
        assert outcome.result.nodes == reference.nodes

    def test_validation(self, clean_injector):
        _, store = clean_injector
        with pytest.raises(QueryError):
            QueryEngine(store, deadline_s=0.0)
        with pytest.raises(QueryError):
            QueryEngine(store, retries=-1)


class TestSiblingIsolation:
    def test_failed_request_leaves_contained_sibling_intact(
        self, clean_injector
    ):
        db, store = clean_injector
        extent = store.rtree.data_space.rect
        lod = 0.5 * store.max_lod
        outer = UniformRequest(extent, lod)
        quarter = Rect(
            extent.min_x,
            extent.min_y,
            extent.min_x + extent.width / 2,
            extent.min_y + extent.height / 2,
        )
        inner = UniformRequest(quarter, lod)
        # Exactly one injected error: the first request (queued
        # first, retries=0) eats it and fails; its sibling's own probe
        # of the contained ROI then runs fault-free.
        db.set_fault_injector(
            FaultInjector(error_rate=1.0, seed=3, max_errors=1)
        )
        db.flush()  # Cold cache: the first request's read faults.
        registry = MetricsRegistry()
        with QueryEngine(
            store, workers=1, retries=0, registry=registry
        ) as engine:
            outcomes = engine.run_batch([outer, inner])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, TransientIOError)
        assert outcomes[1].ok
        assert registry.counters()["engine.errors"] == 1
        reference = store.uniform_query(inner.roi, inner.lod)
        assert outcomes[1].result.nodes == reference.nodes
        assert outcomes[1].result.retrieved == reference.retrieved


class TestServingAcceptance:
    def test_200_requests_with_faults_meet_the_bar(self, clean_injector):
        """The PR's acceptance scenario: fault rate 0.05 on physical
        reads, 200 requests, batch completes with >= 99% success and
        every failure reported per-request."""
        from repro.bench.runner import measure_throughput

        db, store = clean_injector
        injector = FaultInjector(error_rate=0.05, seed=2024)
        db.set_fault_injector(injector)
        rng = random.Random(2024)
        requests = [
            _random_uniform(store, rng, frac=0.15) for _ in range(200)
        ]
        report = measure_throughput(
            store, requests, workers=8, retries=4
        )
        db.set_fault_injector(None)
        assert report.n_requests == 200
        assert report.success_rate >= 0.99
        assert report.n_ok + report.n_errors == 200
        assert injector.errors_injected > 0  # The run actually faulted.
