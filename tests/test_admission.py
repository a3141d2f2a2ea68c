"""Cost-based admission control: token bucket, governor, shed path.

The unit tests drive :class:`~repro.core.admission.TokenBucket` and
:class:`~repro.core.admission.CostGovernor` with a deterministic fake
clock (no sleeps, no wall-time flake); the integration tests push the
engine's open-loop ``submit`` path far past capacity and check the
promises the governor makes: bounded in-flight cost, and shed
responses that are well-formed degraded results rather than errors.
"""

from __future__ import annotations

import pytest

from repro.core.admission import (
    ADMIT,
    DEGRADE,
    SHED,
    CostGovernor,
    TokenBucket,
)
from repro.core.engine import QueryEngine, SingleBaseRequest, UniformRequest
from repro.errors import OverloadShedError, QueryError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_governor(**kwargs) -> CostGovernor:
    kwargs.setdefault("budget", 10.0)
    return CostGovernor(**kwargs)


# -- token bucket ------------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=5.0, clock=clock)
        assert bucket.tokens == pytest.approx(5.0)
        assert bucket.try_take(3.0)
        assert bucket.tokens == pytest.approx(2.0)
        assert bucket.try_take(2.0)
        assert not bucket.try_take(0.5)

    def test_failed_take_is_not_a_partial_debit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=4.0, clock=clock)
        assert not bucket.try_take(9.0)
        assert bucket.tokens == pytest.approx(4.0)

    def test_refills_at_rate_and_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=6.0, clock=clock)
        assert bucket.try_take(6.0)
        clock.advance(1.0)
        assert bucket.tokens == pytest.approx(2.0)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(6.0)

    def test_refill_unblocks_a_denied_take(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_take(2.0)
        assert not bucket.try_take(1.0)
        clock.advance(1.0)
        assert bucket.try_take(1.0)

    @pytest.mark.parametrize("rate,burst", [(0.0, 1.0), (1.0, 0.0), (-1, 5)])
    def test_rejects_non_positive_parameters(self, rate, burst):
        with pytest.raises(QueryError):
            TokenBucket(rate=rate, burst=burst)


# -- governor decisions ------------------------------------------------------


class TestCostGovernor:
    def test_admits_within_budget_and_reserves_full_cost(self):
        governor = make_governor(budget=10.0)
        decision = governor.decide("t", 4.0)
        assert decision.action == ADMIT
        assert decision.reserved_cost == pytest.approx(4.0)
        assert governor.inflight_cost == pytest.approx(4.0)

    def test_degrades_when_budget_is_full(self):
        governor = make_governor(budget=10.0, degraded_cost=1.0)
        assert governor.decide("t", 8.0).action == ADMIT
        decision = governor.decide("t", 8.0)
        assert decision.action == DEGRADE
        assert decision.reserved_cost == pytest.approx(1.0)
        assert governor.inflight_cost == pytest.approx(9.0)

    def test_sheds_beyond_degrade_headroom(self):
        governor = make_governor(
            budget=2.0, degraded_cost=1.0, degrade_headroom=1.0
        )
        assert governor.decide("t", 2.0).action == ADMIT
        decision = governor.decide("t", 2.0)
        assert decision.action == SHED
        assert decision.reserved_cost == 0.0
        # Shed reserves nothing: in-flight cost unchanged.
        assert governor.inflight_cost == pytest.approx(2.0)

    def test_non_degradable_goes_straight_to_shed(self):
        governor = make_governor(budget=2.0, degrade_headroom=100.0)
        assert governor.decide("t", 2.0).action == ADMIT
        decision = governor.decide("t", 2.0, degradable=False)
        assert decision.action == SHED

    def test_release_returns_budget(self):
        governor = make_governor(budget=5.0)
        decision = governor.decide("t", 5.0)
        assert governor.decide("t", 5.0, degradable=False).action == SHED
        governor.release(decision.reserved_cost)
        assert governor.inflight_cost == pytest.approx(0.0)
        assert governor.decide("t", 5.0).action == ADMIT

    def test_release_never_goes_negative(self):
        governor = make_governor(budget=5.0)
        governor.release(99.0)
        assert governor.inflight_cost == 0.0

    def test_estimate_floors_at_one_page(self, session_db):
        """A probe that selects no cluster is still charged one page."""
        store = session_db["dm"]
        extent = store.rtree.data_space.rect
        beside = Rect(
            extent.max_x + 10.0,
            extent.min_y,
            extent.max_x + 20.0,
            extent.max_y,
        )
        request = UniformRequest(beside, 0.5 * store.max_lod)
        box = request.query_box(store.e_cap)
        assert store.clusters.index.candidates(box) == []
        governor = CostGovernor(budget=1e9)
        with QueryEngine(store, workers=1, governor=governor) as engine:
            assert engine.submit(request).result(timeout=30).ok
            charged = engine.registry.histograms()["slo.estimated_cost"]
        assert (charged.count, charged.total) == (1, 1.0)

    def test_throttled_tenant_degrades_despite_budget_room(self):
        clock = FakeClock()
        governor = make_governor(
            budget=100.0, tenant_rate=1.0, tenant_burst=4.0, clock=clock
        )
        assert governor.decide("a", 4.0).action == ADMIT
        decision = governor.decide("a", 4.0)
        assert decision.action == DEGRADE
        assert decision.throttled
        # Another tenant's bucket is untouched.
        other = governor.decide("b", 4.0)
        assert other.action == ADMIT
        assert not other.throttled

    def test_throttled_tenant_recovers_with_the_clock(self):
        clock = FakeClock()
        governor = make_governor(
            budget=100.0, tenant_rate=2.0, tenant_burst=4.0, clock=clock
        )
        assert governor.decide("a", 4.0).action == ADMIT
        assert governor.decide("a", 4.0).throttled
        clock.advance(2.0)
        assert not governor.decide("a", 4.0).throttled

    def test_tenant_charge_is_capped_at_burst(self):
        # A query costlier than the whole bucket must not starve
        # forever: the charge caps at the burst size.
        clock = FakeClock()
        governor = make_governor(
            budget=1000.0, tenant_rate=1.0, tenant_burst=5.0, clock=clock
        )
        decision = governor.decide("a", 500.0)
        assert decision.action == ADMIT
        assert not decision.throttled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 0.0},
            {"budget": -1.0},
            {"budget": 5.0, "degraded_cost": 0.0},
            {"budget": 5.0, "degrade_headroom": 0.5},
            {"budget": 5.0, "tenant_rate": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(QueryError):
            make_governor(**kwargs)


# -- engine integration ------------------------------------------------------


def _mid_request(store) -> UniformRequest:
    # The full extent: on the small session dataset a fractional ROI
    # can legitimately intersect zero nodes, which would make the
    # "degraded answers are real results" assertions vacuous.
    extent = store.rtree.data_space.rect
    return UniformRequest(extent, 0.2 * store.max_lod)


class TestEngineAdmission:
    def test_submit_without_governor_is_ungoverned(self, session_db):
        store = session_db["dm"]
        with QueryEngine(store, workers=2) as engine:
            outcome = engine.submit(_mid_request(store)).result(timeout=30)
        assert outcome.ok
        assert not outcome.degraded
        assert not outcome.shed

    def test_admitted_request_runs_full_fidelity(self, session_db):
        store = session_db["dm"]
        governor = CostGovernor(budget=1e9)
        with QueryEngine(store, workers=2, governor=governor) as engine:
            request = _mid_request(store)
            outcome = engine.submit(request).result(timeout=30)
            reference = store.uniform_query(request.roi, request.lod)
        assert outcome.ok and not outcome.degraded and not outcome.shed
        assert outcome.result.nodes == reference.nodes
        assert engine.registry.counters()["engine.admitted"] == 1
        # Reservation released on completion.
        assert governor.inflight_cost == 0.0

    def test_overload_degrades_to_base_mesh(self, session_db):
        store = session_db["dm"]
        # Budget below any real estimate, huge headroom: every request
        # takes the degraded tier.
        governor = CostGovernor(budget=0.5, degrade_headroom=1000.0)
        with QueryEngine(store, workers=2, governor=governor) as engine:
            outcome = engine.submit(_mid_request(store)).result(timeout=30)
            counters = engine.registry.counters()
        assert outcome.ok
        assert outcome.degraded
        assert not outcome.shed
        assert len(outcome.result) > 0
        assert counters["engine.overload_degraded"] == 1
        assert counters["engine.degraded"] == 1

    def test_shed_is_a_well_formed_degraded_result(self, session_db):
        store = session_db["dm"]
        governor = CostGovernor(budget=1.0, degrade_headroom=1.0)
        # Fill the budget so the next submission must shed.
        governor.decide("filler", 1.0)
        with QueryEngine(store, workers=2, governor=governor) as engine:
            request = _mid_request(store)
            future = engine.submit(request)
            # Shed answers resolve inline, never touching the executor.
            assert future.done()
            outcome = future.result()
            counters = engine.registry.counters()
        assert outcome.ok, f"shed outcome errored: {outcome.error}"
        assert outcome.shed
        assert outcome.degraded
        # The answer is the base mesh clipped to the ROI: every node of
        # the real degraded query, at zero queueing.
        reference = store.uniform_query(request.roi, store.max_lod)
        assert outcome.result.nodes == reference.nodes
        assert counters["engine.shed"] == 1

    def test_shed_non_degradable_surfaces_typed_error(self, session_db):
        store = session_db["dm"]
        governor = CostGovernor(budget=1.0, degrade_headroom=1.0)
        governor.decide("filler", 1.0)
        extent = store.rtree.data_space.rect
        plane = QueryPlane(
            extent, 0.2 * store.max_lod, 0.6 * store.max_lod
        )
        with QueryEngine(store, workers=2, governor=governor) as engine:
            outcome = engine.submit(SingleBaseRequest(plane)).result(
                timeout=30
            )
        assert not outcome.ok
        assert isinstance(outcome.error, OverloadShedError)
        assert outcome.shed

    def test_cache_hit_bypasses_admission(self, session_db):
        from repro.core.cache import SemanticCache

        store = session_db["dm"]
        # Budget big enough to admit the first request at full
        # fidelity (which populates the cache), headroom 1.0 so a
        # saturated budget sheds instead of degrading.
        governor = CostGovernor(budget=1e6, degrade_headroom=1.0)
        cache = SemanticCache(8 * 1024 * 1024)
        request = _mid_request(store)
        with QueryEngine(
            store, workers=2, governor=governor, cache=cache
        ) as engine:
            first = engine.submit(request).result(timeout=30)
            assert not first.degraded and not first.shed
            # Saturate the budget: an estimated request would shed now.
            governor.decide("filler", 1e6)
            second = engine.submit(request).result(timeout=30)
        assert first.ok
        assert second.ok
        assert not second.shed and not second.degraded
        assert second.result.nodes == first.result.nodes

    def test_closed_engine_releases_admission_state(self, session_db):
        """A refused enqueue must not leak the reservation or the
        queue-depth gauge, and surfaces as a typed error."""
        store = session_db["dm"]
        governor = CostGovernor(budget=1e9)
        engine = QueryEngine(store, workers=2, governor=governor)
        engine.close()
        request = _mid_request(store)
        with pytest.raises(QueryError, match="engine is closed"):
            engine.submit(request)
        assert governor.inflight_cost == 0
        assert engine.registry.gauge("slo.queue_depth").value == 0
        with pytest.raises(QueryError, match="engine is closed"):
            engine.run_batch([request])
        assert engine.registry.gauge("slo.queue_depth").value == 0

    def test_batch_bypasses_a_saturated_governor(self, session_db):
        """``run_batch`` is closed-loop and stays ungoverned: a budget
        that would shed every ``submit`` leaves a batch untouched."""
        store = session_db["dm"]
        governor = CostGovernor(budget=1.0, degrade_headroom=1.0)
        governor.decide("filler", 1.0)
        request = _mid_request(store)
        with QueryEngine(store, workers=2, governor=governor) as engine:
            assert engine.submit(request).result(timeout=30).shed
            outcomes = engine.run_batch([request, request])
            counters = engine.registry.counters()
        reference = store.uniform_query(request.roi, request.lod)
        for outcome in outcomes:
            assert outcome.ok and not outcome.shed and not outcome.degraded
            assert outcome.result.nodes == reference.nodes
        assert counters["engine.shed"] == 1
        assert "engine.admitted" not in counters
        assert governor.inflight_cost == 1.0


class TestOverloadStress:
    def test_flood_keeps_queue_bounded_and_sheds_cleanly(self, session_db):
        """workers=8, offered rate >> capacity (a zero-gap flood).

        Asserts the two governor promises: in-flight reserved cost
        never exceeds ``budget * degrade_headroom`` (so the executor
        queue is bounded however hard the flood), and every shed
        response is a well-formed degraded result, not an error.
        """
        store = session_db["dm"]
        budget, headroom = 12.0, 2.0
        governor = CostGovernor(
            budget=budget,
            degraded_cost=1.0,
            degrade_headroom=headroom,
        )
        ceiling = budget * headroom
        n = 400
        request = _mid_request(store)
        max_seen = 0.0
        max_depth = 0.0
        with QueryEngine(store, workers=8, governor=governor) as engine:
            depth_gauge = engine.registry.gauge("slo.queue_depth")
            futures = []
            for _ in range(n):
                futures.append(engine.submit(request))
                max_seen = max(max_seen, governor.inflight_cost)
                max_depth = max(max_depth, depth_gauge.value)
            outcomes = [f.result(timeout=60) for f in futures]
            counters = engine.registry.counters()
        assert max_seen <= ceiling + 1e-6, (
            f"in-flight cost reached {max_seen}, ceiling {ceiling}"
        )
        # Every queued task holds a reservation of at least one cost
        # unit, so the queue depth inherits the same ceiling.
        assert max_depth <= ceiling + 1e-6
        assert governor.inflight_cost == pytest.approx(0.0)
        n_shed = sum(1 for o in outcomes if o.shed)
        assert n_shed > 0, "flood never exercised the shed path"
        assert counters.get("engine.shed", 0) == n_shed
        for outcome in outcomes:
            assert outcome.ok, f"flood produced an error: {outcome.error}"
            if outcome.shed:
                assert outcome.degraded
                assert outcome.result is not None
        assert (
            counters.get("engine.admitted", 0)
            + counters.get("engine.overload_degraded", 0)
            + n_shed
            == n
        )
