"""Open-loop harness: arrivals, workloads, scoring, report schema.

Generation is all deterministic (seeded) so these tests assert exact
replayability; the end-to-end runs go through the real engine against
the session database, once ungoverned and once with a saturated
:class:`~repro.core.admission.CostGovernor` so both report shapes are
covered.
"""

from __future__ import annotations

from itertools import islice

import pytest

from repro.bench.openloop import (
    SLO_REPORT_SCHEMA,
    OpenLoopConfig,
    OpenLoopResult,
    build_workload,
    flight_path_workload,
    poisson_arrivals,
    run_open_loop,
    suggest_budget,
    validate_slo_report,
    zipf_workload,
)
from repro.core.admission import CostGovernor
from repro.core.engine import QueryEngine, UniformRequest
from repro.errors import QueryError
from repro.geometry.primitives import Rect


def small_config(**overrides) -> OpenLoopConfig:
    kwargs = {
        "offered_rate": 500.0,
        "n_requests": 40,
        "seed": 5,
        "hotspots": 8,
        "sessions": 4,
        "tenants": 2,
    }
    kwargs.update(overrides)
    return OpenLoopConfig(**kwargs)


class TestPoissonArrivals:
    def test_deterministic_and_monotone(self):
        a = poisson_arrivals(100.0, 50, seed=3)
        b = poisson_arrivals(100.0, 50, seed=3)
        assert a == b
        assert all(later > earlier for earlier, later in zip(a, a[1:]))
        assert len(a) == 50

    def test_different_seed_different_schedule(self):
        assert poisson_arrivals(100.0, 50, seed=3) != poisson_arrivals(
            100.0, 50, seed=4
        )

    def test_mean_gap_tracks_rate(self):
        arrivals = poisson_arrivals(200.0, 4000, seed=1)
        mean_gap = arrivals[-1] / len(arrivals)
        assert mean_gap == pytest.approx(1 / 200.0, rel=0.15)


class TestWorkloads:
    def test_zipf_is_skewed_and_replayable(self, session_db):
        store = session_db["dm"]
        config = small_config()
        draws = [
            request
            for request, _ in islice(zipf_workload(store, config), 300)
        ]
        again = [
            request
            for request, _ in islice(zipf_workload(store, config), 300)
        ]
        assert draws == again
        # Hotspots keep fixed ROI+LOD, so popularity is countable.
        counts: dict[UniformRequest, int] = {}
        for request in draws:
            counts[request] = counts.get(request, 0) + 1
        assert len(counts) <= config.hotspots
        ranked = sorted(counts.values(), reverse=True)
        # Zipf head: the most popular cube dominates the tail.
        assert ranked[0] >= 3 * ranked[-1]

    def test_zipf_tenants_cycle(self, session_db):
        store = session_db["dm"]
        config = small_config()
        tenants = {
            tenant
            for _, tenant in islice(zipf_workload(store, config), 200)
        }
        assert tenants == {f"tenant-{i}" for i in range(config.tenants)}

    def test_flight_path_consecutive_cubes_overlap(self, session_db):
        store = session_db["dm"]
        config = small_config(sessions=3)
        stream = flight_path_workload(store, config)
        drawn = [next(stream) for _ in range(60)]
        # Same session every `sessions` ticks; consecutive cubes of a
        # session must overlap (the workload's defining property).
        for session in range(config.sessions):
            session_requests = [
                request
                for index, (request, _) in enumerate(drawn)
                if index % config.sessions == session
            ]
            tenants = {
                tenant
                for index, (_, tenant) in enumerate(drawn)
                if index % config.sessions == session
            }
            assert len(tenants) == 1, "sessions must be tenant-pinned"
            for prev, nxt in zip(session_requests, session_requests[1:]):
                overlap = prev.roi.intersection(nxt.roi)
                assert overlap is not None
                assert overlap.area > 0.25 * prev.roi.area

    def test_flight_path_stays_on_terrain(self, session_db):
        store = session_db["dm"]
        extent = store.clusters.index.extent.rect
        stream = flight_path_workload(store, small_config(n_requests=1))
        for _ in range(400):
            request, _ = next(stream)
            assert Rect(
                extent.min_x - 1e-6, extent.min_y - 1e-6,
                extent.max_x + 1e-6, extent.max_y + 1e-6,
            ).contains_rect(request.roi)

    def test_mixed_interleaves_both_modes(self, session_db):
        store = session_db["dm"]
        config = small_config(mode="mixed")
        mixed = [
            request
            for request, _ in islice(build_workload(store, config), 40)
        ]
        zipf = [
            request
            for request, _ in islice(
                build_workload(store, small_config(mode="zipf")), 20
            )
        ]
        assert mixed[0::2] == zipf

    def test_empty_store_raises(self):
        from types import SimpleNamespace

        empty = SimpleNamespace(
            clusters=SimpleNamespace(index=SimpleNamespace(extent=None))
        )
        with pytest.raises(QueryError):
            next(zipf_workload(empty, small_config()))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"offered_rate": 0.0},
            {"n_requests": 0},
            {"mode": "stampede"},
            {"roi_frac": 0.0},
            {"roi_frac": 1.5},
            {"hotspots": 0},
            {"sessions": 0},
            {"tenants": 0},
            {"slo_ms": 0.0},
        ],
    )
    def test_bad_knobs_raise(self, overrides):
        with pytest.raises(QueryError):
            small_config(**overrides).validate()


class TestResultScoring:
    def make_result(self, latencies_s, slo_ms=50.0, **overrides) -> OpenLoopResult:
        kwargs = dict(
            config=small_config(slo_ms=slo_ms, n_requests=len(latencies_s)),
            admission=True,
            wall_s=2.0,
            latencies_s=list(latencies_s),
            n_ok=len(latencies_s),
            n_errors=0,
            n_degraded=0,
            n_shed=0,
            n_full_within_slo=sum(
                1 for value in latencies_s if value <= slo_ms / 1000.0
            ),
            n_degraded_within_slo=0,
            max_queue_depth=3,
            dispatch_lag_s=0.001,
            counters={},
        )
        kwargs.update(overrides)
        return OpenLoopResult(**kwargs)

    def test_percentiles_are_exact(self):
        result = self.make_result([i / 1000.0 for i in range(1, 101)])
        assert result.percentile_ms(100) == pytest.approx(100.0)
        assert result.percentile_ms(50) == pytest.approx(50.5)
        assert result.percentile_ms(0) == pytest.approx(1.0)

    def test_goodput_counts_only_full_fidelity_within_slo(self):
        result = self.make_result([0.01, 0.01, 0.2, 0.2], slo_ms=50.0)
        assert result.goodput_qps == pytest.approx(2 / 2.0)
        report = result.to_json()
        assert report["goodput_slo_fraction"] == pytest.approx(2 / 4)

    def test_report_round_trips_schema(self):
        result = self.make_result([0.01] * 10)
        report = result.to_json()
        assert report["schema"] == SLO_REPORT_SCHEMA
        assert validate_slo_report(report) == []
        assert result.to_text()


class TestValidateReport:
    def valid_report(self) -> dict:
        result = TestResultScoring().make_result([0.01] * 5)
        return result.to_json()

    def test_accepts_generated_report(self):
        assert validate_slo_report(self.valid_report()) == []

    def test_rejects_non_object(self):
        assert validate_slo_report([1, 2]) != []

    def test_rejects_wrong_schema_tag(self):
        report = self.valid_report()
        report["schema"] = "repro.bench.slo/v0"
        assert any("schema" in p for p in validate_slo_report(report))

    def test_rejects_missing_number(self):
        report = self.valid_report()
        del report["goodput_qps"]
        assert any("goodput_qps" in p for p in validate_slo_report(report))

    def test_rejects_boolean_masquerading_as_count(self):
        report = self.valid_report()
        report["counts"]["shed"] = True
        assert any("counts.shed" in p for p in validate_slo_report(report))

    def test_rejects_missing_latency_key(self):
        report = self.valid_report()
        del report["latency_ms"]["p999"]
        assert any("p999" in p for p in validate_slo_report(report))

    def test_rejects_bad_mode_and_admission(self):
        report = self.valid_report()
        report["mode"] = "stampede"
        report["admission"] = "yes"
        problems = validate_slo_report(report)
        assert any("mode" in p for p in problems)
        assert any("admission" in p for p in problems)


class TestRunOpenLoop:
    def test_ungoverned_run_completes_and_validates(self, session_db):
        store = session_db["dm"]
        config = small_config(n_requests=30, offered_rate=2000.0)
        with QueryEngine(store, workers=4) as engine:
            result = run_open_loop(engine, config)
        assert result.n_requests == 30
        assert not result.admission
        assert result.n_ok + result.n_errors == 30
        assert result.n_errors == 0
        assert result.wall_s > 0
        assert validate_slo_report(result.to_json()) == []

    def test_governed_run_sheds_and_validates(self, session_db):
        store = session_db["dm"]
        config = small_config(n_requests=40, offered_rate=5000.0)
        governor = CostGovernor(budget=1.0, degrade_headroom=1.0)
        # Saturate up front so every arrival sheds: the run must still
        # complete with zero errors and a valid report.
        governor.decide("filler", 1.0)
        with QueryEngine(store, workers=4, governor=governor) as engine:
            result = run_open_loop(engine, config)
        assert result.admission
        assert result.n_errors == 0
        assert result.n_shed == 40
        assert result.n_degraded == 40  # shed answers are degraded
        report = result.to_json()
        assert report["counts"]["shed"] == 40
        assert validate_slo_report(report) == []

    def test_latency_measured_from_scheduled_arrival(self, session_db):
        # With an offered rate far above what one dispatcher can even
        # enqueue, later requests' latencies include their queue wait:
        # the p999 must exceed the p50 noticeably in a governed-less
        # flood of slow-ish requests.  (Scheduling from arrival is the
        # property; exact magnitudes are timing-dependent.)
        store = session_db["dm"]
        config = small_config(n_requests=60, offered_rate=100000.0)
        with QueryEngine(store, workers=1) as engine:
            result = run_open_loop(engine, config)
        assert result.percentile_ms(99.9) >= result.percentile_ms(50)


class TestSuggestBudget:
    def test_scales_with_workers(self, session_db):
        store = session_db["dm"]
        config = small_config()
        one = suggest_budget(store, config, workers=1)
        four = suggest_budget(store, config, workers=4)
        assert one > 0
        assert four == pytest.approx(4 * one)

    def test_priced_in_what_submit_charges(self, session_db):
        """The budget is ``2 * workers * mean cost`` in the currency
        ``submit`` debits the governor in (predicted run pages, floored
        at one), not in the R*-tree DA the reference path reads."""
        store = session_db["dm"]
        config = small_config()
        sample = 16
        governor = CostGovernor(budget=1e9)
        with QueryEngine(store, workers=2, governor=governor) as engine:
            for request, tenant in islice(
                build_workload(store, config), sample
            ):
                future = engine.submit(request, tenant=tenant)
                assert future.result(timeout=30).ok
            charged = engine.registry.histograms()["slo.estimated_cost"]
        assert charged.count == sample and charged.min >= 1.0
        assert suggest_budget(
            store, config, workers=3, sample=sample
        ) == pytest.approx(2 * 3 * charged.mean)

    def test_rejects_bad_workers(self, session_db):
        with pytest.raises(QueryError):
            suggest_budget(session_db["dm"], small_config(), workers=0)
