"""Tests of the harness itself: ``python -m pytest perf -q`` (< 30 s)."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from perf import compare, metrics
from perf.hostspeed import NOMINAL_NS, SENSITIVITY, SpeedLog
from perf.trace import (
    Tracer,
    build_targets,
    holders,
    layer_table,
    layer_targets,
    self_times,
)
from perf.workloads import (
    WORKLOADS,
    flight_requests,
    patch_requests,
    ridge_dem,
    uniform_requests,
    viewdep_requests,
    zipf_requests,
)
from repro.geometry.primitives import Rect

PERF = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """A quarter-size (2k-point) store with ``zipf_cached``'s tiers."""
    built = WORKLOADS["zipf_cached"].setup(
        tmp_path_factory.mktemp("db"), smoke=True
    )
    yield built
    built.close()


# -- statistics ---------------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert metrics.supported(1000, 0.99)
    assert not metrics.supported(999, 0.99)
    assert metrics.supported(200, 0.95)
    assert not metrics.supported(199, 0.95)
    assert not metrics.supported(30, 0.99)


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert metrics.percentile(ordered, 0.50) == 50
    assert metrics.percentile(ordered, 0.99) == 99
    assert metrics.percentile([7.0], 0.99) == 7.0


def test_spread_is_range_over_median():
    assert metrics.spread([9.0, 10.0, 12.0]) == pytest.approx(0.3)


def test_nominal_time_divides_by_host_slowdown():
    log = SpeedLog()
    log.times = [0, 1000, 2000]
    log.readings = [NOMINAL_NS, NOMINAL_NS, 2 * NOMINAL_NS]
    # At nominal speed a timing is unchanged; where the reference
    # takes twice as long it shrinks by 2**SENSITIVITY; between
    # readings the reference is interpolated.
    assert list(log.nominal([0], [100])) == pytest.approx([100.0])
    assert list(log.nominal([1950], [100])) == pytest.approx(
        [100 / 2**SENSITIVITY]
    )
    assert list(log.nominal([1450], [100])) == pytest.approx(
        [100 / 1.5**SENSITIVITY]
    )


def test_waiting_is_left_as_measured():
    log = SpeedLog()
    log.times = [0, 1000]
    log.readings = [2 * NOMINAL_NS, 2 * NOMINAL_NS]
    slow = 2**SENSITIVITY
    # Three ops that only computed and one that also waited 500: the
    # computing (the median op's 100) shrinks, the waiting does not.
    nominal = log.nominal([0, 0, 0, 0], [100, 100, 100, 600], waits=True)
    assert list(nominal) == pytest.approx([100 / slow] * 3 + [100 / slow + 500])


# -- spans --------------------------------------------------------------------------


def _span(span_id, parent, name, thread, start, end, request=1):
    return [span_id, parent, request, name, thread, start, end, 0]


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(1, None, "request", 1, 0, 100),
        _span(2, 1, "a", 1, 10, 40),
        _span(3, 2, "a.child", 1, 20, 30),
        _span(4, 1, "engine.wait", 1, 45, 95),
        # Pool-thread work: its parent is the request, it runs while
        # the client waits, and it must not be counted twice.
        _span(5, 1, "pool", 2, 50, 90),
    ]
    times = self_times(spans)
    assert times == {1: 20, 2: 20, 3: 10, 4: 10, 5: 40}
    assert sum(times.values()) == 100


def test_layer_table_sums_to_the_root_span():
    spans = [
        _span(1, None, "request", 1, 0, 100),
        _span(2, 1, "a", 1, 10, 40),
        _span(6, None, "request", 1, 200, 260, request=6),
        _span(7, 6, "a", 1, 210, 220, request=6),
        _span(9, None, "outside", 1, 300, 310, request=None),
    ]
    table = layer_table(spans)
    assert table.roots == {"request": 2}
    assert table.root_ns["request"] == 160
    assert table.self_ns[("request", "a")] == 40
    assert sum(
        ns for (root, _), ns in table.self_ns.items() if root == "request"
    ) == 160
    assert table.ms_per_root("request", "a") == pytest.approx(20e-6)
    assert table.unattributed_ratio("request") == pytest.approx(120 / 160)
    assert table.children[("request", "a")] == 2


def _holders(target):
    """Every place the target's original object is reachable from."""
    if isinstance(target.owner, type):
        return [(target.owner, target.attr)]
    return holders(getattr(target.owner, target.attr))


def test_install_and_restore_leave_every_attribute_identical(env):
    targets = layer_targets() + build_targets()
    holders = [h for target in targets for h in _holders(target)]
    before = [vars(owner)[key] for owner, key in holders]
    # A function imported by value is patched wherever it is held.
    assert len(holders) > len(targets)
    request = uniform_requests(5, env.bounds, env.max_lod, 1)[0]
    plain = set(env.engine.submit(request).result().result.nodes)

    tracer = Tracer()
    with tracer.installed(targets):
        assert all(
            vars(owner)[key] is not original
            for (owner, key), original in zip(holders, before)
        )
        with tracer.request():
            traced = set(env.engine.submit(request).result().result.nodes)
    assert traced == plain
    assert {s[3] for s in tracer.spans} >= {"request", "engine.submit"}
    assert all(
        vars(owner)[key] is original
        for (owner, key), original in zip(holders, before)
    )
    n_spans = len(tracer.spans)
    after = set(env.engine.submit(request).result().result.nodes)
    assert after == plain
    assert len(tracer.spans) == n_spans  # nothing records once removed


# -- workloads ----------------------------------------------------------------------


BOUNDS = Rect(0.0, 0.0, 5120.0, 5120.0)


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: uniform_requests(seed, BOUNDS, 100.0, 60),
        lambda seed: viewdep_requests(seed, BOUNDS, 100.0, 60),
        lambda seed: zipf_requests(seed, BOUNDS, 100.0, 60, hotspots=20),
        lambda seed: flight_requests(seed, BOUNDS, 100.0, 30),
        lambda seed: [
            (p.region, p.heights.tolist())
            for p in patch_requests(seed, ridge_dem(), 5)
        ],
    ],
)
def test_requests_are_a_pure_function_of_the_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_uniform_mix_is_the_same_for_every_seed():
    def mix(seed):
        return sorted(
            (round(r.roi.area / BOUNDS.area, 6), r.lod)
            for r in uniform_requests(seed, BOUNDS, 100.0, 60)
        )

    assert mix(1) == mix(2)


def test_every_seed_flies_the_same_routes():
    def frames(seed):
        return [
            sorted((r.roi.min_x, r.roi.min_y, r.lod) for r in path)
            for path in flight_requests(seed, BOUNDS, 100.0, 30)
        ]

    assert frames(1) == frames(2)


def test_counts_repeat_across_passes(env):
    workload = WORKLOADS["zipf_cached"]
    requests = workload.requests(env, 3, smoke=True)
    workload.warm_up(env, requests)
    first = workload.run_pass(env, requests, 0.0, sample=True)
    second = workload.run_pass(env, requests, 0.0)
    assert first.failed == second.failed == 0
    assert first.counts == second.counts
    assert first.counts["cache_hits"] > 0
    assert len(first.samples) >= 100


# -- the benchmark's own files --------------------------------------------------------


def test_nothing_under_perf_imports_the_old_benchmarks():
    for path in PERF.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                assert not name.startswith(("repro.bench", "benchmarks")), (
                    f"{path.name} imports {name}"
                )


def test_benchmark_json_matches_the_code():
    spec = json.loads((PERF.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["perf"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_compare_verdicts():
    latency = metrics.Metric("latency_p50_ms", "ms", "lower", 0.10)
    qps = metrics.Metric("throughput_qps", "1/s", "higher", 0.10)
    exact = metrics.Metric("da_per_query", "pages", "lower", 0.0, exact=True)
    assert compare.verdict(latency, 1.0, 1.09, 0.02) == "ok"
    assert compare.verdict(latency, 1.0, 1.11, 0.02) == "regressed"
    assert compare.verdict(latency, 1.0, 1.50, 0.20) == "unresolved"
    assert compare.verdict(qps, 100.0, 91.0, 0.02) == "ok"
    assert compare.verdict(qps, 100.0, 89.0, 0.02) == "regressed"
    assert compare.verdict(exact, 31.0, 31.0, 0.5) == "ok"
    assert compare.verdict(exact, 31.0, 31.1, 0.5) == "regressed"
