"""Ablation: the multi-base optimisation (paper formulas (1)-(9)).

Three checks beyond Figure 8's end-to-end numbers:

* the cost model's gain curve over 1, 2, 4, ... strips has the shape
  formula (7) predicts (an optimum, not monotone descent);
* formula (9): splitting the top plane *in the middle* beats
  off-centre splits, measured against the real tree;
* the planner's strip count actually reduces measured disk accesses
  versus forced single-base on steep planes.
"""

from benchmarks.conftest import emit
from repro.bench.reporting import SeriesTable
from repro.core.cost_model import MultiBasePlan
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect


def _steep_plane(env, workload, roi_fraction=0.15):
    roi = workload.roi(roi_fraction, workload.centers()[0])
    return workload.plane(roi, env.dataset.pm.max_lod() * 0.01, 0.9)


def _split_at(plane, fraction):
    """Split a plane's ROI at ``fraction`` along the dominant view
    axis; each half keeps the plane's LOD field over its own ROI."""
    roi = plane.roi
    dx, dy = plane.direction
    if abs(dy) >= abs(dx):
        cut = roi.min_y + roi.height * fraction
        halves = (
            Rect(roi.min_x, roi.min_y, roi.max_x, cut),
            Rect(roi.min_x, cut, roi.max_x, roi.max_y),
        )
    else:
        cut = roi.min_x + roi.width * fraction
        halves = (
            Rect(roi.min_x, roi.min_y, cut, roi.max_y),
            Rect(cut, roi.min_y, roi.max_x, roi.max_y),
        )
    return [
        QueryPlane(sub, *plane.lod_range_over(sub), plane.direction)
        for sub in halves
    ]


def _forced_plan(env, plane, parts):
    strips = plane.split_across_direction(parts)
    est = sum(env.dm.cost_model.estimate_plane(s) for s in strips)
    single = env.dm.cost_model.estimate_plane(plane)
    return MultiBasePlan(strips, est, single)


def test_gain_curve_and_measured_da(benchmark, env_2m, workload_2m):
    env = env_2m
    plane = _steep_plane(env, workload_2m)

    def run():
        table = SeriesTable(
            "abl_multibase",
            "multi-base: estimated vs measured DA by strip count",
            "strips",
            ["estimated", "measured"],
        )
        for parts in (1, 2, 4, 8, 16):
            plan = _forced_plan(env, plane, parts)
            env.database.begin_measured_query()
            env.dm.multi_base_query(plane, plan=plan)
            table.add_row(
                parts,
                {
                    "estimated": round(plan.estimated_da, 1),
                    "measured": env.database.disk_accesses,
                },
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    measured = table.column("measured")
    # Splitting once helps on a steep plane...
    assert min(measured[1:]) < measured[0]
    # ...but over-splitting stops paying (per-query index descents).
    assert measured[-1] >= min(measured)
    # The cost model ranks single-base vs best split correctly.
    estimated = table.column("estimated")
    assert estimated[1] < estimated[0]


def test_middle_split_beats_off_centre(benchmark, env_2m, workload_2m):
    env = env_2m
    plane = _steep_plane(env, workload_2m)

    def run():
        table = SeriesTable(
            "abl_middle_split",
            "2-way split position: estimated + measured DA",
            "split_fraction",
            ["estimated", "measured"],
        )
        for fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
            halves = _split_at(plane, fraction)
            est = sum(env.dm.cost_model.estimate_plane(h) for h in halves)
            plan = MultiBasePlan(halves, est, est)
            env.database.begin_measured_query()
            env.dm.multi_base_query(plane, plan=plan)
            table.add_row(
                fraction,
                {
                    "estimated": round(est, 1),
                    "measured": env.database.disk_accesses,
                },
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    estimates = dict(zip(table.x_values(), table.column("estimated")))
    assert estimates[0.5] == min(estimates.values())


def test_planner_matches_or_beats_single_base(benchmark, env_2m, workload_2m):
    env = env_2m

    def run():
        table = SeriesTable(
            "abl_planner",
            "planned multi-base vs forced single-base (measured DA)",
            "angle_pct",
            ["single", "planned", "strips"],
        )
        for angle_fraction in (0.25, 0.5, 0.75, 0.9):
            roi = workload_2m.roi(0.15, workload_2m.centers()[1])
            plane = workload_2m.plane(
                roi, env.dataset.pm.max_lod() * 0.01, angle_fraction
            )
            env.database.begin_measured_query()
            env.dm.single_base_query(plane)
            single = env.database.disk_accesses
            plan = env.dm.cost_model.plan_multi_base(plane)
            env.database.begin_measured_query()
            env.dm.multi_base_query(plane, plan=plan)
            planned = env.database.disk_accesses
            table.add_row(
                angle_fraction * 100,
                {
                    "single": single,
                    "planned": planned,
                    "strips": plan.n_queries,
                },
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    for _, row in table.rows:
        assert row["planned"] <= row["single"] * 1.1
