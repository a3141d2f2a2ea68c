"""One experiment definition per paper figure and in-text table.

Every function returns a :class:`~repro.bench.reporting.SeriesTable`
whose rows are what the corresponding figure plots: the swept
parameter against average disk accesses per method.  DESIGN.md's
per-experiment index maps figure ids to these functions; the
``benchmarks/`` suite executes them and records results.
"""

from __future__ import annotations

from repro.bench.cache import ExperimentEnv
from repro.bench.reporting import SeriesTable
from repro.bench.runner import (
    UNIFORM_METHODS,
    VIEWDEP_METHODS,
    average_over,
    measure_uniform,
    measure_viewdep,
)
from repro.bench.workload import (
    ANGLE_SWEEP,
    FIXED_ANGLE_FRACTION,
    FIXED_EMIN_FRACTION,
    LOD_SWEEP,
    Workload,
)
from repro.core.connectivity import connection_statistics
from repro.storage.record import PM_RECORD_SIZE, dm_record_size
from repro.terrain.datasets import TerrainDataset

__all__ = [
    "uniform_varying_roi",
    "uniform_varying_lod",
    "viewdep_varying_roi",
    "viewdep_varying_lod",
    "viewdep_varying_angle",
    "connection_table",
    "storage_overhead_table",
]


def uniform_varying_roi(
    env: ExperimentEnv,
    workload: Workload,
    roi_sweep: list[float],
    experiment: str,
) -> SeriesTable:
    """Figure 6(a)/(c): uniform mesh, varying ROI, LOD = dataset average."""
    table = SeriesTable(
        experiment,
        f"uniform mesh, varying ROI — {env.dataset.name} "
        f"({env.dataset.n_points} points)",
        "roi_pct",
        UNIFORM_METHODS,
        meta=_meta(env, workload),
    )
    lod = workload.average_lod()
    centers = workload.centers()
    for fraction in roi_sweep:
        values = average_over(
            centers,
            lambda c: measure_uniform(env, workload.roi(fraction, c), lod),
        )
        table.add_row(fraction * 100, values)
    return table


def uniform_varying_lod(
    env: ExperimentEnv,
    workload: Workload,
    fixed_roi: float,
    experiment: str,
    lod_sweep: list[float] = LOD_SWEEP,
) -> SeriesTable:
    """Figure 6(b)/(d): uniform mesh, varying LOD, fixed ROI."""
    table = SeriesTable(
        experiment,
        f"uniform mesh, varying LOD — {env.dataset.name} "
        f"(ROI {fixed_roi:.0%})",
        "lod_pct_of_max",
        UNIFORM_METHODS,
        meta=_meta(env, workload),
    )
    centers = workload.centers()
    for fraction in lod_sweep:
        lod = workload.uniform_lod(fraction)
        values = average_over(
            centers,
            lambda c: measure_uniform(env, workload.roi(fixed_roi, c), lod),
        )
        table.add_row(fraction * 100, values)
    return table


def viewdep_varying_roi(
    env: ExperimentEnv,
    workload: Workload,
    roi_sweep: list[float],
    experiment: str,
) -> SeriesTable:
    """Figure 8(a)/(d): viewpoint-dependent mesh, varying ROI.

    Angle fixed at half ``theta_max``; ``e_min`` at the dataset's
    average LOD (the analog of the uniform sweeps' LOD setting).
    """
    table = SeriesTable(
        experiment,
        f"viewpoint-dependent mesh, varying ROI — {env.dataset.name}",
        "roi_pct",
        VIEWDEP_METHODS,
        meta=_meta(env, workload),
    )
    e_min = workload.average_lod()
    centers = workload.centers()
    for fraction in roi_sweep:

        def measure(c):
            roi = workload.roi(fraction, c)
            plane = workload.plane(roi, e_min, FIXED_ANGLE_FRACTION)
            return measure_viewdep(env, plane)

        table.add_row(fraction * 100, average_over(centers, measure))
    return table


def viewdep_varying_lod(
    env: ExperimentEnv,
    workload: Workload,
    fixed_roi: float,
    experiment: str,
    emin_sweep: list[float] = LOD_SWEEP,
) -> SeriesTable:
    """Figure 8(b)/(e): viewpoint-dependent mesh, varying ``e_min``.

    Angle stays at half ``theta_max``; ``e_max`` follows from the
    angle, as in the paper.
    """
    table = SeriesTable(
        experiment,
        f"viewpoint-dependent mesh, varying e_min — {env.dataset.name} "
        f"(ROI {fixed_roi:.0%})",
        "emin_pct_of_max",
        VIEWDEP_METHODS,
        meta=_meta(env, workload),
    )
    centers = workload.centers()
    for fraction in emin_sweep:
        e_min = workload.uniform_lod(fraction)

        def measure(c):
            roi = workload.roi(fixed_roi, c)
            plane = workload.plane(roi, e_min, FIXED_ANGLE_FRACTION)
            return measure_viewdep(env, plane)

        table.add_row(fraction * 100, average_over(centers, measure))
    return table


def viewdep_varying_angle(
    env: ExperimentEnv,
    workload: Workload,
    fixed_roi: float,
    experiment: str,
    angle_sweep: list[float] = ANGLE_SWEEP,
) -> SeriesTable:
    """Figure 8(c)/(f): viewpoint-dependent mesh, varying angle.

    ``e_min`` fixed at 1% of the maximum LOD "to allow for a large
    angle range" (paper Section 6.2).
    """
    table = SeriesTable(
        experiment,
        f"viewpoint-dependent mesh, varying angle — {env.dataset.name} "
        f"(ROI {fixed_roi:.0%}, e_min 1%)",
        "angle_pct_of_max",
        VIEWDEP_METHODS,
        meta=_meta(env, workload),
    )
    e_min = workload.uniform_lod(FIXED_EMIN_FRACTION)
    centers = workload.centers()
    for fraction in angle_sweep:

        def measure(c):
            roi = workload.roi(fixed_roi, c)
            plane = workload.plane(roi, e_min, fraction)
            return measure_viewdep(env, plane)

        table.add_row(fraction * 100, average_over(centers, measure))
    return table


def connection_table(datasets: list[TerrainDataset]) -> SeriesTable:
    """Section 4 in-text statistics: similar-LOD vs total connections.

    The paper reports ~12 similar-LOD connection points on both
    datasets versus ~180 (2M) and ~840 (17M) total: the similar-LOD
    count is size-independent while the total grows with the dataset.
    """
    table = SeriesTable(
        "tab_conn",
        "connection points per node: similar-LOD list vs total",
        "n_points",
        ["avg_similar", "max_similar", "avg_total", "max_total"],
    )
    for dataset in datasets:
        stats = connection_statistics(
            dataset.pm, dataset.connections, include_totals=True
        )
        table.add_row(dataset.n_points, {k: round(v, 1) for k, v in stats.items()})
    return table


def storage_overhead_table(env: ExperimentEnv) -> SeriesTable:
    """DM's storage overhead versus PM ("a very small overhead").

    Rows: bytes per node of each record format — the DM record is the
    PM tuple (minus the footprint) plus its connection list.
    """
    table = SeriesTable(
        "tab_storage",
        f"storage per node — {env.dataset.name}",
        "metric",
        ["PM", "DM"],
    )
    connections = env.dataset.connections
    sizes = [len(connections.get(node.id, [])) for node in env.dataset.pm.nodes]
    n = max(1, len(sizes))
    dm_bytes = sum(dm_record_size(k) for k in sizes) / n
    table.add_row(0, {"PM": PM_RECORD_SIZE, "DM": round(dm_bytes, 1)})
    table.meta["avg_connections"] = round(sum(sizes) / n, 2)
    table.meta["n_nodes"] = len(sizes)
    return table


def _meta(env: ExperimentEnv, workload: Workload) -> dict[str, object]:
    return {
        "dataset": env.dataset.name,
        "n_points": env.dataset.n_points,
        "locations": workload.n_locations,
        "seed": workload.seed,
    }
