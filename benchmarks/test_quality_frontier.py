"""Extension experiment: the quality / disk-access frontier.

The paper fixes LOD values and compares I/O; a downstream user also
cares about the reverse view — *for a given surface accuracy, what
does each method pay?*  This experiment sweeps the LOD, measures both
the disk accesses and the actual vertical RMSE of the reconstructed
surface against the source raster, and verifies the frontier is sane:
error falls as LOD (and spend) rises, and DM's error at a given LOD
matches the other methods' (everyone returns a valid approximation —
DM is cheaper, not coarser).
"""

from benchmarks.conftest import emit
from repro.bench.reporting import SeriesTable
from repro.terrain.analysis import measure_against_field


def test_quality_vs_da(benchmark, env_2m, workload_2m):
    env = env_2m
    ds = env.dataset

    def run():
        table = SeriesTable(
            "ext_quality",
            "surface RMSE and DA per LOD (DM, uniform queries)",
            "lod_pct_of_max",
            ["rmse", "da", "nodes"],
        )
        center = workload_2m.centers()[0]
        roi = workload_2m.roi(0.10, center)
        for fraction in (0.01, 0.02, 0.05, 0.10, 0.20):
            lod = ds.pm.max_lod() * fraction
            env.database.begin_measured_query()
            result = env.dm.uniform_query(roi, lod)
            da = env.database.disk_accesses
            vertices, triangles = result.vertex_mesh()
            if len(triangles) == 0:
                continue
            err = measure_against_field(
                vertices, triangles, ds.field, samples_per_side=30
            )
            table.add_row(
                fraction * 100,
                {
                    "rmse": round(err.rmse, 3),
                    "da": da,
                    "nodes": len(result),
                },
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    rmse = table.column("rmse")
    da = table.column("da")
    # Finer LOD -> lower error, higher cost (monotone frontier).
    assert rmse == sorted(rmse)
    assert da == sorted(da, reverse=True)
    # The finest sweep point achieves error within its LOD tolerance
    # band (vertical errors are per-collapse; surfaces accumulate a
    # small factor).
    finest_lod = ds.pm.max_lod() * 0.01
    assert rmse[0] <= finest_lod * 4


def test_methods_equal_quality_at_matched_lod(benchmark, env_2m, workload_2m):
    """DM's savings are not bought with accuracy: at the same LOD, the
    PM baseline's mesh (same node set) has identical quality, and
    HDoV's (finer-or-equal versions) is at least as accurate."""
    env = env_2m
    ds = env.dataset

    def run():
        center = workload_2m.centers()[1]
        roi = workload_2m.roi(0.10, center)
        lod = ds.pm.max_lod() * 0.05
        dm_result = env.dm.uniform_query(roi, lod)
        pm_result = env.pm_store.uniform_query(roi, lod)
        hdov_result = env.hdov.uniform_query(roi, lod)
        vertices, triangles = dm_result.vertex_mesh()
        dm_err = measure_against_field(
            vertices, triangles, ds.field, samples_per_side=25
        )
        return (
            set(dm_result.nodes),
            set(pm_result.nodes),
            {n.e for n in hdov_result.nodes.values()},
            dm_err,
            lod,
        )

    dm_ids, pm_ids, hdov_lods, dm_err, lod = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert dm_ids == pm_ids  # Same approximation, by construction.
    assert all(e <= lod + 1e-9 for e in hdov_lods)  # Finer or equal.
    assert dm_err.samples > 0
