"""Quickstart: build a Direct Mesh terrain store and query it.

Walks the full pipeline on a small synthetic terrain:

1. generate terrain and triangulate it (TIN);
2. build the progressive mesh (PM) by quadric-ordered edge collapse;
3. normalise LOD and compute Direct Mesh connection lists;
4. store it in a page-based database as cluster runs, indexed by
   their (x, y, e) extents;
5. run a viewpoint-independent and a viewpoint-dependent query,
   reconstruct the meshes, and report the disk-access counts.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro.core import DirectMeshStore, build_connection_lists
from repro.geometry.plane import QueryPlane, max_angle
from repro.mesh import SimplifyConfig, simplify_to_pm
from repro.storage import Database
from repro.terrain import DEM, gaussian_hills_field, write_obj
from repro.viz import render_points


def main() -> None:
    # 1. Terrain: a dozen smooth hills, sampled at 3000 scattered points.
    field = gaussian_hills_field(size=128, n_hills=12, amplitude=90, seed=3)
    dem = DEM(field, "quickstart-hills")
    mesh = dem.to_scattered_trimesh(3000, seed=3)
    print(f"terrain: {mesh.n_vertices} points, {mesh.n_triangles} triangles")

    # 2-3. The multiresolution structure.
    pm = simplify_to_pm(mesh, SimplifyConfig(error_measure="vertical"))
    pm.normalize_lod()
    connections = build_connection_lists(pm)
    sizes = [len(v) for v in connections.values()]
    print(
        f"progressive mesh: {len(pm.nodes)} nodes, "
        f"max LOD {pm.max_lod():.2f}, "
        f"avg similar-LOD connections {sum(sizes) / len(sizes):.1f}"
    )

    # 4. The database-resident Direct Mesh.
    with tempfile.TemporaryDirectory() as tmp:
        db = Database(Path(tmp) / "db")
        store = DirectMeshStore.build(pm, db, connections)
        report = store.build_report
        assert report is not None
        print(
            f"store: {report.cluster_pages} run-segment pages in "
            f"{len(store.clusters)} clusters"
        )

        # 5a. Viewpoint-independent query: 25% of the area at a mid LOD.
        roi = mesh.bounds().scaled(0.5)
        lod = pm.lod_percentile(0.85)  # Keeps ~15% of the detail.
        db.begin_measured_query()
        result = store.uniform_query(roi, lod)
        print(
            f"\nuniform query  Q(roi=25% area, lod={lod:.2f}): "
            f"{len(result)} points, {len(result.triangles())} triangles, "
            f"{db.disk_accesses} disk accesses"
        )
        print(render_points(result.points(), width=64, height=20))

        # 5b. Viewpoint-dependent query: finest near the viewer (south),
        # coarsening northwards.  The tilt angle relative to its
        # maximum (paper Figure 7) is reported alongside.
        e_min = pm.lod_percentile(0.72)
        e_max = pm.lod_percentile(0.98)
        plane = QueryPlane(roi, e_min, e_max)
        theta_fraction = plane.angle / max_angle(store.max_lod, roi.height)
        print(
            f"\nquery plane: e {e_min:.2f} -> {e_max:.2f}, "
            f"angle = {theta_fraction:.1%} of theta_max"
        )
        db.begin_measured_query()
        viewdep = store.multi_base_query(plane)
        plan = viewdep.plan
        print(
            f"\nviewpoint-dependent query (multi-base, "
            f"{viewdep.n_range_queries} range quer"
            f"{'y' if viewdep.n_range_queries == 1 else 'ies'}"
            + (
                f", predicted gain {plan.predicted_gain:.0f}"
                if plan is not None
                else ""
            )
            + f"): {len(viewdep)} points, {db.disk_accesses} disk accesses"
        )
        print(render_points(viewdep.points(), width=64, height=20))

        # Export the viewpoint-dependent mesh for any OBJ viewer.
        vertices, triangles = viewdep.vertex_mesh()
        out = Path("results")
        out.mkdir(exist_ok=True)
        write_obj(out / "quickstart_viewdep.obj", vertices=vertices,
                  triangles=triangles)
        print(f"\nmesh exported to {out / 'quickstart_viewdep.obj'}")
        db.close()


if __name__ == "__main__":
    main()
