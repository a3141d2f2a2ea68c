"""Streaming client: delta-based terrain updates for a moving viewer.

The scenario the paper's introduction motivates — a thin client
(mobile / web) walking across a large terrain, receiving only the
*changes* to its mesh at each step.  An :class:`EngineSession` serves
each viewpoint-dependent view through the query engine and sends the
difference from the last one as a wire frame: the handful of Direct
Mesh records entering the view and the ids leaving it.  A
:class:`ClientMesh` splices each frame into its mesh locally, using
the records' self-describing connection lists.

Run:  python examples/streaming_client.py [n_steps]
"""

import sys
import tempfile
from pathlib import Path

from repro.core import (
    ClientMesh,
    DeltaFrame,
    DirectMeshStore,
    EngineSession,
    QueryEngine,
    SingleBaseRequest,
    build_connection_lists,
    encode_frame,
)
from repro.core.wire import FLAG_KEYFRAME
from repro.geometry.plane import RadialLodField
from repro.geometry.primitives import Rect
from repro.mesh import SimplifyConfig, simplify_to_pm
from repro.storage import Database
from repro.terrain import DEM, fractal_field


def main(n_steps: int = 12) -> None:
    print("building terrain store (one-off)...")
    field = fractal_field(exponent=8, seed=33)
    mesh = DEM(field, "stream").to_scattered_trimesh(8000, seed=33)
    pm = simplify_to_pm(mesh, SimplifyConfig(error_measure="vertical"))
    pm.normalize_lod()

    with tempfile.TemporaryDirectory() as tmp:
        db = Database(Path(tmp) / "db")
        store = DirectMeshStore.build(pm, db, build_connection_lists(pm))
        with QueryEngine(store, workers=1) as engine:
            session = EngineSession(engine, "walker")
            client = ClientMesh()

            bounds = mesh.bounds()
            roi_h = bounds.height * 0.45
            roi_w = bounds.width * 0.45
            step = (bounds.height - roi_h) / max(1, (n_steps - 1) * 3)
            rate = pm.max_lod() / (roi_h * 10)

            print(
                f"\n{'step':>4} {'mesh':>6} {'added':>6} {'gone':>5} "
                f"{'kept':>6} {'churn':>6} {'bytes':>8} {'pages':>5}"
            )
            total_bytes = total_pages = full_bytes = 0
            for i in range(n_steps):
                vy = bounds.min_y + i * step
                roi = Rect(
                    bounds.center.x - roi_w / 2,
                    vy,
                    bounds.center.x + roi_w / 2,
                    vy + roi_h,
                )
                view = RadialLodField(
                    roi,
                    viewer=(bounds.center.x, vy),
                    rate=rate,
                    e_min=pm.lod_percentile(0.85),
                    e_max=pm.max_lod(),
                )
                update = session.update(SingleBaseRequest(view))
                client.apply(update.payload)
                delta, pages = update.delta, update.outcome.metrics.pages_read
                total_bytes += len(update.payload)
                total_pages += pages
                # What a stateless server would send: the whole view.
                nodes = update.outcome.result.nodes
                full_bytes += len(encode_frame(DeltaFrame(
                    update.frame.seq,
                    tuple(nodes[node_id] for node_id in sorted(nodes)),
                    (),
                    FLAG_KEYFRAME,
                )))
                print(
                    f"{i:>4} {len(client):>6} {len(delta.added):>6} "
                    f"{len(delta.removed):>5} {delta.kept:>6} "
                    f"{delta.churn:>6.0%} {len(update.payload):>8} {pages:>5}"
                )

            print(
                f"\ntransfer: {total_bytes / 1024:.1f} KiB of frames vs "
                f"{full_bytes / 1024:.1f} KiB of keyframes stateless "
                f"({full_bytes / max(1, total_bytes):.1f}x saved); "
                f"{total_pages} run pages read"
            )
        db.close()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
