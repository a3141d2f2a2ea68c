"""Benchmark: progressive streaming sessions (extension experiment).

Simulates a viewer walking across the 2M-analog terrain with a radial
LOD field, served by :class:`~repro.core.streaming.EngineSession` and
spliced by a :class:`~repro.core.wire.ClientMesh`, and compares the
delta frames the session sends against a stateless server that sends
a keyframe of the whole view every step.  Asserts the headline
property: small camera steps produce low churn, so the cumulative
delta payload is a fraction of the keyframes'.
"""

from benchmarks.conftest import emit
from repro.bench.reporting import SeriesTable
from repro.core.engine import QueryEngine, SingleBaseRequest
from repro.core.streaming import EngineSession
from repro.core.wire import FLAG_KEYFRAME, ClientMesh, DeltaFrame, encode_frame
from repro.geometry.plane import RadialLodField
from repro.geometry.primitives import Rect


def test_streaming_churn_vs_step(benchmark, env_2m, workload_2m):
    env = env_2m
    ds = env.dataset
    bounds = ds.bounds()
    roi_h = bounds.height * 0.4
    roi_w = bounds.width * 0.4
    e_min = ds.pm.lod_percentile(0.85)
    e_max = ds.pm.max_lod()
    rate = e_max / (roi_h * 8)

    def view_at(vy: float) -> SingleBaseRequest:
        roi = Rect(
            bounds.center.x - roi_w / 2,
            vy,
            bounds.center.x + roi_w / 2,
            vy + roi_h,
        )
        return SingleBaseRequest(
            RadialLodField(roi, (bounds.center.x, vy), rate, e_min, e_max)
        )

    def run():
        table = SeriesTable(
            "ext_streaming",
            "delta streaming: churn and payload vs camera step size",
            "step_pct_of_view",
            ["avg_churn_pct", "delta_bytes", "keyframe_bytes"],
        )
        with QueryEngine(env.dm, workers=1) as engine:
            for step_fraction in (0.02, 0.05, 0.10, 0.25):
                session = EngineSession(engine, f"walk-{step_fraction}")
                client = ClientMesh()
                vy = bounds.min_y
                # Prime the client with the first view's keyframe.
                client.apply(session.update(view_at(vy)).payload)
                churn_total = 0.0
                delta_bytes = 0
                keyframe_bytes = 0
                n_steps = 6
                for _ in range(n_steps):
                    vy += roi_h * step_fraction
                    update = session.update(view_at(vy))
                    client.apply(update.payload)
                    assert client.active_ids == session.active_ids
                    churn_total += update.delta.churn
                    delta_bytes += len(update.payload)
                    # What a stateless server sends: the whole view.
                    nodes = update.outcome.result.nodes
                    keyframe_bytes += len(encode_frame(DeltaFrame(
                        update.frame.seq,
                        tuple(nodes[node_id] for node_id in sorted(nodes)),
                        (),
                        FLAG_KEYFRAME,
                    )))
                table.add_row(
                    step_fraction * 100,
                    {
                        "avg_churn_pct": round(
                            100 * churn_total / n_steps, 1
                        ),
                        "delta_bytes": delta_bytes,
                        "keyframe_bytes": keyframe_bytes,
                    },
                )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    # Churn grows with step size.
    churns = table.column("avg_churn_pct")
    assert churns[0] < churns[-1]
    # Small steps: deltas are a small fraction of the keyframes.
    first = table.rows[0][1]
    assert first["delta_bytes"] < first["keyframe_bytes"] * 0.5
