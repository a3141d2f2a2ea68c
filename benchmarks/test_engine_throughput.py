"""Serving throughput: queries/sec vs engine worker count.

This is the baseline future PRs measure against.  The store runs with
a small buffer pool and a simulated per-read device latency (see
``Pager.io_latency``) so the workload is I/O bound, as a disk-resident
terrain server would be; worker threads then overlap their read stalls
through the lock-striped buffer pool.

Asserted: >= 2x queries/sec at 4 workers vs 1 worker, and engine
results byte-identical to the sequential query processor.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import emit
from repro.bench.reporting import SeriesTable
from repro.bench.runner import measure_throughput
from repro.core import DirectMeshStore
from repro.core.engine import UniformRequest
from repro.geometry.primitives import Rect
from repro.storage import Database
from repro.terrain import dataset_by_name

N_REQUESTS = 32
WORKER_COUNTS = [1, 2, 4, 8]
POOL_PAGES = 48          # Below the working set: queries stay cold.
IO_LATENCY_S = 0.0008    # ~1ms-class device read.


@pytest.fixture(scope="module")
def serve_store(tmp_path_factory):
    dataset = dataset_by_name("foothills", 4000, seed=3)
    db = Database(
        tmp_path_factory.mktemp("serve_db"),
        pool_pages=POOL_PAGES,
        io_latency=IO_LATENCY_S,
    )
    store = DirectMeshStore.build(dataset.pm, db, dataset.connections)
    yield store
    db.close()


def _workload(store, n: int, seed: int = 17) -> list[UniformRequest]:
    rng = random.Random(seed)
    extent = store.rtree.data_space.rect
    side = 0.2 * min(extent.width, extent.height)
    requests = []
    for _ in range(n):
        x0 = extent.min_x + rng.random() * (extent.width - side)
        y0 = extent.min_y + rng.random() * (extent.height - side)
        lod = (0.2 + 0.6 * rng.random()) * store.max_lod
        requests.append(
            UniformRequest(Rect(x0, y0, x0 + side, y0 + side), lod)
        )
    return requests


def test_throughput_scales_with_workers(benchmark, serve_store):
    store = serve_store
    requests = _workload(store, N_REQUESTS)

    def run():
        table = SeriesTable(
            "engine_throughput",
            "concurrent engine: queries/sec vs worker count",
            "workers",
            ["qps", "wall_s", "speedup"],
            meta={
                "requests": N_REQUESTS,
                "pool_pages": POOL_PAGES,
                "io_latency_s": IO_LATENCY_S,
            },
        )
        base_qps = None
        for workers in WORKER_COUNTS:
            report = measure_throughput(store, requests, workers)
            if base_qps is None:
                base_qps = report.qps
            table.add_row(
                workers,
                {
                    "qps": round(report.qps, 1),
                    "wall_s": round(report.wall_s, 3),
                    "speedup": round(report.qps / base_qps, 2),
                },
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    qps = {workers: row["qps"] for workers, row in table.rows}
    assert qps[4] >= 2.0 * qps[1], (
        f"4 workers gave {qps[4]:.1f} qps vs {qps[1]:.1f} at 1 worker "
        f"(need >= 2x)"
    )


def test_engine_results_byte_identical_to_sequential(benchmark, serve_store):
    """The speedup does not change a single byte of any answer."""
    store = serve_store
    requests = _workload(store, 12, seed=23)

    def run():
        from repro.core.engine import QueryEngine

        store.database.flush()
        with QueryEngine(store, workers=4) as engine:
            return engine.run_batch(requests)

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    for request, outcome in zip(requests, outcomes):
        reference = store.uniform_query(request.roi, request.lod)
        assert outcome.result.nodes == reference.nodes
        assert outcome.result.retrieved == reference.retrieved
        vertices, triangles = outcome.result.vertex_mesh()
        want_vertices, want_triangles = reference.vertex_mesh()
        assert vertices == want_vertices
        assert triangles.tolist() == want_triangles.tolist()
