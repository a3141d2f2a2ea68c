"""Ablations on the paper's per-node DM layout (DESIGN.md).

The per-node layout (:class:`PaperLayoutStore`: a record heap under a
per-node R*-tree) is built twice over the benchmark dataset with one
design knob changed:

* **heap clustering** — the default clusters DM records in the STR
  packing order of their (x, y, e) segments (index-aligned); the
  alternative is Hilbert (x, y) order with LOD as tiebreak (the naive
  reading of the paper's "(x, y) clustering preserved");
* **connection-list compression** — delta+varint coded connection
  lists (the extension motivated by the paper's reference [2]) versus
  plain arrays.

A store's cluster runs are STR tiles and hold plain lists; these
ablations measure the choices on the layout the paper describes.
"""

import tempfile
from pathlib import Path

from benchmarks.conftest import emit
from repro.baselines.paper_layout import PaperLayoutStore
from repro.bench.reporting import SeriesTable
from repro.geometry.primitives import Rect
from repro.geometry.spacefill import hilbert_key, normalized_quantizer
from repro.storage.database import Database


def hilbert_order(nodes):
    """Node indexes in Hilbert ``(x, y)`` order, LOD as the tiebreak."""
    quantize = normalized_quantizer(Rect.from_points(nodes))
    return sorted(
        range(len(nodes)),
        key=lambda i: (
            hilbert_key(*quantize(nodes[i].x, nodes[i].y)), nodes[i].e
        ),
    )


def test_clustering_ablation(benchmark, env_2m, workload_2m):
    ds = env_2m.dataset

    def run():
        table = SeriesTable(
            "abl_clustering",
            "DM heap clustering: STR (index-aligned) vs Hilbert-(x, y)",
            "roi_pct",
            ["str_order", "hilbert_order"],
        )
        with tempfile.TemporaryDirectory() as tmp:
            db = Database(Path(tmp) / "db", pool_pages=256)
            stores = {
                "str_order": PaperLayoutStore.build(
                    ds.pm, db, ds.connections, prefix="str"
                ),
                "hilbert_order": PaperLayoutStore.build(
                    ds.pm, db, ds.connections, prefix="hilbert",
                    order=hilbert_order(ds.pm.nodes),
                ),
            }
            lod = workload_2m.average_lod()
            centers = workload_2m.centers()[:8]
            for fraction in (0.05, 0.10, 0.20):
                totals = dict.fromkeys(stores, 0)
                for center in centers:
                    roi = workload_2m.roi(fraction, center)
                    for name, store in stores.items():
                        db.begin_measured_query()
                        store.uniform_query(roi, lod)
                        totals[name] += db.disk_accesses
                table.add_row(
                    fraction * 100,
                    {
                        name: round(total / len(centers), 1)
                        for name, total in totals.items()
                    },
                )
            db.close()
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    # Index-aligned clustering should not lose to the naive order.
    for _, row in table.rows:
        assert row["str_order"] <= row["hilbert_order"] * 1.15


def test_compression_ablation(benchmark, env_2m, workload_2m):
    ds = env_2m.dataset

    def run():
        table = SeriesTable(
            "abl_compression",
            "connection-list storage: plain arrays vs delta+varint",
            "metric",
            ["plain", "compressed"],
        )
        with tempfile.TemporaryDirectory() as tmp:
            db = Database(Path(tmp) / "db", pool_pages=256)
            plain = PaperLayoutStore.build(
                ds.pm, db, ds.connections, prefix="plain"
            )
            comp = PaperLayoutStore.build(
                ds.pm, db, ds.connections, prefix="comp", compress=True
            )
            table.add_row(
                0, {"plain": plain.heap_pages, "compressed": comp.heap_pages}
            )
            lod = workload_2m.average_lod()
            plain_da = comp_da = 0
            centers = workload_2m.centers()[:8]
            for center in centers:
                roi = workload_2m.roi(0.10, center)
                db.begin_measured_query()
                plain_result = plain.uniform_query(roi, lod)
                plain_da += db.disk_accesses
                db.begin_measured_query()
                comp_result = comp.uniform_query(roi, lod)
                comp_da += db.disk_accesses
                assert set(plain_result.nodes) == set(comp_result.nodes)
            table.add_row(
                1,
                {
                    "plain": round(plain_da / len(centers), 1),
                    "compressed": round(comp_da / len(centers), 1),
                },
            )
            db.close()
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    pages_row = table.rows[0][1]
    da_row = table.rows[1][1]
    assert pages_row["compressed"] < pages_row["plain"]
    assert da_row["compressed"] <= da_row["plain"] * 1.05
