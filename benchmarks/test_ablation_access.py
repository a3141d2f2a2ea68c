"""Ablations: I/O access patterns and HDoV's visibility machinery.

* **abl_access_pattern** — the paper reports one number (disk access
  count); the trace recorder characterises *how* each method reads:
  HDoV streams whole versions (the most sequential), DM reads whole
  cluster runs (close behind), PM hops through B+-tree paths
  (scattered).  On spinning media the gap between PM and the others
  would widen further.
* **abl_visibility** — the paper observes HDoV's visibility selection
  "does not help ... much because obstruction among the areas of the
  terrain is not as much as in the synthetic city model".  Comparing
  the HDoV-tree against the plain LOD-R-tree (identical structure,
  no DoV) on our open terrain reproduces that: the two cost nearly
  the same.
"""

import tempfile
from pathlib import Path

from benchmarks.conftest import emit
from repro.bench.reporting import SeriesTable
from repro.index.hdov import LodRTree
from repro.storage.database import Database
from repro.storage.trace import IOTracer


def test_access_patterns(benchmark, env_2m, workload_2m):
    env = env_2m
    ds = env.dataset
    lod = workload_2m.average_lod()

    def run():
        table = SeriesTable(
            "abl_access_pattern",
            "physical-read pattern per method (uniform query, ROI 10%)",
            "metric_row",
            ["DM", "PM", "HDoV"],
        )
        reads: dict[str, float] = {}
        seq: dict[str, float] = {}
        runs: dict[str, float] = {}
        centers = workload_2m.centers()[:8]
        for name, runner in (
            ("DM", lambda roi: env.dm.uniform_query(roi, lod)),
            ("PM", lambda roi: env.pm_store.uniform_query(roi, lod)),
            ("HDoV", lambda roi: env.hdov.uniform_query(roi, lod)),
        ):
            total_reads = total_seq = total_run = 0.0
            for center in centers:
                roi = workload_2m.roi(0.10, center)
                env.database.begin_measured_query()
                tracer = IOTracer.attach(env.database.stats)
                runner(roi)
                trace = tracer.detach()
                total_reads += len(trace)
                total_seq += trace.sequentiality
                trace_runs = trace.runs()
                total_run += max(trace_runs) if trace_runs else 0
            reads[name] = round(total_reads / len(centers), 1)
            seq[name] = round(total_seq / len(centers), 2)
            runs[name] = round(total_run / len(centers), 1)
        table.add_row(0, reads)  # Row 0: reads.
        table.add_row(1, seq)  # Row 1: sequentiality.
        table.add_row(2, runs)  # Row 2: longest run.
        table.meta["rows"] = "0=reads, 1=sequentiality, 2=longest_run"
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    seq_row = table.rows[1][1]
    assert seq_row["HDoV"] >= seq_row["DM"]
    assert seq_row["DM"] > seq_row["PM"]
    assert seq_row["HDoV"] > seq_row["PM"]
    reads_row = table.rows[0][1]
    assert reads_row["PM"] > reads_row["DM"]


def test_visibility_ablation(benchmark, env_2m, workload_2m):
    env = env_2m
    ds = env.dataset

    def run():
        table = SeriesTable(
            "abl_visibility",
            "HDoV-tree vs plain LOD-R-tree (open terrain)",
            "roi_pct",
            ["HDoV", "LOD-R-tree"],
        )
        with tempfile.TemporaryDirectory() as tmp:
            db = Database(Path(tmp) / "db", pool_pages=256)
            grid = 4
            lodrt = LodRTree.build(
                ds.pm,
                ds.field,
                db,
                connections=ds.connections,
                grid=grid,
            )
            lod = workload_2m.average_lod()
            centers = workload_2m.centers()[:8]
            for fraction in (0.05, 0.10, 0.20):
                hdov_total = lodrt_total = 0
                for center in centers:
                    roi = workload_2m.roi(fraction, center)
                    env.database.begin_measured_query()
                    env.hdov.uniform_query(roi, lod)
                    hdov_total += env.database.disk_accesses
                    db.begin_measured_query()
                    lodrt.uniform_query(roi, lod)
                    lodrt_total += db.disk_accesses
                table.add_row(
                    fraction * 100,
                    {
                        "HDoV": round(hdov_total / len(centers), 1),
                        "LOD-R-tree": round(lodrt_total / len(centers), 1),
                    },
                )
            db.close()
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    # The paper's observation: on open terrain, visibility selection
    # changes little — the two structures cost about the same.
    for _, row in table.rows:
        ratio = row["HDoV"] / max(1.0, row["LOD-R-tree"])
        assert 0.5 <= ratio <= 2.0
