"""The DM storage-overhead claim.

Paper Section 1/4: the topology encoding reconstructs approximations
"with a very small overhead".  We compare bytes per node of the PM and
DM record formats (the delta is the connection list) on both
datasets, and the size of the paper's per-node R*-tree against the
record heap it indexes (:class:`PaperLayoutStore`, built here).
"""

import tempfile
from pathlib import Path

import pytest

from benchmarks.conftest import emit
from repro.baselines.paper_layout import PaperLayoutStore
from repro.bench.figures import storage_overhead_table
from repro.storage.database import Database
from repro.storage.record import PM_RECORD_SIZE


@pytest.mark.parametrize("which", ["2m", "17m"])
def test_storage_overhead(benchmark, env_2m, env_17m, which):
    env = env_2m if which == "2m" else env_17m
    table = benchmark.pedantic(
        lambda: storage_overhead_table(env), rounds=1, iterations=1
    )
    table.experiment = f"tab_storage_{which}"
    emit(table)
    _, row = table.rows[0]
    # The DM record (incl. connection list) stays within ~2.5x of the
    # PM record: a small constant per-node overhead, not the
    # prohibitive full-connectivity blow-up of Section 4's naive
    # alternative (hundreds of entries per node).
    assert row["PM"] == PM_RECORD_SIZE
    assert row["DM"] <= PM_RECORD_SIZE * 2.5


def test_index_smaller_than_data(benchmark, env_2m):
    ds = env_2m.dataset

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            with Database(Path(tmp) / "db") as db:
                paper = PaperLayoutStore.build(ds.pm, db, ds.connections)
                return paper.heap_pages, paper.index_pages

    heap_pages, index_pages = benchmark.pedantic(run, rounds=1, iterations=1)
    assert index_pages < heap_pages * 1.5
