"""Tests for the runtime lock-order witness (repro.obs.lockwatch).

Three layers:

- unit: the env gate, the recorder, cycle detection, and the merge
  dump used to accumulate graphs across stress processes;
- a deliberate inversion: two watched locks acquired in opposite
  orders (sequentially — no real deadlock) must produce a cycle in
  the recorded graph;
- integration: build a real store and engine with instrumentation
  on, run queries, and require the observed lock-order graph to be
  acyclic *and* a subgraph of the static lock-order graph computed
  by the interprocedural lockset analysis.  That last containment is
  the point of the whole subsystem: anything the runtime sees that
  the static analysis cannot is a blind spot to fix.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.obs import lockwatch
from repro.obs.lockwatch import (
    WatchedLock,
    find_cycle,
    watch,
    watched_lock,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def watching(monkeypatch):
    """Enable instrumentation and hand back a clean recorder."""
    monkeypatch.setenv(lockwatch.ENV_FLAG, "1")
    lockwatch.reset()
    yield watch()
    lockwatch.reset()


# -- env gate ----------------------------------------------------------------


def test_disabled_by_default_returns_plain_lock(monkeypatch):
    monkeypatch.delenv(lockwatch.ENV_FLAG, raising=False)
    lock = watched_lock("Demo._lock")
    assert not isinstance(lock, WatchedLock)
    assert isinstance(lock, type(threading.Lock()))


def test_zero_means_disabled(monkeypatch):
    monkeypatch.setenv(lockwatch.ENV_FLAG, "0")
    assert not lockwatch.enabled()
    assert not isinstance(watched_lock("Demo._lock"), WatchedLock)


def test_enabled_returns_watched_lock(watching):
    lock = watched_lock("Demo._lock")
    assert isinstance(lock, WatchedLock)
    with lock:
        assert lock.locked()
    assert not lock.locked()


# -- recorder ----------------------------------------------------------------


def test_nested_acquisition_records_edge(watching):
    outer = watched_lock("Demo._outer")
    inner = watched_lock("Demo._inner")
    with outer:
        with inner:
            pass
    assert watching.edges() == {("Demo._outer", "Demo._inner"): 1}
    assert watching.locks() == {"Demo._outer", "Demo._inner"}


def test_reacquiring_same_name_records_no_self_edge(watching):
    # Striped locks share one logical name; holding two stripes must
    # not read as a self-deadlock.
    stripe_a = watched_lock("Demo._stripes")
    stripe_b = watched_lock("Demo._stripes")
    with stripe_a:
        with stripe_b:
            pass
    assert watching.edges() == {}


def test_deliberate_inversion_yields_cycle(watching):
    alpha = watched_lock("Demo._alpha")
    beta = watched_lock("Demo._beta")
    with alpha:
        with beta:
            pass
    with beta:
        with alpha:
            pass
    edges = watching.edges()
    assert ("Demo._alpha", "Demo._beta") in edges
    assert ("Demo._beta", "Demo._alpha") in edges
    cycle = find_cycle(edges)
    assert cycle is not None
    assert set(cycle) >= {"Demo._alpha", "Demo._beta"}


def test_consistent_order_has_no_cycle(watching):
    alpha = watched_lock("Demo._alpha")
    beta = watched_lock("Demo._beta")
    for _ in range(3):
        with alpha:
            with beta:
                pass
    assert find_cycle(watching.edges()) is None


def test_dump_merges_across_runs(watching, tmp_path):
    out = tmp_path / "lockorder.json"
    outer = watched_lock("Demo._outer")
    inner = watched_lock("Demo._inner")
    with outer, inner:
        pass
    watching.dump(str(out))
    # A second process' worth of observations accumulates counts.
    watching.dump(str(out))
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["version"] == 1
    assert data["locks"] == ["Demo._inner", "Demo._outer"]
    assert data["edges"] == [["Demo._outer", "Demo._inner", 2]]


def test_dump_tolerates_corrupt_existing_file(watching, tmp_path):
    out = tmp_path / "lockorder.json"
    out.write_text("not json", encoding="utf-8")
    lock = watched_lock("Demo._lock")
    with lock:
        pass
    watching.dump(str(out))
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["locks"] == ["Demo._lock"]


# -- dynamic graph vs. static graph ------------------------------------------


def _static_edge_set() -> set:
    from repro.analysis.locksets import analyze_paths

    analysis = analyze_paths(
        [str(REPO_ROOT / "src" / "repro")], root=str(REPO_ROOT)
    )
    return set(analysis.order.edges)


@pytest.mark.slow
def test_engine_lock_order_is_acyclic_and_within_static(
    watching, tmp_path, hills_dataset
):
    # Built *after* the env flip, so every watched_lock() call in the
    # storage and engine layers hands back an instrumented lock.
    from repro.core.direct_mesh import DirectMeshStore
    from repro.core.engine import QueryEngine, UniformRequest
    from repro.storage.database import Database

    db = Database(tmp_path / "db", pool_pages=64)
    try:
        store = DirectMeshStore.build(
            hills_dataset.pm, db, hills_dataset.connections
        )
        extent = store.clusters.index.extent.rect
        with QueryEngine(store, workers=4) as engine:
            futures = [
                engine.submit(
                    UniformRequest(extent, frac * store.max_lod)
                )
                for frac in (0.1, 0.3, 0.5)
            ]
            for future in futures:
                assert future.result(timeout=60).ok
    finally:
        db.close()

    dynamic = watching.edges()
    assert dynamic, "instrumentation recorded no lock nesting at all"
    assert find_cycle(dynamic) is None

    static = _static_edge_set()
    unexplained = sorted(set(dynamic) - static)
    assert not unexplained, (
        "runtime lock-order edges missing from the static graph "
        f"(analysis blind spot): {unexplained}"
    )
