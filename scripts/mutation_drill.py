"""Live-mutation robustness drill: patches, crashes, readers, fsck.

Usage::

    PYTHONPATH=src python scripts/mutation_drill.py [--patches N]
        [--kills N] [--readers N] [--seed N]

One self-contained pass over the live-mutation contract (the fast
subset of ``tests/test_mutate.py`` + ``tests/test_stress.py`` that CI
repeats as a gate):

1. **parity** — a store evolved through N random live patches is
   node-id-identical to a store rebuilt from scratch on the final
   terrain;
2. **kill matrix** — a simulated crash at every distinct patch
   protocol point (WAL record boundaries, page writes, the meta flip)
   recovers to exactly the pre- or post-patch snapshot, with fsck
   clean apart from reclaimable orphans, which ``--repair`` removes;
3. **readers** — concurrent readers racing live commits only ever see
   some committed epoch's exact snapshot, and their outcomes are
   labeled with that epoch.

Exits 0 when every check holds, 1 with a description otherwise.
"""

import argparse
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.cache import SemanticCache  # noqa: E402
from repro.core.direct_mesh import DirectMeshStore  # noqa: E402
from repro.core.engine import QueryEngine, UniformRequest  # noqa: E402
from repro.core.mutate import MutableStore  # noqa: E402
from repro.errors import MutationError  # noqa: E402
from repro.geometry.primitives import Rect  # noqa: E402
from repro.storage.database import Database, epoch_prefix  # noqa: E402
from repro.storage.faults import SimulatedCrash  # noqa: E402
from repro.storage.integrity import (  # noqa: E402
    repair_database,
    scrub_database,
)
from repro.terrain.dem import DEM  # noqa: E402
from repro.terrain.gridfield import GridField  # noqa: E402

GRID = 17
TILE_VERTS = 9


def make_dem(rng: np.random.Generator) -> DEM:
    return DEM(
        GridField(rng.uniform(0.0, 30.0, (GRID, GRID)), cell_size=1.0)
    )


def clone_dem(dem: DEM) -> DEM:
    return DEM(
        GridField(
            dem.field.heights.copy(),
            cell_size=dem.field.cell_size,
            origin=dem.field.origin,
        )
    )


def random_patch(rng: np.random.Generator) -> "tuple[Rect, np.ndarray]":
    r0 = int(rng.integers(0, GRID - 1))
    c0 = int(rng.integers(0, GRID - 1))
    r1 = int(rng.integers(r0 + 1, GRID))
    c1 = int(rng.integers(c0 + 1, GRID))
    region = Rect(float(c0), float(r0), float(c1), float(r1))
    heights = rng.uniform(0.0, 30.0, (r1 - r0 + 1, c1 - c0 + 1))
    return region, heights


def store_digest(store: DirectMeshStore) -> dict:
    digest = {}
    clusters = store.clusters
    for record in (
        r for cid in range(len(clusters)) for r in clusters.decode(cid).records()
    ):
        digest[record.id] = (
            record.x, record.y, record.z, record.e_low, record.e_high,
            record.parent, record.child1, record.child2,
            record.wing1, record.wing2, tuple(record.connections),
        )
    return digest


def crash_close(db: Database) -> None:
    db.buffer._frames.clear()
    for pager in db._pagers.values():
        pager.close()
    db._pagers.clear()
    db._closed = True


def drill_parity(workdir: Path, n_patches: int, seed: int) -> "str | None":
    rng = np.random.default_rng(seed)
    dem = make_dem(rng)
    live_dem = clone_dem(dem)
    db = Database(workdir / "parity-live")
    ms = MutableStore.build(live_dem, db, tile_verts=TILE_VERTS)
    patched = clone_dem(dem)
    for _ in range(n_patches):
        region, heights = random_patch(rng)
        ms.apply_patch(region, heights)
        patched.apply_patch(region, heights)
    live = store_digest(ms.store)
    db.close()
    db2 = Database(workdir / "parity-scratch")
    fresh = MutableStore.build(
        patched, db2, tile_verts=TILE_VERTS
    )
    scratch = store_digest(fresh.store)
    db2.close()
    if live != scratch:
        return (
            f"parity violated after {n_patches} patches: patched store "
            f"({len(live)} nodes) != scratch rebuild ({len(scratch)})"
        )
    print(
        f"mutation-drill: parity ok — {n_patches} patches, "
        f"{len(live)} nodes, epoch {ms.epoch}"
    )
    return None


def drill_kills(workdir: Path, n_kills: int, seed: int) -> "str | None":
    rng = np.random.default_rng(seed)
    dem = make_dem(rng)
    region, heights = random_patch(np.random.default_rng(seed + 1))

    base = workdir / "kill-base"
    db = Database(base)
    ms = MutableStore.build(
        clone_dem(dem), db, tile_verts=TILE_VERTS
    )
    pre = store_digest(ms.store)
    db.close()

    events: "list[str]" = []
    scratch = workdir / "kill-dryrun"
    shutil.copytree(base, scratch)
    db = Database(scratch)
    ms = MutableStore.open(db, clone_dem(dem))
    ms.apply_patch(region, heights.copy(), kill_hook=events.append)
    post = store_digest(ms.store)
    db.close()

    # Every distinct protocol label, then spread the rest evenly.
    chosen: "list[int]" = []
    seen: "set[str]" = set()
    for index, label in enumerate(events):
        if label not in seen:
            seen.add(label)
            chosen.append(index)
    step = max(1, len(events) // max(1, n_kills))
    for index in range(0, len(events), step):
        if index not in chosen:
            chosen.append(index)
    chosen.sort()

    for kill_at in chosen:
        label = events[kill_at]
        work = workdir / f"kill-{kill_at}"
        shutil.copytree(base, work)
        db = Database(work)
        ms = MutableStore.open(db, clone_dem(dem))
        fired = [0]

        def hook(event: str, _n: "list[int]" = fired) -> None:
            if _n[0] == kill_at:
                _n[0] += 1
                raise SimulatedCrash(event)
            _n[0] += 1

        try:
            ms.apply_patch(region, heights.copy(), kill_hook=hook)
        except SimulatedCrash:
            pass
        else:
            return f"kill at {label}: SimulatedCrash did not propagate"
        try:
            ms.apply_patch(region, heights.copy())
        except MutationError:
            pass
        else:
            return f"kill at {label}: poisoned handle accepted a patch"
        crash_close(db)

        db = Database(work)
        epoch = db.store_epoch("dm")
        if epoch not in (0, 1):
            return f"kill at {label}: impossible epoch {epoch}"
        got = store_digest(
            DirectMeshStore.open(db, epoch_prefix("dm", epoch))
        )
        expected = pre if epoch == 0 else post
        if got != expected:
            return f"kill at {label}: hybrid snapshot at epoch {epoch}"
        report = scrub_database(db)
        if not report.ok:
            return f"kill at {label}: fsck found damage: {report.to_text()}"
        if report.orphans:
            repair_database(db, report)
            if not scrub_database(db).ok:
                return f"kill at {label}: orphan repair left damage"
        db.close()
        shutil.rmtree(work, ignore_errors=True)
    print(
        f"mutation-drill: kill matrix ok — {len(chosen)} crash points "
        f"over {len(events)} protocol events, all pre/post exact"
    )
    return None


def drill_readers(
    workdir: Path, n_patches: int, n_readers: int, seed: int
) -> "str | None":
    rng = np.random.default_rng(seed)
    dem = make_dem(rng)
    extent = dem.field.bounds()
    db = Database(workdir / "readers")
    ms = MutableStore.build(dem, db, tile_verts=TILE_VERTS)
    lod = ms.store.max_lod * 0.6

    def view(store: DirectMeshStore) -> dict:
        result = store.uniform_query(extent, lod)
        return {
            nid: (r.x, r.y, r.z, tuple(r.connections))
            for nid, r in result.nodes.items()
        }

    truth = {0: view(ms.store)}
    truth_lock = threading.Lock()
    engine = QueryEngine(
        ms.store, epoch=ms.epoch, workers=n_readers,
        cache=SemanticCache(1 << 22),
    )
    ms.attach(engine)
    request = UniformRequest(extent, lod)
    stop = threading.Event()
    failures: "list[str]" = []
    served = [0]

    def reader() -> None:
        while not stop.is_set() and not failures:
            outcome = engine.submit(request).result()
            if not outcome.ok:
                failures.append(f"reader error: {outcome.error!r}")
                return
            epoch = outcome.metrics.epoch
            expected = None
            deadline = time.monotonic() + 10.0
            while expected is None and time.monotonic() < deadline:
                with truth_lock:
                    expected = truth.get(epoch)
                if expected is None:
                    time.sleep(0.002)
            got = {
                nid: (r.x, r.y, r.z, tuple(r.connections))
                for nid, r in outcome.result.nodes.items()
            }
            if got != expected:
                failures.append(
                    f"reader at epoch {epoch} saw a non-snapshot result"
                )
                return
            served[0] += 1
            time.sleep(0.001)

    threads = [
        threading.Thread(target=reader, daemon=True)
        for _ in range(n_readers)
    ]
    for thread in threads:
        thread.start()
    try:
        for _ in range(n_patches):
            if failures:
                break
            region, heights = random_patch(rng)
            report = ms.apply_patch(region, heights)
            with truth_lock:
                truth[report.to_epoch] = view(ms.store)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        engine.close()
        db.close()
    if failures:
        return failures[0]
    print(
        f"mutation-drill: readers ok — {served[0]} epoch-consistent "
        f"reads across {n_patches} live commits ({n_readers} threads)"
    )
    return None


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patches", type=int, default=8)
    parser.add_argument("--kills", type=int, default=12)
    parser.add_argument("--readers", type=int, default=8)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="mutation-drill-"))
    try:
        for check in (
            drill_parity(workdir, args.patches, args.seed),
            drill_kills(workdir, args.kills, args.seed),
            drill_readers(workdir, args.patches, args.readers, args.seed),
        ):
            if check is not None:
                print(f"mutation-drill: FAIL: {check}")
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("mutation-drill: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
