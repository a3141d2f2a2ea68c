"""The correctness gate, run outside every timed region.

The single oracle is the paper's reference semantics, in-memory
selective refinement (``repro.mesh.selective``): sampled answers of
the measured passes are compared with it node id for node id.
``patch_mix`` has no in-memory mesh to refine (its store is a forest
of tiles), so it ends by reopening the database and comparing it with
a store built from scratch on the final DEM.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Sequence

from perf.workloads import Env, PassStats, uniform_requests
from repro.core.engine import SingleBaseRequest, UniformRequest
from repro.core.mutate import MutableStore
from repro.mesh.selective import uniform_query_ref, viewdep_query_ref
from repro.storage.database import Database

REOPEN_QUERIES = 50


def reference_ids(env: Env, request: Any) -> set[int]:
    """The node ids the paper's semantics give for ``request``."""
    assert env.pm is not None
    if isinstance(request, UniformRequest):
        return uniform_query_ref(env.pm, request.roi, request.lod)
    if isinstance(request, SingleBaseRequest):
        return viewdep_query_ref(env.pm, request.plane)
    raise TypeError(f"no reference semantics for {type(request).__name__}")


def check_samples(
    env: Env, requests: Sequence[Any], samples: dict[int, frozenset[int]]
) -> list[str]:
    """Compare each kept answer with the oracle; returns mismatches."""
    problems = []
    for index, ids in sorted(samples.items()):
        expected = reference_ids(env, requests[index])
        if ids != expected:
            problems.append(
                f"request {index}: {len(ids)} nodes, oracle has "
                f"{len(expected)} ({len(ids ^ expected)} differ)"
            )
    return problems


def check_counts(passes: Sequence[PassStats]) -> list[str]:
    """A single-client workload repeats every count in every pass."""
    problems = []
    for k, stats in enumerate(passes[1:], start=1):
        if stats.counts != passes[0].counts:
            changed = sorted(
                key
                for key in stats.counts.keys() | passes[0].counts.keys()
                if stats.counts.get(key) != passes[0].counts.get(key)
            )
            problems.append(f"pass {k} counts differ from pass 0: {changed}")
    return problems


def check_reopen(env: Env, acknowledged: int, scratch: Path) -> list[str]:
    """Close ``patch_mix``'s database, reopen it on the patched DEM,
    and hold it to a from-scratch build of that DEM."""
    mutable = env.mutable
    assert mutable is not None
    dem = mutable.dem
    env.close()
    problems = []
    database = Database(env.path)
    rebuilt_path = scratch / "rebuilt"
    rebuilt_db = Database(rebuilt_path, overwrite=True)
    try:
        reopened = MutableStore.open(database, dem)
        if reopened.epoch != acknowledged:
            problems.append(
                f"reopened at epoch {reopened.epoch}, "
                f"{acknowledged} commits were acknowledged"
            )
        rebuilt = MutableStore.build(dem, rebuilt_db, tile_verts=17)
        for i, request in enumerate(
            uniform_requests(
                0, dem.bounds(), rebuilt.store.max_lod, REOPEN_QUERIES
            )
        ):
            got = set(reopened.store.uniform_query(request.roi, request.lod).nodes)
            want = set(rebuilt.store.uniform_query(request.roi, request.lod).nodes)
            if got != want:
                problems.append(
                    f"reopen query {i}: patched store and rebuild differ "
                    f"in {len(got ^ want)} nodes"
                )
    finally:
        database.close()
        rebuilt_db.close()
        shutil.rmtree(rebuilt_path, ignore_errors=True)
    return problems

