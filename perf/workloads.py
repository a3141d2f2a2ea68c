"""Stores, seeded request generators and the five workloads.

Terrain is fixed (seed 3); ``--seed`` drives request generation only
and the program receives nothing but the generated requests.  Every
workload is a closed loop with one client thread — a viewer waits for
its mesh before asking for the next, a session waits for a frame — so
counts repeat exactly; ``patch_mix`` adds one writer thread beside the
reader.  Sizes are the issue's 40k-point design scaled to a store that
sets up in about two seconds, because a run sets up several times and
the driver makes over a hundred runs; cache tiers are scaled with it
so each workload keeps its place relative to them (see README.md).
"""

from __future__ import annotations

import functools
import math
import os
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, ContextManager, NamedTuple, Sequence

import numpy as np

from perf.hostspeed import SpeedLog, cpus
from repro.core.cache import SemanticCache
from repro.core.direct_mesh import DirectMeshStore
from repro.core.engine import QueryEngine, SingleBaseRequest, UniformRequest
from repro.core.mutate import MutableStore
from repro.core.streaming import EngineSession
from repro.core.wire import ClientMesh
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.mesh.progressive import ProgressiveMesh
from repro.storage.database import Database
from repro.terrain.datasets import dataset_by_name
from repro.terrain.dem import DEM
from repro.terrain.synthetic import ridge_field

TERRAIN_SEED = 3
FOOTHILLS_POINTS = 8000
SMOKE_POINTS = 2000
#: Buffer pool of the foothills store: 512 KiB against 5.4 MB on disk,
#: the same 1:10 the issue's 2 MiB pool had against 26 MB.
POOL_PAGES = 64
KIB = 1024

#: How many outputs per pass are kept for the oracle (checks.py).
CHECK_SAMPLES = 100

Span = Callable[[], ContextManager[Any]]


def dir_bytes(path: Path) -> int:
    """Bytes of every file in a database directory."""
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def rss_mb() -> float:
    """Resident set of this process, MB."""
    with open("/proc/self/statm", "r", encoding="ascii") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


# -- environments ---------------------------------------------------------------


@dataclass
class Env:
    """One built store with its engine; what a workload runs against."""

    path: Path
    database: Database
    store: DirectMeshStore
    engine: QueryEngine
    bounds: Rect
    n_nodes: int
    store_bytes: int
    pm: ProgressiveMesh | None = None  # the oracle's mesh (foothills)
    mutable: MutableStore | None = None  # ridge65 only
    #: Host-speed readings of the run (replaced by the run's own log).
    speed: SpeedLog = field(default_factory=SpeedLog)

    @property
    def max_lod(self) -> float:
        return self.store.max_lod

    def close(self) -> None:
        self.engine.close()
        self.database.close()


def build_foothills(
    path: Path, points: int, engine_kwargs: dict[str, Any]
) -> Env:
    """Synthesise the terrain, build the store, open an engine on it."""
    dataset = dataset_by_name("foothills", points, seed=TERRAIN_SEED)
    database = Database(path, pool_pages=POOL_PAGES)
    store = DirectMeshStore.build(
        dataset.pm, database, connections=dataset.connections
    )
    engine = QueryEngine(store, workers=cpus(), **engine_kwargs)
    return Env(
        path, database, store, engine, dataset.bounds(),
        len(dataset.pm.nodes), dir_bytes(path), pm=dataset.pm,
    )


def ridge_dem() -> DEM:
    """The 65x65 grid ``patch_mix`` mutates."""
    return DEM(ridge_field(exponent=6, seed=TERRAIN_SEED))


def build_ridge65(path: Path, engine_kwargs: dict[str, Any]) -> Env:
    """A mutable 16-tile store with an engine attached to its commits."""
    dem = ridge_dem()
    database = Database(path)
    mutable = MutableStore.build(dem, database, tile_verts=17)
    engine = QueryEngine(
        mutable.store, workers=cpus(), epoch=mutable.epoch,
        **engine_kwargs,
    )
    mutable.attach(engine)
    n_nodes = mutable.store.build_report.n_nodes
    return Env(
        path, database, mutable.store, engine, dem.bounds(), n_nodes,
        dir_bytes(path), mutable=mutable,
    )


# -- request generators (pure functions of the seed) ----------------------------


def _roi(rng: random.Random, bounds: Rect, area_frac: float) -> Rect:
    side = math.sqrt(bounds.area * area_frac)
    x0 = bounds.min_x + rng.random() * (bounds.width - side)
    y0 = bounds.min_y + rng.random() * (bounds.height - side)
    return Rect(x0, y0, x0 + side, y0 + side)


def _stratified(rng: random.Random, combos: list, n: int) -> list:
    """``n`` draws covering ``combos`` evenly, in seeded order, so the
    mix of sizes is the same for every seed and only positions vary."""
    picks = [combos[i % len(combos)] for i in range(n)]
    rng.shuffle(picks)
    return picks


UNIFORM_AREAS = (0.025, 0.05, 0.10, 0.15, 0.20)
UNIFORM_LODS = (0.01, 0.02, 0.05, 0.10, 0.20, 0.50)


def uniform_requests(
    seed: int, bounds: Rect, max_lod: float, n: int
) -> list[UniformRequest]:
    """The paper's Figure 6 sweeps: ROI area x LOD, random positions."""
    rng = random.Random(seed)
    combos = [(a, e) for a in UNIFORM_AREAS for e in UNIFORM_LODS]
    return [
        UniformRequest(_roi(rng, bounds, area), lod * max_lod)
        for area, lod in _stratified(rng, combos, n)
    ]


VIEWDEP_AREAS = (0.025, 0.05, 0.10)
VIEWDEP_FAR = (0.10, 0.25, 0.50)


def viewdep_requests(
    seed: int, bounds: Rect, max_lod: float, n: int
) -> list[SingleBaseRequest]:
    """Tilted planes from 1 % of ``max_lod`` at the viewer to a far
    edge of 10/25/50 %, looking in a seeded direction."""
    rng = random.Random(seed)
    combos = [(a, e) for a in VIEWDEP_AREAS for e in VIEWDEP_FAR]
    requests = []
    for area, far in _stratified(rng, combos, n):
        angle = rng.random() * 2 * math.pi
        plane = QueryPlane(
            _roi(rng, bounds, area), 0.01 * max_lod, far * max_lod,
            (math.cos(angle), math.sin(angle)),
        )
        requests.append(SingleBaseRequest(plane))
    return requests


ZIPF_S = 1.1
#: Hotspots per popularity tier.  The head of a zipf law is a few
#: heavy queries, and a median that lands on one of them jumps with
#: any small change; eight equally popular queries of different sizes
#: per tier make the steps of the latency distribution small.
ZIPF_TIER = 8


def zipf_requests(
    seed: int, bounds: Rect, max_lod: float, n: int, hotspots: int,
    lods: tuple[float, float] = (0.01, 0.20),
    areas: tuple[float, ...] = VIEWDEP_AREAS, viewdep: bool = True,
) -> list[UniformRequest | SingleBaseRequest]:
    """``n`` requests over fixed hotspot queries, hotspot ``k`` (from
    1) asked in proportion to ``ceil(k / 8) ** -1.1``.

    The hotspots are places on the terrain, so they come from the
    terrain seed, as a keyspace's popularity ranks belong to the data
    and not to the request stream: ROI area cycles through
    ``areas``, LOD steps through ``lods`` (fractions of ``max_lod``)
    by the golden ratio, odd ranks are view-dependent planes when
    ``viewdep``.  Each is asked exactly its expected number of times;
    ``seed`` orders the requests.  A latency distribution with a few
    heavy queries at its centre has a median that jumps with where
    those few sit, which says nothing about the program.
    """
    places = random.Random(TERRAIN_SEED)
    pool: list[UniformRequest | SingleBaseRequest] = []
    for rank in range(hotspots):
        roi = _roi(places, bounds, areas[rank % len(areas)])
        step = (rank * 0.6180339887) % 1.0
        lod = (lods[0] + (lods[1] - lods[0]) * step) * max_lod
        if viewdep and rank % 2:
            angle = places.random() * 2 * math.pi
            plane = QueryPlane(
                roi, lods[0] * max_lod, lod,
                (math.cos(angle), math.sin(angle)),
            )
            pool.append(SingleBaseRequest(plane))
        else:
            pool.append(UniformRequest(roi, lod))
    weights = [
        1.0 / (rank // ZIPF_TIER + 1) ** ZIPF_S for rank in range(hotspots)
    ]
    # Largest-remainder rounding of the expected counts to exactly n.
    exact = [n * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(
        range(hotspots), key=lambda k: exact[k] - counts[k], reverse=True
    )
    for k in by_remainder[: n - sum(counts)]:
        counts[k] += 1
    requests = [pool[k] for k in range(hotspots) for _ in range(counts[k])]
    random.Random(seed).shuffle(requests)
    return requests


def flight_requests(
    seed: int, bounds: Rect, max_lod: float, frames: int, sessions: int = 2
) -> list[list[UniformRequest]]:
    """Per session, a reflecting flight path: ROI side 20 % of the
    terrain, step 15 % of the side, LOD breathing (6 +- 4) %.

    Like the zipf hotspots, the paths are routes over the terrain and
    come from the terrain seed; ``seed`` picks the frame each session
    joins its route at, and it flies all of it, from the last frame on
    to the first.  Routes drawn from ``seed`` cross rougher or smoother
    ground at their finest LOD, and p95 moved 10 % with that alone."""
    rng = random.Random(TERRAIN_SEED)
    join = random.Random(seed)
    side = 0.20 * min(bounds.width, bounds.height)
    span_x, span_y = bounds.width - side, bounds.height - side
    step = 0.15 * side
    paths = []
    for _ in range(sessions):
        x = bounds.min_x + rng.random() * span_x
        y = bounds.min_y + rng.random() * span_y
        heading = rng.random() * 2 * math.pi
        phase = rng.random() * 2 * math.pi
        path = []
        for _ in range(frames):
            heading += (rng.random() - 0.5) * 0.3
            x += step * math.cos(heading)
            y += step * math.sin(heading)
            if not bounds.min_x <= x <= bounds.min_x + span_x:
                heading = math.pi - heading
                x = min(max(x, bounds.min_x), bounds.min_x + span_x)
            if not bounds.min_y <= y <= bounds.min_y + span_y:
                heading = -heading
                y = min(max(y, bounds.min_y), bounds.min_y + span_y)
            phase += 0.2
            lod = (0.06 + 0.04 * math.sin(phase)) * max_lod
            path.append(UniformRequest(Rect(x, y, x + side, y + side), lod))
        first = join.randrange(frames)
        paths.append(path[first:] + path[:first])
    return paths


PATCH_VERTS = 9


@dataclass(frozen=True)
class Patch:
    """A grid-aligned 9x9-vertex window and its new heights (648 B)."""

    region: Rect
    heights: np.ndarray

    @property
    def payload_bytes(self) -> int:
        return self.heights.nbytes


def patch_requests(
    seed: int, dem: DEM, n: int, tile_cells: int = 16
) -> list[Patch]:
    """Seeded windows of the *initial* grid, each shifted by a bump.

    A window lies strictly inside one tile of ``tile_cells`` cells, so
    every commit rebuilds one tile and invalidates one tile's extent:
    commits of one seed cost what commits of another do."""
    rng = random.Random(seed)
    grid = dem.field
    ox, oy = grid.origin
    cell = grid.cell_size
    relief = float(grid.heights.max() - grid.heights.min())
    slack = tile_cells - PATCH_VERTS  # first vertex: 1 .. slack
    patches = []
    for _ in range(n):
        r0 = rng.randrange((grid.n_rows - 1) // tile_cells) * tile_cells
        c0 = rng.randrange((grid.n_cols - 1) // tile_cells) * tile_cells
        r0 += 1 + rng.randrange(slack)
        c0 += 1 + rng.randrange(slack)
        r1, c1 = r0 + PATCH_VERTS - 1, c0 + PATCH_VERTS - 1
        bump = np.array(
            [
                [rng.gauss(0.0, 0.02 * relief) for _ in range(PATCH_VERTS)]
                for _ in range(PATCH_VERTS)
            ]
        )
        patches.append(
            Patch(
                Rect(ox + c0 * cell, oy + r0 * cell,
                     ox + c1 * cell, oy + r1 * cell),
                grid.heights[r0 : r1 + 1, c0 : c1 + 1] + bump,
            )
        )
    return patches


# -- pass bookkeeping -----------------------------------------------------------


class Commit(NamedTuple):
    """What one ``apply_patch`` cost beyond its time."""

    pages_written: int
    dir_growth: int  # bytes the database directory grew by
    tiles_rebuilt: int


@dataclass
class PassStats:
    """What one pass over a workload's request list measured."""

    lat_t: list[int] = field(default_factory=list)  # when each op began
    lat_ns: list[int] = field(default_factory=list)  # how long it took
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # why ops failed
    #: Summed counts; equal across passes of a single-client workload.
    counts: dict[str, int] = field(default_factory=dict)
    #: request index -> the answer's node ids, for the oracle.
    samples: dict[int, frozenset[int]] = field(default_factory=dict)
    commit_t: list[int] = field(default_factory=list)
    commit_ns: list[int] = field(default_factory=list)
    commits: list[Commit] = field(default_factory=list)
    rss_mb: float = 0.0
    #: Ops waited for another thread (see ``SpeedLog.nominal``).
    waits: bool = False

    def add(self, **counts: int) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def timed(self, started_ns: int) -> None:
        """Record one op that began at ``started_ns`` and just ended."""
        self.lat_t.append(started_ns)
        self.lat_ns.append(perf_counter_ns() - started_ns)

    def latencies_ms(self, speed: SpeedLog) -> np.ndarray:
        """Every op's latency at nominal host speed, in op order."""
        return speed.nominal(self.lat_t, self.lat_ns, self.waits) / 1e6


def _sample_every(n: int) -> int:
    return max(1, n // CHECK_SAMPLES)


def _counters(env: Env) -> dict[str, int]:
    """The program's own counters: disk pages and both caches."""
    io = env.database.stats
    out = {
        "physical_reads": io.physical_reads,
        "logical_reads": io.logical_reads,
        "physical_writes": io.physical_writes,
    }
    if env.engine.cache is not None:
        sem = env.engine.cache.stats()
        out.update(
            cache_hits=sem.hits, cache_misses=sem.misses,
            cache_subsume_hits=sem.subsume_hits, cache_evictions=sem.evictions,
        )
    if env.engine.cluster_cache is not None:
        clu = env.engine.cluster_cache.stats()
        out.update(
            cluster_hits=clu.hits, cluster_misses=clu.misses,
            cluster_evictions=clu.evictions,
        )
    return out


def _finish(stats: PassStats, env: Env, before: dict[str, int]) -> PassStats:
    """Close a pass: what the counters moved by, and the resident set."""
    after = _counters(env)
    stats.add(**{key: after[key] - before[key] for key in after})
    stats.rss_mb = rss_mb()
    return stats


def _query(
    env: Env, request: Any, stats: PassStats, span: Span,
    keep: int | None = None,
) -> None:
    """One mesh-ready query: submit, wait, reconstruct triangles."""
    env.speed.tick()
    with span():
        t0 = perf_counter_ns()
        outcome = env.engine.submit(request).result()
        ok = outcome.error is None and not outcome.degraded
        triangles = outcome.result.triangles() if ok else ()
        stats.timed(t0)
    stats.attempted += 1
    if not ok:
        stats.failed += 1
        stats.errors.append(repr(outcome.error or "degraded answer"))
        return
    result, metrics = outcome.result, outcome.metrics
    stats.add(
        nodes_decoded=metrics.nodes_decoded,
        candidates=metrics.clusters_touched,
        retrieved=0 if metrics.cached else result.retrieved,
        filtered_from=result.retrieved,
        result_nodes=len(result.nodes),
        triangles=len(triangles),
    )
    if keep is not None:
        stats.samples[keep] = frozenset(result.nodes)


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named load: how to set up, what to ask, how to run one pass."""

    name: str
    why: str
    ops: int  # requests (frames) per pass at full size
    #: A traced run also sends the requests down the paper's own
    #: R*-tree path (``rstar.*``, ``cost_model.*``); uniform requests only.
    paper_path: bool = False

    def setup(self, path: Path, smoke: bool) -> Env:
        raise NotImplementedError

    def requests(self, env: Env, seed: int, smoke: bool) -> Any:
        raise NotImplementedError

    def run_pass(
        self, env: Env, requests: Any, budget_s: float,
        span: Span = nullcontext, sample: bool = False,
    ) -> PassStats:
        """Run the request list once (``patch_mix``: for ``budget_s``)."""
        raise NotImplementedError

    def warm_up(self, env: Env, requests: Any) -> None:
        """Fill caches and finish lazy set-up; never timed."""
        self.run_pass(env, requests, 0.0)

    def in_pass_order(self, requests: Any) -> Sequence[Any]:
        """The requests by the index ``PassStats.samples`` uses."""
        return requests

    def _n(self, smoke: bool) -> int:
        return max(CHECK_SAMPLES, self.ops // 4) if smoke else self.ops


@dataclass(frozen=True)
class QueryWorkload(Workload):
    """Mesh-ready queries on the foothills store."""

    generate: Callable[..., list] = uniform_requests
    cold: bool = False
    cache_kib: int = 0  # semantic cache; 0 = none
    cluster_cache_kib: int = 0  # 0 = the engine's default (64 MiB)

    def setup(self, path: Path, smoke: bool) -> Env:
        kwargs: dict[str, Any] = {}
        # Smoke runs on a store a quarter the size; the tiers follow.
        shrink = 4 if smoke else 1
        if self.cache_kib:
            kwargs["cache"] = SemanticCache(self.cache_kib * KIB // shrink)
        if self.cluster_cache_kib:
            kwargs["cluster_cache_bytes"] = (
                self.cluster_cache_kib * KIB // shrink
            )
        points = SMOKE_POINTS if smoke else FOOTHILLS_POINTS
        return build_foothills(path, points, kwargs)

    def requests(self, env: Env, seed: int, smoke: bool) -> list:
        return self.generate(seed, env.bounds, env.max_lod, self._n(smoke))

    def warm_up(self, env: Env, requests: list) -> None:
        # Nothing survives a cold request: there is no cache to fill,
        # only lazy set-up to finish.
        if self.cold:
            requests = requests[:CHECK_SAMPLES]
        self.run_pass(env, requests, 0.0)

    def run_pass(
        self, env: Env, requests: list, budget_s: float,
        span: Span = nullcontext, sample: bool = False,
    ) -> PassStats:
        stats = PassStats()
        every = _sample_every(len(requests))
        before = _counters(env)
        for i, request in enumerate(requests):
            if self.cold:
                # The paper's protocol: nothing survives between queries.
                env.database.flush()
                env.engine.cluster_cache.invalidate()
            keep = i if sample and i % every == 0 else None
            _query(env, request, stats, span, keep)
        return _finish(stats, env, before)


@dataclass(frozen=True)
class FlightWorkload(Workload):
    """Delta sessions: ``session.update`` + ``ClientMesh.apply``."""

    sessions: int = 2

    def setup(self, path: Path, smoke: bool) -> Env:
        points = SMOKE_POINTS if smoke else FOOTHILLS_POINTS
        return build_foothills(path, points, {})

    def requests(self, env: Env, seed: int, smoke: bool) -> list[list]:
        frames = self._n(smoke) // self.sessions
        return flight_requests(
            seed, env.bounds, env.max_lod, frames, self.sessions
        )

    def in_pass_order(self, requests: list[list]) -> list:
        return [request for frame in zip(*requests) for request in frame]

    def run_pass(
        self, env: Env, requests: list[list], budget_s: float,
        span: Span = nullcontext, sample: bool = False,
    ) -> PassStats:
        stats = PassStats()
        before = _counters(env)
        # Fresh sessions each pass: frame 0 of each is a keyframe.
        pairs = [
            (EngineSession(env.engine, f"flight-{i}"), ClientMesh())
            for i in range(len(requests))
        ]
        frames = len(requests[0])
        every = _sample_every(frames * len(requests))
        for f in range(frames):
            for s, (session, client) in enumerate(pairs):
                index = f * len(pairs) + s
                env.speed.tick()
                with span():
                    t0 = perf_counter_ns()
                    try:
                        frame = session.update(requests[s][f])
                        client.apply(frame.payload)
                    except Exception as exc:  # a failed frame is a failed op
                        frame = None
                        stats.errors.append(repr(exc))
                    stats.timed(t0)
                stats.attempted += 1
                active = session.active_ids
                if frame is not None and (
                    frame.outcome.degraded or client.active_ids != active
                ):
                    stats.errors.append(
                        f"frame {index}: degraded, or the client's mesh "
                        "differs from the session's"
                    )
                    frame = None
                if frame is None:
                    stats.failed += 1
                    continue
                delta, metrics = frame.delta, frame.outcome.metrics
                stats.add(
                    wire_bytes=len(frame.payload),
                    changed_nodes=len(delta.added) + len(delta.removed),
                    kept_nodes=delta.kept,
                    keyframes=int(frame.frame.keyframe),
                    nodes_decoded=metrics.nodes_decoded,
                    candidates=metrics.clusters_touched,
                    retrieved=frame.outcome.result.retrieved,
                    filtered_from=frame.outcome.result.retrieved,
                    result_nodes=len(active),
                )
                if sample and index % every == 0:
                    stats.samples[index] = frozenset(active)
        return _finish(stats, env, before)


@dataclass(frozen=True)
class PatchMixWorkload(Workload):
    """One writer committing patches beside one closed-loop reader."""

    hotspots: int = 48
    #: One ROI size and a narrow band of fine LODs (ridge65 has a
    #: quarter the points of the foothills store): the reader's
    #: answers are all a few hundred nodes, so what moves its latency
    #: is the writer beside it, not the mix of its own requests.
    lods: tuple[float, float] = (0.005, 0.01)
    areas: tuple[float, ...] = (0.10,)
    cache_kib: int = 4096
    #: The writer's think time, in commits: it rests this many times
    #: as long as its last commit took.  A pause in seconds would make
    #: the share of reads that meet a commit depend on the host's
    #: speed, and the tail percentiles with it.
    think: float = 1.25

    def setup(self, path: Path, smoke: bool) -> Env:
        return build_ridge65(
            path, {"cache": SemanticCache(self.cache_kib * KIB)}
        )

    def requests(self, env: Env, seed: int, smoke: bool) -> tuple[list, list]:
        assert env.mutable is not None
        reads = zipf_requests(
            seed, env.bounds, env.max_lod, self._n(smoke), self.hotspots,
            lods=self.lods, areas=self.areas, viewdep=False,
        )
        return reads, patch_requests(seed + 1, env.mutable.dem, 64)

    def warm_up(self, env: Env, requests: tuple[list, list]) -> None:
        stats = PassStats()
        for request in requests[0]:
            _query(env, request, stats, nullcontext)

    def run_pass(
        self, env: Env, requests: tuple[list, list], budget_s: float,
        span: Span = nullcontext, sample: bool = False,
    ) -> PassStats:
        reads, patches = requests
        mutable = env.mutable
        assert mutable is not None
        stats = PassStats(waits=True)
        before = _counters(env)
        done = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            # Patches continue where the previous pass stopped, so a
            # window is never re-applied onto itself.
            try:
                deadline = time.monotonic() + budget_s
                while time.monotonic() < deadline:
                    patch = patches[mutable.epoch % len(patches)]
                    writes = env.database.stats.physical_writes
                    size = dir_bytes(env.path)
                    t0 = perf_counter_ns()
                    report = mutable.apply_patch(patch.region, patch.heights)
                    stats.commit_t.append(t0)
                    took = perf_counter_ns() - t0
                    stats.commit_ns.append(took)
                    stats.commits.append(
                        Commit(
                            env.database.stats.physical_writes - writes,
                            dir_bytes(env.path) - size,
                            len(report.tiles_rebuilt),
                        )
                    )
                    stats.add(patch_bytes=patch.payload_bytes)
                    time.sleep(self.think * took / 1e9)
            except BaseException as exc:  # surfaced by the reader below
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=writer, name="perf-writer")
        thread.start()
        try:
            i = 0
            while not done.is_set():
                _query(env, reads[i % len(reads)], stats, span)
                i += 1
        finally:
            thread.join()
        if errors:
            raise errors[0]
        return _finish(stats, env, before)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        QueryWorkload(
            "cold_uniform",
            "paper protocol: buffer and cluster cache flushed before every "
            "uniform query; every cache is bypassed, I/O and decode dominate",
            ops=1080, cold=True, paper_path=True,
        ),
        QueryWorkload(
            "hot_viewdep",
            "view-dependent planes on a store that fits the 64 MiB cluster "
            "cache: zero I/O, so select, filter and reconstruct dominate",
            ops=3600, generate=viewdep_requests,
        ),
        QueryWorkload(
            "zipf_cached",
            "zipf draws from 200 hotspots with every cache tier smaller than "
            "the working set: lookup, insert, eviction, subsumption all work",
            ops=2000,
            generate=functools.partial(zipf_requests, hotspots=200),
            cache_kib=2560, cluster_cache_kib=1024,
        ),
        FlightWorkload(
            "flight_session",
            "two delta sessions flying overlapping cubes: diff, frame encode "
            "and client splice instead of reconstruct; bytes on the wire",
            ops=2400,
        ),
        PatchMixWorkload(
            "patch_mix",
            "a writer committing 9x9-vertex patches beside a zipf reader: "
            "WAL, epoch staging and cache invalidation under live reads",
            ops=2000,
        ),
    )
}


