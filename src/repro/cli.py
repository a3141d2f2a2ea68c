"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build``   — generate (or load) a terrain, build the multiresolution
  store into a database directory;
* ``query``   — run a viewpoint-independent query against a built
  database and export/render the resulting mesh;
* ``viewdep`` — run a viewpoint-dependent (tilted-plane) query;
* ``bench-serve`` — replay a synthetic query workload through the
  concurrent engine at several worker counts (throughput baseline);
* ``bench-slo`` — open-loop SLO harness: Poisson arrivals at a fixed
  offered rate (zipfian hotspots or flight-path sessions), scored as
  goodput-under-SLO with p50/p99/p999 latency; with admission control
  on (the default) overload degrades or sheds instead of queueing;
* ``fsck``    — the one store checker: every page of every segment is
  checksum-verified, every committed store epoch's R*-tree and cluster
  runs walked, and its heap, tree and runs checked against each other;
  ``--repair`` restores corrupt pages from a committed WAL,
  ``--archive`` snapshots one, ``--inject`` runs a seeded corruption
  drill;
* ``info``    — describe a built database (segments, pages, metadata).

The CLI is a thin veneer over the public API; anything beyond quick
inspection should use the library directly (see ``examples/``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import DirectMeshStore, build_connection_lists
from repro.errors import InvariantError, ReproError, StorageError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.mesh import SimplifyConfig, simplify_to_pm
from repro.storage import Database
from repro.terrain import DEM, dataset_by_name, read_esri_ascii, write_obj
from repro.viz import render_points

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _worker_counts(spec: str) -> list[int]:
    """Parse ``--workers`` values like ``1,2,4``."""
    return [int(w) for w in spec.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Direct Mesh multiresolution terrain store (ICDE'04 reproduction)",
    )
    sub = parser.add_subparsers(required=True)

    build = sub.add_parser("build", help="build a terrain database")
    build.add_argument("database", help="database directory to create")
    source = build.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset",
        choices=["foothills", "crater"],
        default="foothills",
        help="synthetic dataset to generate",
    )
    source.add_argument(
        "--dem", metavar="FILE", help="ESRI ASCII raster to ingest instead"
    )
    source.add_argument(
        "--from-pm",
        metavar="FILE",
        help="load a prebuilt progressive mesh (.pmz) instead of simplifying",
    )
    build.add_argument(
        "--points", type=int, default=10_000, help="terrain sample count"
    )
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--compress",
        action="store_true",
        help="store the heap's connection lists delta+varint compressed "
        "(cluster runs, which the engine serves, are unaffected)",
    )
    build.add_argument(
        "--save-pm",
        metavar="FILE",
        help="also save the progressive mesh as a .pmz interchange file",
    )
    build.set_defaults(handler=_cmd_build)

    query = sub.add_parser("query", help="viewpoint-independent query")
    query.add_argument("database")
    query.add_argument(
        "--roi",
        type=float,
        nargs=4,
        metavar=("MINX", "MINY", "MAXX", "MAXY"),
        help="region of interest (defaults to the full extent)",
    )
    query.add_argument(
        "--lod",
        type=float,
        required=True,
        help="LOD threshold (approximation-error units)",
    )
    query.add_argument("--obj", metavar="FILE", help="export mesh as OBJ")
    query.add_argument(
        "--render", action="store_true", help="ASCII-render the result"
    )
    query.set_defaults(handler=_cmd_query)

    viewdep = sub.add_parser("viewdep", help="viewpoint-dependent query")
    viewdep.add_argument("database")
    viewdep.add_argument("--roi", type=float, nargs=4, required=True,
                         metavar=("MINX", "MINY", "MAXX", "MAXY"))
    viewdep.add_argument("--emin", type=float, required=True)
    viewdep.add_argument("--emax", type=float, required=True)
    viewdep.add_argument(
        "--direction", type=float, nargs=2, default=(0.0, 1.0),
        metavar=("DX", "DY"),
        help="unit vector pointing away from the viewer",
    )
    viewdep.add_argument("--obj", metavar="FILE")
    viewdep.add_argument("--render", action="store_true")
    viewdep.set_defaults(handler=_cmd_viewdep)

    exp = sub.add_parser(
        "explain", help="show the query plan (and optionally execute)"
    )
    exp.add_argument("database")
    exp.add_argument("--roi", type=float, nargs=4, required=True,
                     metavar=("MINX", "MINY", "MAXX", "MAXY"))
    exp.add_argument("--lod", type=float, help="uniform LOD")
    exp.add_argument("--emin", type=float, help="viewpoint-dependent e_min")
    exp.add_argument("--emax", type=float, help="viewpoint-dependent e_max")
    exp.add_argument("--execute", action="store_true",
                     help="run the query and attach actual counters")
    exp.set_defaults(handler=_cmd_explain)

    serve = sub.add_parser(
        "bench-serve",
        help="throughput-benchmark the concurrent query engine",
    )
    serve.add_argument("database")
    serve.add_argument(
        "--requests", type=int, default=64, help="queries per batch"
    )
    serve.add_argument(
        "--workers",
        type=_worker_counts,
        default=[1, 2, 4],
        metavar="N,N,...",
        help="comma-separated worker counts to sweep (default 1,2,4)",
    )
    serve.add_argument(
        "--mode",
        choices=["uniform", "viewdep", "mixed"],
        default="uniform",
        help="request mix to generate",
    )
    serve.add_argument(
        "--roi-frac",
        type=float,
        default=0.15,
        help="ROI edge length as a fraction of the terrain extent",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--pool-pages",
        type=int,
        default=64,
        help="buffer pool capacity (small pools keep the workload I/O bound)",
    )
    serve.add_argument(
        "--io-latency",
        type=float,
        default=0.0,
        help="simulated seconds per physical page read (0 = off)",
    )
    serve.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="probability of an injected transient error per physical "
        "page read (exercises the retry path; 0 = off)",
    )
    serve.add_argument(
        "--corrupt-rate",
        type=float,
        default=0.0,
        help="probability of injected page corruption per physical "
        "page read (bitflip/torn/zero; exercises checksum "
        "verification and the quarantine path; 0 = off)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline in milliseconds (uniform requests "
        "degrade to the base mesh on a miss; default: none)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=4,
        help="retry attempts per request for injected transient errors",
    )
    serve.add_argument(
        "--cache-mb",
        type=float,
        default=0.0,
        help="semantic result cache budget in MiB (0 = cache off); "
        "cached cubes answer subsumed queries with no index/disk I/O",
    )
    serve.add_argument(
        "--prefetch-e",
        type=float,
        default=0.0,
        help="prefetch inflation along the LOD axis (absolute units): "
        "cache misses probe a cube taller by this much each way so "
        "nearby LODs hit next time",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="replay the batch this many times per sweep (a repeated "
        "workload is what warms the semantic cache)",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="print the full metrics report of the last sweep",
    )
    serve.set_defaults(handler=_cmd_bench_serve)

    slo = sub.add_parser(
        "bench-slo",
        help="open-loop SLO load harness (Poisson arrivals, admission "
        "control)",
    )
    slo.add_argument("database")
    slo.add_argument(
        "--mode",
        choices=["zipf", "flightpath", "mixed"],
        default="zipf",
        help="workload shape: zipfian hotspots, correlated flight-path "
        "sessions, or an even interleave",
    )
    slo.add_argument(
        "--requests", type=int, default=400, help="arrivals to generate"
    )
    rate = slo.add_mutually_exclusive_group()
    rate.add_argument(
        "--offered-rate",
        type=float,
        default=None,
        help="offered arrival rate in requests/second",
    )
    rate.add_argument(
        "--rate-multiple",
        type=float,
        default=2.0,
        help="offered rate as a multiple of the measured closed-loop "
        "capacity (default 2.0; ignored with --offered-rate)",
    )
    slo.add_argument(
        "--workers", type=int, default=4, help="engine worker threads"
    )
    slo.add_argument(
        "--slo-ms",
        type=float,
        default=50.0,
        help="latency budget goodput is scored against (from scheduled "
        "arrival, so queue wait counts)",
    )
    slo.add_argument("--tenants", type=int, default=4)
    slo.add_argument("--hotspots", type=int, default=64)
    slo.add_argument("--sessions", type=int, default=8)
    slo.add_argument(
        "--roi-frac",
        type=float,
        default=0.15,
        help="ROI edge length as a fraction of the terrain extent",
    )
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument(
        "--budget-da",
        type=float,
        default=None,
        help="admission budget in estimated cluster-run pages (default: "
        "auto — twice the workers' mean-cost working set)",
    )
    slo.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        help="per-tenant token refill in cost units/second (default: "
        "per-tenant fairness off)",
    )
    slo.add_argument(
        "--no-admission",
        action="store_true",
        help="run without a CostGovernor (the latency-collapse control "
        "arm)",
    )
    slo.add_argument(
        "--pool-pages",
        type=int,
        default=64,
        help="buffer pool capacity (small pools keep the workload I/O "
        "bound)",
    )
    slo.add_argument(
        "--io-latency",
        type=float,
        default=0.0,
        help="simulated seconds per physical page read (0 = off)",
    )
    slo.add_argument(
        "--cache-mb",
        type=float,
        default=0.0,
        help="semantic result cache budget in MiB (0 = cache off)",
    )
    slo.add_argument(
        "--json",
        metavar="FILE",
        help="write the schema-versioned report JSON here",
    )
    slo.add_argument(
        "--metrics",
        action="store_true",
        help="print the full metrics report after the run",
    )
    slo.set_defaults(handler=_cmd_bench_slo)

    fsck = sub.add_parser(
        "fsck",
        help="verify (and optionally repair) storage integrity",
    )
    fsck.add_argument("database")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="restore corrupt pages from a committed write-ahead log "
        "and quarantine what it cannot restore",
    )
    fsck.add_argument(
        "--archive",
        action="store_true",
        help="snapshot every page into a committed WAL (a repair "
        "source for later drills) before scrubbing",
    )
    fsck.add_argument(
        "--inject",
        type=int,
        default=0,
        metavar="N",
        help="corruption drill: damage N random pages before the "
        "scrub (seeded; the scrub must then find exactly N)",
    )
    fsck.add_argument(
        "--kind",
        choices=["bitflip", "torn", "zero"],
        default=None,
        help="restrict --inject to one corruption kind (default: mix)",
    )
    fsck.add_argument("--seed", type=int, default=0)
    fsck.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report instead of text",
    )
    fsck.set_defaults(handler=_cmd_fsck)

    info = sub.add_parser("info", help="describe a built database")
    info.add_argument("database")
    info.set_defaults(handler=_cmd_info)
    return parser


def _cmd_build(args) -> int:
    if args.from_pm:
        from repro.mesh.pmfile import load_pm

        pm, connections = load_pm(args.from_pm)
        if connections is None:
            connections = build_connection_lists(pm)
    elif args.dem:
        field = read_esri_ascii(args.dem)
        mesh = DEM(field, Path(args.dem).stem).to_scattered_trimesh(
            args.points, seed=args.seed
        )
        pm = simplify_to_pm(mesh, SimplifyConfig(error_measure="vertical"))
        pm.normalize_lod()
        connections = build_connection_lists(pm)
    else:
        dataset = dataset_by_name(args.dataset, args.points, seed=args.seed or None)
        pm = dataset.pm
        connections = dataset.connections
    if args.save_pm:
        from repro.mesh.pmfile import save_pm

        save_pm(args.save_pm, pm, connections)
        print(f"saved progressive mesh to {args.save_pm}")
    with Database(args.database) as db:
        with db.atomic():  # Crash-safe: a killed build never corrupts.
            store = DirectMeshStore.build(
                pm, db, connections, compress_connections=args.compress
            )
        report = store.build_report
        if report is None:
            raise InvariantError("freshly built store has no build report")
        print(
            f"built {report.n_nodes} nodes: {report.heap_pages} data pages, "
            f"{report.index_pages} index pages, "
            f"avg {report.avg_connections:.1f} connections/node"
        )
        print(f"max LOD: {store.max_lod:.3f}")
    return 0


def _open(args) -> tuple[Database, DirectMeshStore]:
    db = Database(args.database)
    store, _ = DirectMeshStore.open_committed(db)
    return db, store


def _roi_or_extent(args, store: DirectMeshStore) -> Rect:
    if args.roi:
        return Rect(*args.roi)
    space = store.rtree.data_space
    if space is None:
        raise ReproError("database is empty")
    return space.rect


def _finish(result, args, db) -> int:
    print(
        f"{len(result)} points, {len(result.triangles())} triangles, "
        f"{db.disk_accesses} disk accesses"
    )
    if args.render:
        print(render_points(result.points()))
    if args.obj:
        vertices, triangles = result.vertex_mesh()
        write_obj(args.obj, vertices=vertices, triangles=triangles)
        print(f"wrote {args.obj}")
    db.close()
    return 0


def _cmd_query(args) -> int:
    db, store = _open(args)
    roi = _roi_or_extent(args, store)
    db.begin_measured_query()
    result = store.uniform_query(roi, args.lod)
    return _finish(result, args, db)


def _cmd_viewdep(args) -> int:
    db, store = _open(args)
    plane = QueryPlane(
        Rect(*args.roi), args.emin, args.emax, tuple(args.direction)
    )
    db.begin_measured_query()
    result = store.multi_base_query(plane)
    print(f"multi-base plan: {result.n_range_queries} range queries")
    return _finish(result, args, db)


def _cmd_explain(args) -> int:
    from repro.core.explain import explain

    db, store = _open(args)
    roi = Rect(*args.roi)
    if args.lod is not None:
        explanation = explain(store, roi, lod=args.lod, execute=args.execute)
    elif args.emin is not None and args.emax is not None:
        plane = QueryPlane(roi, args.emin, args.emax)
        explanation = explain(store, plane, execute=args.execute)
    else:
        raise ReproError("explain needs --lod or both --emin and --emax")
    print(explanation.to_text())
    db.close()
    return 0


def _cmd_bench_serve(args) -> int:
    import random

    from repro.bench.runner import measure_throughput
    from repro.core.engine import SingleBaseRequest, UniformRequest
    from repro.obs.metrics import MetricsRegistry

    db = Database(
        args.database,
        pool_pages=args.pool_pages,
        io_latency=args.io_latency,
    )
    store, epoch = DirectMeshStore.open_committed(db)
    space = store.clusters.index.extent
    if space is None:
        raise ReproError("database is empty")
    extent = space.rect
    rng = random.Random(args.seed)
    side = args.roi_frac * min(extent.width, extent.height)

    def random_roi() -> Rect:
        x0 = extent.min_x + rng.random() * (extent.width - side)
        y0 = extent.min_y + rng.random() * (extent.height - side)
        return Rect(x0, y0, x0 + side, y0 + side)

    requests = []
    for i in range(args.requests):
        viewdep = args.mode == "viewdep" or (
            args.mode == "mixed" and i % 2 == 1
        )
        if viewdep:
            e_min = (0.1 + 0.3 * rng.random()) * store.max_lod
            e_max = e_min + (0.2 + 0.4 * rng.random()) * store.max_lod
            requests.append(
                SingleBaseRequest(QueryPlane(random_roi(), e_min, e_max))
            )
        else:
            lod = (0.2 + 0.6 * rng.random()) * store.max_lod
            requests.append(UniformRequest(random_roi(), lod))

    # Faults go live only now: the open/workload phases above are
    # setup, not serving — only the engine's retry/quarantine paths
    # should face injected errors or corruption.
    injector = None
    if args.fault_rate > 0.0 or args.corrupt_rate > 0.0:
        from repro.storage.faults import FaultInjector

        injector = FaultInjector(
            error_rate=args.fault_rate,
            corrupt_rate=args.corrupt_rate,
            seed=args.seed,
        )
        db.set_fault_injector(injector)

    print(
        f"bench-serve: {args.requests} {args.mode} requests "
        f"x{args.repeat}, pool {args.pool_pages} pages, "
        f"io latency {args.io_latency}s"
    )
    if args.cache_mb > 0.0:
        print(
            f"  semantic cache: {args.cache_mb} MiB, "
            f"prefetch-e {args.prefetch_e}"
        )
    if (
        args.fault_rate > 0.0
        or args.corrupt_rate > 0.0
        or args.deadline_ms is not None
    ):
        deadline = (
            "none" if args.deadline_ms is None else f"{args.deadline_ms}ms"
        )
        print(
            f"  faults: rate {args.fault_rate}, corrupt "
            f"{args.corrupt_rate}, retries {args.retries}, "
            f"deadline {deadline}"
        )
    print(
        f"  {'workers':<10}{'wall s':<12}{'queries/s':<12}{'speedup':<10}"
        f"{'ok':<8}{'err':<8}{'degraded':<10}{'hit%':<8}"
    )
    deadline_s = (
        None if args.deadline_ms is None else args.deadline_ms / 1000.0
    )
    base_qps = None
    registry = None
    for workers in args.workers:
        registry = MetricsRegistry()
        # A fresh cache per sweep: every worker count faces the same
        # cold-cache state, so rows stay comparable.
        cache = None
        if args.cache_mb > 0.0:
            from repro.core.cache import SemanticCache

            cache = SemanticCache(
                int(args.cache_mb * 1024 * 1024),
                prefetch_e=args.prefetch_e,
            )
        report = measure_throughput(
            store,
            requests,
            workers,
            registry=registry,
            retries=args.retries,
            deadline_s=deadline_s,
            cache=cache,
            repeat=args.repeat,
            epoch=epoch,
        )
        if base_qps is None:
            base_qps = report.qps
        speedup = report.qps / base_qps if base_qps else 0.0
        print(
            f"  {workers:<10}{report.wall_s:<12.3f}"
            f"{report.qps:<12.1f}{speedup:<10.2f}"
            f"{report.n_ok:<8}{report.n_errors:<8}{report.n_degraded:<10}"
            f"{100.0 * report.cache_hit_rate:<8.1f}"
        )
    if injector is not None:
        print(
            f"  injected {injector.errors_injected} faults, "
            f"{injector.corruptions_injected} corruptions over "
            f"{injector.calls} reads"
        )
        if args.corrupt_rate > 0.0:
            print(
                f"  crc failures: {db.crc_failures} "
                f"(run `python -m repro fsck` to scrub and repair)"
            )
    if args.metrics and registry is not None:
        print()
        print(registry.report())
    db.close()
    return 0


def _cmd_bench_slo(args) -> int:
    import json

    from repro.bench.openloop import (
        OpenLoopConfig,
        measure_capacity,
        run_open_loop,
        suggest_budget,
        validate_slo_report,
    )
    from repro.core.admission import CostGovernor
    from repro.core.engine import QueryEngine
    from repro.obs.metrics import MetricsRegistry

    db = Database(
        args.database,
        pool_pages=args.pool_pages,
        io_latency=args.io_latency,
    )
    store, epoch = DirectMeshStore.open_committed(db)

    def config_at(rate: float) -> OpenLoopConfig:
        return OpenLoopConfig(
            offered_rate=rate,
            n_requests=args.requests,
            mode=args.mode,
            seed=args.seed,
            roi_frac=args.roi_frac,
            hotspots=args.hotspots,
            sessions=args.sessions,
            tenants=args.tenants,
            slo_ms=args.slo_ms,
        )

    capacity = None
    if args.offered_rate is not None:
        offered = args.offered_rate
    else:
        capacity = measure_capacity(
            store, config_at(1.0), workers=args.workers
        )
        offered = args.rate_multiple * capacity
        print(
            f"closed-loop capacity: {capacity:.1f} qps -> offering "
            f"{offered:.1f} req/s ({args.rate_multiple:g}x)"
        )
    config = config_at(offered)

    governor = None
    if not args.no_admission:
        budget = args.budget_da
        if budget is None:
            budget = suggest_budget(store, config, args.workers)
            print(f"admission budget: {budget:.1f} estimated run pages")
        governor = CostGovernor(budget, tenant_rate=args.tenant_rate)

    cache = None
    if args.cache_mb > 0.0:
        from repro.core.cache import SemanticCache

        cache = SemanticCache(int(args.cache_mb * 1024 * 1024))

    registry = MetricsRegistry()
    with QueryEngine(
        store,
        workers=args.workers,
        registry=registry,
        governor=governor,
        cache=cache,
        epoch=epoch,
    ) as engine:
        result = run_open_loop(engine, config)
    print(result.to_text())

    report = result.to_json()
    if capacity is not None:
        report["capacity_qps"] = round(capacity, 1)
        report["rate_multiple"] = args.rate_multiple
    problems = validate_slo_report(report)
    if problems:
        raise InvariantError(
            "generated report fails its own schema", problems=problems
        )
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.metrics:
        print()
        print(registry.report())
    db.close()
    return 0


def _cmd_fsck(args) -> int:
    import json

    from repro.obs.metrics import MetricsRegistry
    from repro.storage import (
        FsckReport,
        archive_pages,
        inject_corruption,
        repair_database,
        scrub_database,
    )
    from repro.storage.faults import CORRUPTION_KINDS

    path = Path(args.database)
    if not path.is_dir():
        raise ReproError(f"{path} is not a database directory")
    registry = MetricsRegistry()
    notes: list[str] = []
    try:
        # recover=False: an fsck must inspect the database as-is, not
        # replay (and delete) the WAL it may later want as a repair
        # source.
        db = Database(path, recover=False)
    except StorageError as exc:
        # A retired page format (or no format flag): no page of it can
        # be read, so there is nothing to scan.
        report = FsckReport(path=str(path), structural=[str(exc)])
        print(
            json.dumps(report.to_json(), indent=2, sort_keys=True)
            if args.json
            else report.to_text()
        )
        return 1
    with db:
        if args.archive:
            wal_path = archive_pages(db)
            total = sum(db.segment_pages(n) for n in db.segment_names())
            notes.append(f"archived {total} pages to {wal_path.name}")
        if args.inject > 0:
            kinds = (args.kind,) if args.kind else CORRUPTION_KINDS
            hits = inject_corruption(
                path,
                args.inject,
                seed=args.seed,
                kinds=kinds,
                page_size=db.page_size,
            )
            notes.append(
                f"injected {len(hits)} corruptions: "
                + ", ".join(f"{s}:{p} ({k})" for s, p, k in hits)
            )
        report = scrub_database(db, registry)
        if args.repair:
            repair_database(db, report)
            registry.counter("fsck.pages_repaired").inc(report.repaired_pages)
            registry.counter("fsck.pages_quarantined").inc(
                report.quarantined_pages
            )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for note in notes:
            print(note)
        print(report.to_text())
    return 0 if report.ok else 1


def _cmd_info(args) -> int:
    path = Path(args.database)
    if not path.is_dir():
        raise ReproError(f"{path} is not a database directory")
    with Database(path) as db:
        print(f"database: {path}")
        for name in db.segment_names():
            pages = db.segment_pages(name)
            print(f"  {name:<16} {pages:>6} pages  "
                  f"({pages * db.page_size / 1024:.0f} KiB)")
        try:
            store, epoch = DirectMeshStore.open_committed(db)
        except ReproError:
            print("no Direct Mesh store present")
            return 0
        print(f"direct mesh: epoch {epoch}, max LOD {store.max_lod:.3f}, "
              f"{len(store.rtree)} indexed segments, "
              f"R*-tree height {store.rtree.height}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
