"""Spans recorded from outside ``repro``: wrappers, self time, JSONL.

A span is ``(id, parent, request, name, thread, start_ns, end_ns, n)``
kept in memory (``n`` is an optional count taken at the same boundary,
e.g. how many clusters a selection returned).  :class:`Tracer` installs
timing wrappers around each layer's public callables for one traced
pass and restores the originals afterwards; ``src/repro`` is never
edited.

**Parent.**  The top of the recording thread's span stack; a span
opened on a thread with an empty stack (an engine pool thread) belongs
to the client's in-flight request.  One request is in flight per
client, so this is unambiguous; in ``patch_mix`` the writer thread has
its own root (``mutate.apply_patch``), so its spans belong to the
commit and everything else to the reader's request.

**Self time.**  A span's duration minus the part its child spans
cover.  Children may run on another thread than their parent (the
client blocks on a future while a pool thread works), so the
arithmetic is done on the request's timeline: every instant of the
root span goes to the span, among those open at that instant, that
started last.  For properly nested spans on one thread that is
exactly "duration minus children", and per-request self times always
sum to the root span.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Iterator

SPAN_FIELDS = (
    "id", "parent", "request", "name", "thread", "start_ns", "end_ns", "n"
)
_ID, _PARENT, _REQUEST, _NAME, _THREAD, _START, _END, _N = range(8)

#: ``hook(args, result) -> int``: the count recorded on the span.
Hook = Callable[[tuple, Any], int]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``owner.attr`` recorded as ``name``."""

    name: str
    owner: Any  # a class or a module
    attr: str
    root: bool = False  # opens a request of its own (a commit)
    hook: Hook | None = None
    wait: bool = False  # result is a future: also span its .result()


def _len_result(args: tuple, result: Any) -> int:
    return len(result)


def _wal_bytes(args: tuple, result: Any) -> int:
    return args[0].path.stat().st_size


def layer_targets() -> list[Target]:
    """The wrapped callables of the serving, streaming and write paths."""
    from repro.core import clusters, query, reconstruct, streaming, wire
    from repro.core.cache import ClusterCache, SemanticCache
    from repro.core.cost_model import RTreeCostModel
    from repro.core.direct_mesh import DirectMeshStore
    from repro.core.engine import QueryEngine
    from repro.core.mutate import MutableStore
    from repro.index.rstar import RStarTree
    from repro.storage import record
    from repro.storage.database import Segment
    from repro.storage.pager import Pager
    from repro.storage.wal import WriteAheadLog
    from repro.terrain.dem import DEM

    return [
        Target("engine.submit", QueryEngine, "submit", wait=True),
        Target("engine.install", QueryEngine, "install_store"),
        Target("cache.lookup", SemanticCache, "lookup"),
        Target("cache.insert", SemanticCache, "insert"),
        Target("cache.begin_epoch", SemanticCache, "begin_epoch"),
        Target("cluster_cache.get", ClusterCache, "get"),
        Target("cluster_cache.put", ClusterCache, "put"),
        Target("cluster_cache.invalidate", ClusterCache, "invalidate"),
        Target(
            "clusters.candidates", clusters.ClusterIndex, "candidates",
            hook=_len_result,
        ),
        Target("clusters.decode", clusters.ClusterSet, "decode"),
        Target("clusters.blob", clusters, "decode_cluster_blob"),
        Target("clusters.narrow", clusters, "intersecting_rows"),
        Target("storage.read_run", Segment, "read_run"),
        Target("storage.fetch", Segment, "fetch"),
        Target("storage.read_pages", Pager, "read_pages"),
        Target("storage.read_page", Pager, "read_page"),
        Target("storage.write_page", Pager, "write_page"),
        Target("storage.sync", Pager, "sync"),
        Target("record.decode", record, "decode_dm_nodes_columnar"),
        Target("record.concat", record, "concat_dm_columns"),
        Target("record.select", record.DMNodeColumns, "select"),
        Target("query.filter_uniform", query, "filter_uniform_columnar"),
        Target("query.filter_plane", query, "filter_to_plane_columnar"),
        Target("reconstruct.edges", reconstruct, "mesh_edges"),
        Target("reconstruct.triangles", reconstruct, "mesh_triangles"),
        Target("streaming.update", streaming.EngineSession, "update"),
        Target("streaming.resync", streaming.EngineSession, "resync"),
        Target("streaming.diff", streaming, "diff_active"),
        Target("wire.encode", wire, "encode_frame"),
        Target("wire.decode", wire, "decode_frame"),
        Target("wire.apply", wire.ClientMesh, "apply"),
        Target("mutate.apply_patch", MutableStore, "apply_patch", root=True),
        Target("mutate.dem_patch", DEM, "apply_patch"),
        Target("direct_mesh.materialize", DirectMeshStore, "materialize"),
        Target("wal.begin_patch", WriteAheadLog, "begin_patch"),
        Target("wal.log_page", WriteAheadLog, "log_page"),
        Target(
            "wal.commit_patch", WriteAheadLog, "commit_patch", hook=_wal_bytes
        ),
        Target("rstar.search", RStarTree, "search"),
        Target("cost_model.estimate", RTreeCostModel, "estimate"),
    ]


def build_targets() -> list[Target]:
    """The build pipeline, wrapped while a traced run sets its store up."""
    from repro.core import connectivity
    from repro.core.direct_mesh import DirectMeshStore
    from repro.core.mutate import MutableStore
    from repro.mesh import simplify
    from repro.mesh.progressive import ProgressiveMesh
    from repro.terrain import synthetic
    from repro.terrain.dem import DEM

    return [
        Target("terrain.synth", synthetic, "ridge_field"),
        Target("terrain.synth", DEM, "to_scattered_trimesh"),
        Target("mesh.simplify", simplify, "simplify_to_pm"),
        Target("mesh.simplify", ProgressiveMesh, "normalize_lod"),
        Target("connectivity.build", connectivity, "build_connection_lists"),
        Target("direct_mesh.materialize", DirectMeshStore, "materialize"),
        Target("mutate.build", MutableStore, "build"),
    ]


def holders(fn: Callable) -> list[tuple[Any, str]]:
    """Every ``(repro module, attribute)`` bound to ``fn``: the module
    that defines it and each one that imported it by value."""
    return [
        (module, key)
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for key, value in list(vars(module).items())
        if value is fn
    ]


class Tracer:
    """Records spans through wrappers it installs and removes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_root: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _open(self, name: str, root: bool = False) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        if root:
            parent, request = None, span_id
        elif stack:
            parent, request = stack[-1][_ID], stack[-1][_REQUEST]
        else:
            parent = request = self._client_root
        span = [
            span_id, parent, request, name, threading.get_ident(),
            perf_counter_ns(), 0, 0,
        ]
        stack.append(span)
        return span

    def _close(self, span: list, n: int = 0) -> None:
        span[_END] = perf_counter_ns()
        span[_N] = n
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def request(self, name: str = "request") -> Iterator[None]:
        """The client's root span; pool-thread spans opened meanwhile
        belong to it."""
        span = self._open(name, root=True)
        self._client_root = span[_ID]
        try:
            yield
        finally:
            self._client_root = None
            self._close(span)

    def _span_wait(self, future: Any) -> None:
        """Span the caller's wait on ``future`` as ``engine.wait``."""
        original = future.result

        def result(timeout: float | None = None) -> Any:
            span = self._open("engine.wait")
            try:
                return original(timeout)
            finally:
                self._close(span)

        future.result = result

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, root, hook, wait = (
            target.name, target.root, target.hook, target.wait
        )

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # A module first imported during a traced pass may keep
            # this wrapper; it must turn into a plain call afterwards.
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name, root)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    n = hook(args, result)
                if wait:
                    self._span_wait(result)
                return result
            finally:
                self._close(span, n)

        return traced

    # -- install / restore -------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target.  A module-level function imported by
        value is rebound in every ``repro`` module that holds it."""
        for target in targets:
            owner, attr = target.owner, target.attr
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped: Any = type(raw)(
                        self._wrap(raw.__func__, target)
                    )
                else:
                    wrapped = self._wrap(raw, target)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, target)
            for module, key in holders(fn):
                self._patches.append((module, key, fn))
                setattr(module, key, wrapped)
        self.enabled = True

    def uninstall(self) -> None:
        """Put every original back (``is``-identical) and stop recording."""
        self.enabled = False
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        """One header line naming the fields, then one array per span."""
        with open(path, "w", encoding="ascii") as f:
            f.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, int]:
    """Self time (ns) of each span of *one* request, root included.

    Every instant of the root interval is given to the open span that
    started last, so the values sum to the root's duration.
    """
    root = next(s for s in spans if s[_ID] == s[_REQUEST])
    lo, hi = root[_START], root[_END]
    clipped = [
        (max(s[_START], lo), min(s[_END], hi), s[_ID])
        for s in spans
    ]
    clipped = sorted(c for c in clipped if c[0] < c[1] or c[2] == root[_ID])
    points = sorted({t for c in clipped for t in c[:2]})
    result = {s[_ID]: 0 for s in spans}
    active: list[tuple[int, int, int]] = []  # (-start, -id, end)
    i = 0
    for t0, t1 in zip(points, points[1:]):
        while i < len(clipped) and clipped[i][0] <= t0:
            start, end, span_id = clipped[i]
            heapq.heappush(active, (-start, -span_id, end))
            i += 1
        while active and active[0][2] <= t0:
            heapq.heappop(active)
        if active:
            result[-active[0][1]] += t1 - t0
    return result


@dataclass
class LayerTable:
    """Self time, calls and counts per (root name, span name)."""

    roots: dict[str, int]  # root name -> number of roots
    root_ns: dict[str, float]  # root name -> summed root durations
    self_ns: dict[tuple[str, str], float]
    calls: dict[tuple[str, str], int]
    counts: dict[tuple[str, str], int]  # summed span.n
    children: dict[tuple[str, str], int]  # (parent name, child name) -> calls

    def ms_per_root(self, root: str, *names: str) -> float:
        """Mean self time of ``names`` per ``root`` span, in ms."""
        n_roots = self.roots.get(root, 0)
        if not n_roots:
            return 0.0
        total = sum(self.self_ns.get((root, name), 0) for name in names)
        return total / n_roots / 1e6

    def unattributed_ratio(self, root: str) -> float:
        """Share of ``root`` time that no named child covers."""
        total = self.root_ns.get(root, 0)
        return self.self_ns.get((root, root), 0) / total if total else 0.0


def layer_table(
    spans: list[list],
    slowdown: Callable[[list[int]], Any] | None = None,
) -> LayerTable:
    """Aggregate every request's self times by root and span name.

    ``slowdown`` (see hostspeed.py) gives the host's slowdown at an
    instant; each request's times are divided by it, so the table
    reads at nominal host speed like the end-to-end timings do."""
    by_request: dict[int, list[list]] = defaultdict(list)
    names: dict[int, str] = {}
    roots: list[list] = []
    for span in spans:
        names[span[_ID]] = span[_NAME]
        if span[_REQUEST] is not None:
            by_request[span[_REQUEST]].append(span)
        if span[_ID] == span[_REQUEST]:
            roots.append(span)
    scales: dict[int, float] = {}
    if slowdown is not None and roots:
        middles = [(r[_START] + r[_END]) // 2 for r in roots]
        for root, slow in zip(roots, slowdown(middles)):
            scales[root[_ID]] = 1.0 / float(slow)
    table = LayerTable(
        defaultdict(int), defaultdict(int), defaultdict(int),
        defaultdict(int), defaultdict(int), defaultdict(int),
    )
    for request_id, members in by_request.items():
        root_name = names.get(request_id)
        if root_name is None:
            continue
        table.roots[root_name] += 1
        times = self_times(members)
        scale = scales.get(request_id, 1.0)
        for span in members:
            key = (root_name, span[_NAME])
            table.self_ns[key] += times[span[_ID]] * scale
            table.calls[key] += 1
            table.counts[key] += span[_N]
            if span[_ID] == request_id:
                table.root_ns[root_name] += (span[_END] - span[_START]) * scale
            elif span[_PARENT] in names:
                table.children[(names[span[_PARENT]], span[_NAME])] += 1
    return table
