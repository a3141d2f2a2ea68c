"""EXPLAIN for terrain queries: show the plan before running it.

A database system exposes its optimiser's reasoning; this module does
the same for Direct Mesh queries.  :func:`explain` returns a
:class:`QueryExplanation` describing the access path (query plane or
cube(s)), the cost model's per-range-query DA estimates, and — when
asked to execute — the actual counters next to the estimates, so the
model's accuracy is visible per query.

Example::

    >>> print(explain(store, plane).to_text())          # doctest: +SKIP
    viewpoint-dependent query (multi-base)
      strip 1: roi 640x320, e in [0.12, 3.4], est. 18.2 DA
      ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.query import plane_box, plane_cube
from repro.errors import QueryError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Box3, Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.direct_mesh import DirectMeshStore

__all__ = ["explain", "ClusterView", "QueryExplanation", "RangeStep"]


@dataclass(frozen=True)
class RangeStep:
    """One index range query in a plan."""

    cube: Box3
    estimated_da: float

    def describe(self) -> str:
        """One-line human-readable form."""
        flat = self.cube.depth == 0
        shape = "plane" if flat else "cube"
        return (
            f"{shape} x:[{self.cube.min_x:.0f},{self.cube.max_x:.0f}] "
            f"y:[{self.cube.min_y:.0f},{self.cube.max_y:.0f}] "
            f"e:[{self.cube.min_e:.3g},{self.cube.max_e:.3g}] "
            f"est {self.estimated_da:.1f} DA"
        )


@dataclass
class ClusterView:
    """The cluster fast path's side of a plan.

    The static half (``candidates`` / ``run_pages`` / ``nodes``) comes
    from the in-memory cluster directory: which clusters the probe
    cubes select and what decoding them costs.  The executed half is
    filled by running the query through a fresh
    :class:`~repro.core.engine.QueryEngine` — nodes decoded vs
    retrieved (the overfetch the batched layout trades for sequential
    I/O) and where each cluster came from (decoded-cluster cache hit
    vs physical run read).
    """

    candidates: int
    run_pages: int
    nodes: int
    pages_read: int | None = None
    nodes_decoded: int | None = None
    retrieved: int | None = None
    result_nodes: int | None = None
    decode_hits: int | None = None
    decode_misses: int | None = None

    @property
    def overfetch(self) -> float | None:
        """Nodes decoded per node retrieved (``None`` before execute
        or when nothing was retrieved)."""
        if not self.retrieved or self.nodes_decoded is None:
            return None
        return self.nodes_decoded / self.retrieved

    def lines(self) -> list[str]:
        """The EXPLAIN block's cluster section."""
        out = [
            f"  cluster path: {self.candidates} candidate cluster"
            f"{'' if self.candidates == 1 else 's'}, "
            f"{self.run_pages} run pages, {self.nodes} nodes"
        ]
        if self.nodes_decoded is not None:
            ratio = self.overfetch
            ratio_text = f", overfetch {ratio:.1f}x" if ratio else ""
            out.append(
                f"  executed clustered: {self.pages_read} pages read, "
                f"{self.nodes_decoded} decoded -> {self.retrieved} "
                f"retrieved -> {self.result_nodes} in result{ratio_text}"
            )
            out.append(
                f"  cluster provenance: {self.decode_hits} decoded-cache "
                f"hit{'' if self.decode_hits == 1 else 's'}, "
                f"{self.decode_misses} run read"
                f"{'' if self.decode_misses == 1 else 's'}"
            )
        return out


@dataclass
class QueryExplanation:
    """The plan (and optionally the execution) of one terrain query."""

    kind: str
    steps: list[RangeStep] = field(default_factory=list)
    single_base_estimate: float | None = None
    predicted_gain: float | None = None
    actual_da: int | None = None
    result_nodes: int | None = None
    retrieved: int | None = None
    cluster_view: ClusterView | None = None

    @property
    def estimated_da(self) -> float:
        """Total cost-model estimate across steps."""
        return sum(step.estimated_da for step in self.steps)

    def to_text(self) -> str:
        """A formatted EXPLAIN block."""
        lines = [f"{self.kind} ({len(self.steps)} range quer"
                 f"{'y' if len(self.steps) == 1 else 'ies'})"]
        for index, step in enumerate(self.steps, 1):
            lines.append(f"  step {index}: {step.describe()}")
        lines.append(
            f"  estimated total: {self.estimated_da:.1f} DA "
            f"(formula (1): index node accesses only)"
        )
        if self.predicted_gain is not None and self.predicted_gain > 0:
            lines.append(
                f"  multi-base gain vs single cube: "
                f"{self.predicted_gain:.1f} DA "
                f"(single-base est {self.single_base_estimate:.1f})"
            )
        if self.actual_da is not None:
            lines.append(
                f"  executed: {self.actual_da} DA, "
                f"{self.retrieved} records retrieved, "
                f"{self.result_nodes} in result"
            )
        if self.cluster_view is not None:
            lines.extend(self.cluster_view.lines())
        return "\n".join(lines)


def explain(
    store: "DirectMeshStore",
    query: Rect | QueryPlane,
    lod: float | None = None,
    execute: bool = False,
) -> QueryExplanation:
    """Explain (and optionally run) a terrain query.

    Args:
        store: a :class:`~repro.core.direct_mesh.DirectMeshStore`.
        query: a :class:`~repro.geometry.primitives.Rect` (with
            ``lod``) for a viewpoint-independent query, or an LOD
            field (QueryPlane / RadialLodField) for a
            viewpoint-dependent one.
        lod: the LOD for Rect queries.
        execute: also run the query cold and attach actual counters.
    """
    model = store.cost_model
    if isinstance(query, Rect):
        if lod is None:
            raise QueryError("explain of a Rect query needs a lod value")
        cube = Box3.from_rect(query, lod, lod)
        explanation = QueryExplanation(
            kind="viewpoint-independent query",
            steps=[RangeStep(cube, model.estimate(cube))],
        )
        runner = lambda: store.uniform_query(query, lod)  # noqa: E731
        # Cluster selection sees what the engine probes: the clamped
        # cube (an unclamped lod above e_cap selects nothing).
        probe_cubes = [plane_box(query, lod, store.e_cap)]
    elif hasattr(query, "required_lod"):
        plan = model.plan_multi_base(query)
        steps = [
            RangeStep(
                Box3.from_rect(strip.roi, strip.e_min, strip.e_max),
                model.estimate_plane(strip),
            )
            for strip in plan.strips
        ]
        explanation = QueryExplanation(
            kind="viewpoint-dependent query (multi-base)"
            if plan.n_queries > 1
            else "viewpoint-dependent query (single-base)",
            steps=steps,
            single_base_estimate=plan.single_base_da,
            predicted_gain=plan.predicted_gain,
        )
        runner = lambda: store.multi_base_query(query, plan=plan)  # noqa: E731
        probe_cubes = [
            plane_cube(strip, store.e_cap) for strip in plan.strips
        ]
    else:
        raise QueryError(
            f"cannot explain query of type {type(query).__name__}"
        )

    clusters = store.clusters
    cids = sorted(
        {
            cid
            for cube in probe_cubes
            for cid in clusters.index.candidates(cube)
        }
    )
    view = explanation.cluster_view = ClusterView(
        candidates=len(cids),
        run_pages=sum(clusters.meta(cid).n_pages for cid in cids),
        nodes=sum(clusters.meta(cid).n_nodes for cid in cids),
    )

    if execute:
        store.database.begin_measured_query()
        result = runner()
        explanation.actual_da = store.database.disk_accesses
        explanation.result_nodes = len(result)
        explanation.retrieved = result.retrieved
        _execute_clustered(store, query, lod, view)
    return explanation


def _execute_clustered(
    store: "DirectMeshStore",
    query: Rect | QueryPlane,
    lod: float | None,
    view: ClusterView,
) -> None:
    """Run the query through the cluster fast path and fill ``view``.

    A fresh single-worker engine (so its decoded-cluster cache starts
    cold — the provenance line shows this query's own hits vs run
    reads).  Non-plane LOD fields are left unexecuted: the engine's
    request types cover Rect and QueryPlane queries.
    """
    from repro.core.engine import (
        QueryEngine,
        SingleBaseRequest,
        UniformRequest,
    )
    from repro.obs.metrics import MetricsRegistry

    if isinstance(query, Rect):
        request = UniformRequest(query, lod)
    elif isinstance(query, QueryPlane):
        request = SingleBaseRequest(query)
    else:
        return
    registry = MetricsRegistry()
    with QueryEngine(store, workers=1, registry=registry) as engine:
        outcome = engine.run(request)
    if not outcome.ok or outcome.result is None:
        return
    counters = registry.counters()
    metrics = outcome.metrics
    view.candidates = metrics.clusters_touched
    view.pages_read = metrics.pages_read
    view.nodes_decoded = metrics.nodes_decoded
    view.retrieved = outcome.result.retrieved
    view.result_nodes = len(outcome.result.nodes)
    view.decode_hits = counters.get("cluster.decode_hits", 0)
    view.decode_misses = counters.get("cluster.decode_misses", 0)
