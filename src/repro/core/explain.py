"""EXPLAIN for terrain queries: show the plan before running it.

A database system exposes its optimiser's reasoning; this module does
the same for Direct Mesh queries.  :func:`explain` returns a
:class:`QueryExplanation` describing the access path (query plane or
cube(s)), the cost model's per-range-query DA estimates, and — when
asked to execute — the actual counters next to the estimates, so the
model's accuracy is visible per query.

Example::

    >>> print(explain(store, plane).to_text())          # doctest: +SKIP
    viewpoint-dependent query (multi-base) (2 range queries)
      step 1: cube x:[0,2000] y:[0,1000] e:[0.5,4.2] est 6.1 DA
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


@dataclass(frozen=True)
class ClusterView:
    """The cluster runs a plan reads: the clusters the in-memory
    cluster directory selects for the plan's probe cubes, and the run
    pages and nodes decoding them costs."""

    candidates: int
    run_pages: int
    nodes: int


@dataclass
class QueryExplanation:
    """The plan (and optionally the execution) of one terrain query.

    ``steps`` are the range queries the query processors issue, each
    with its probe cube (clamped to the store's ``e_cap``).
    """

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

    @property
    def overfetch(self) -> float | None:
        """Cluster nodes decoded per record the execution retrieved
        (``None`` before execute or when nothing was retrieved)."""
        if self.cluster_view is None or not self.retrieved:
            return None
        return self.cluster_view.nodes / self.retrieved

    def to_text(self) -> str:
        """A formatted EXPLAIN block."""
        lines = [f"{self.kind} ({len(self.steps)} range quer"
                 f"{'y' if len(self.steps) == 1 else 'ies'})"]
        for index, step in enumerate(self.steps, 1):
            lines.append(f"  step {index}: {step.describe()}")
        lines.append(
            f"  estimated total: {self.estimated_da:.1f} DA "
            f"(formula (1) over the cluster extents: run pages)"
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
        view = self.cluster_view
        if view is not None:
            overfetch = self.overfetch
            lines.append(
                f"  cluster path: {view.candidates} candidate cluster"
                f"{'' if view.candidates == 1 else 's'}, "
                f"{view.run_pages} run pages, {view.nodes} nodes"
                + (f", overfetch {overfetch:.1f}x" if overfetch else "")
            )
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
        execute: also run the query once, on the paper's processors
            (:mod:`repro.core.query`), and attach its counters.
    """
    model = store.cost_model
    e_cap = store.e_cap
    if isinstance(query, Rect):
        if lod is None:
            raise QueryError("explain of a Rect query needs a lod value")
        cube = plane_box(query, lod, e_cap)
        explanation = QueryExplanation(
            kind="viewpoint-independent query",
            steps=[RangeStep(cube, model.estimate(cube))],
        )
        runner = lambda: store.uniform_query(query, lod)  # noqa: E731
    elif hasattr(query, "required_lod"):
        plan = model.plan_multi_base(query)
        cubes = [plane_cube(strip, e_cap) for strip in plan.strips]
        explanation = QueryExplanation(
            kind="viewpoint-dependent query (multi-base)"
            if plan.n_queries > 1
            else "viewpoint-dependent query (single-base)",
            steps=[RangeStep(cube, model.estimate(cube)) for cube in cubes],
            single_base_estimate=plan.single_base_da,
            predicted_gain=plan.predicted_gain,
        )
        runner = lambda: store.multi_base_query(query, plan=plan)  # noqa: E731
    else:
        raise QueryError(
            f"cannot explain query of type {type(query).__name__}"
        )

    clusters = store.clusters
    cids = {
        cid
        for step in explanation.steps
        for cid in clusters.index.candidates(step.cube)
    }
    explanation.cluster_view = ClusterView(
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
    return explanation
