"""Query results and the DM query algorithms (paper Section 5).

The paper's claim is that selective refinement is *one* 3D range query
over an R*-tree; :func:`range_columns` is that query — the only probe
of the store's R*-tree, which indexes its cluster extents — and the
three processors are *clamped box -> range_columns -> columnar
filter*, all operating on a
:class:`~repro.core.direct_mesh.DirectMeshStore`:

* :func:`uniform_query` — viewpoint-independent ``Q(M, r, e)``: one 3D
  range query with a *query plane* (degenerate box at height ``e``);
* :func:`single_base_query` — Algorithm 1: one query cube
  ``r x [e_min, e_max]``, top-plane mesh, refinement to the plane;
* :func:`multi_base_query` — the cost-model-optimised plan of several
  smaller cubes (Section 5.3), merged and refined identically.

These are the reference the serving engine (:mod:`repro.core.engine`,
which selects from the same extents in memory, behind a
decoded-cluster cache) is held to, and the path the paper's figures
count disk accesses on: R*-tree pages plus run pages.  Disk accesses are
*not* reset here: callers scope measurements with
``database.begin_measured_query()`` /
``database.stats`` so that query composition stays measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.clusters import intersecting_rows
from repro.core.reconstruct import (
    KERNEL_MIN_NODES,
    IdArray,
    MeshArrays,
    mesh_edges,
    mesh_triangles,
    pack_records,
)
from repro.errors import QueryError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Box3, Rect
from repro.storage.record import (
    DMNodeColumns,
    DMNodeRecord,
    concat_dm_columns,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy.typing as npt

    from repro.core.cost_model import MultiBasePlan
    from repro.core.direct_mesh import DirectMeshStore

__all__ = [
    "DMQueryResult",
    "clamp_lod",
    "plane_box",
    "plane_cube",
    "range_columns",
    "uniform_query",
    "single_base_query",
    "multi_base_query",
    "filter_uniform_columnar",
    "filter_to_plane_columnar",
]


@dataclass
class DMQueryResult:
    """Result of a Direct Mesh terrain query.

    Attributes:
        nodes: the approximation's nodes, keyed by id.
        retrieved: how many records the range quer(ies) fetched before
            filtering — ``retrieved - len(nodes)`` is the extraneous
            data volume.
        n_range_queries: how many index range queries ran (1 for
            uniform/single-base; the plan size for multi-base).
        plan: the multi-base plan, when one was used.
        arrays: ``nodes`` as the columns reconstruction reads (same
            rows, same order).  The filters gather them from the page
            they mask when the answer is large enough for the kernels;
            any other result packs them from ``nodes`` on first use.

    :meth:`edges` and :meth:`triangles` return node ids as sorted
    ``int64`` arrays — ``(k, 2)`` pairs ``a < b`` and ``(m, 3)``
    triples ``a < b < c``, rows in lexicographic order — computed once
    per result.  The memo is filled compute-then-assign, so a result
    read from several threads (it is built on an engine worker and
    handed out through a future) never shows a half-built array; two
    racing readers compute equal arrays and one wins.
    """

    nodes: dict[int, DMNodeRecord]
    retrieved: int
    n_range_queries: int = 1
    plan: MultiBasePlan | None = None
    arrays: MeshArrays | None = field(default=None, repr=False, compare=False)
    _edges: IdArray | None = field(default=None, repr=False, compare=False)
    _triangles: IdArray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def _mesh_arrays(self) -> MeshArrays:
        arrays = self.arrays
        if arrays is None:
            arrays = self.arrays = pack_records(self.nodes)
        return arrays

    def edges(self) -> IdArray:
        """Approximation edges, ``(k, 2)`` sorted id pairs."""
        edges = self._edges
        if edges is None:
            edges = self._edges = mesh_edges(self._mesh_arrays())
        return edges

    def triangles(self) -> IdArray:
        """Approximation triangles (angular extraction), ``(m, 3)``
        sorted id triples.

        Answers under :data:`~repro.core.reconstruct.KERNEL_MIN_NODES`
        nodes are rebuilt from the record dict by the scalar oracle,
        which is cheaper and steadier than the kernel's fixed cost
        there; the arrays are the same.
        """
        triangles = self._triangles
        if triangles is not None:
            return triangles
        if len(self.nodes) < KERNEL_MIN_NODES:
            triangles = mesh_triangles(self.nodes)
        else:
            triangles = mesh_triangles(self._mesh_arrays(), self.edges())
        self._triangles = triangles
        return triangles

    def points(self) -> list[tuple[float, float, float]]:
        """The approximation's 3D points, by ascending node id."""
        return [
            (rec.x, rec.y, rec.z)
            for _, rec in sorted(self.nodes.items())
        ]

    def vertex_mesh(
        self,
    ) -> tuple[list[tuple[float, float, float]], IdArray]:
        """``(vertices, triangles)`` with dense vertex indices — ready
        for :func:`repro.terrain.io.write_obj`.  ``vertices`` is
        :meth:`points`; a triangle row indexes into it."""
        ids = np.array(sorted(self.nodes), np.int64)
        faces = np.searchsorted(ids, self.triangles())
        return self.points(), faces.astype(np.int64, copy=False)


def clamp_lod(e: float, e_cap: float | None) -> float:
    """Clamp a probe height to the store's indexing cap.

    Root records keep the paper's ``[e, inf)`` interval but their
    *indexed* segments top out at ``e_cap``, so an index probe above
    the cap would sail over every segment and return an empty mesh.
    Every query-box construction must route its LOD coordinates
    through this helper (``reprolint`` rule R2 enforces it); the
    per-request *filters* keep using the real, unclamped LOD, which is
    what makes ``lod > e_cap`` return exactly the base mesh.

    ``e_cap=None`` (no cap known) returns ``e`` unchanged.
    """
    if e_cap is None:
        return e
    return min(e, e_cap)


def plane_box(roi: Rect, lod: float, e_cap: float | None) -> Box3:
    """The degenerate box a uniform query probes: ``roi`` at height
    ``lod``, clamped to ``e_cap``."""
    probe_e = clamp_lod(lod, e_cap)
    return Box3.from_rect(roi, probe_e, probe_e)


def plane_cube(plane: QueryPlane, e_cap: float | None) -> Box3:
    """The query cube ``roi x [e_min, e_max]`` of a plane (or of one
    strip of a multi-base plan), clamped to ``e_cap``."""
    return Box3.from_rect(
        plane.roi, clamp_lod(plane.e_min, e_cap), clamp_lod(plane.e_max, e_cap)
    )


def range_columns(store: "DirectMeshStore", box: Box3) -> DMNodeColumns:
    """The paper's one range query: every record whose indexed segment
    intersects ``box``, as one columnar page.

    An R*-tree probe for the clusters whose extent meets ``box``, each
    run read page by page through the buffer pool
    (:meth:`~repro.core.clusters.ClusterSet.fetch_blob`) and decoded,
    then the rows whose segment meets ``box``
    (:func:`intersecting_rows`) — the rows a per-node R*-tree probe of
    ``box`` returns.  The caller clamps ``box`` to the store's
    ``e_cap`` (:func:`plane_box`, :func:`plane_cube`).
    """
    clusters = store.clusters
    columns = concat_dm_columns([
        clusters.decode(cid, clusters.fetch_blob(cid))
        for cid in sorted(store.cluster_tree.search(box))
    ])
    if not len(columns):
        return columns
    return columns.select(intersecting_rows(columns, box, store.e_cap))


def uniform_query(
    store: "DirectMeshStore", roi: Rect, lod: float
) -> DMQueryResult:
    """Viewpoint-independent query: one range query with a query plane.

    Retrieves exactly the vertical segments crossing height ``lod``
    over ``roi`` and filters to the half-open interval semantics.

    The index probe height is clamped to the store's ``e_cap``: root
    records keep the paper's ``[e, inf)`` interval, but their *indexed*
    segments are capped at ``e_cap``, so a plane above the cap would
    sail over every segment and return an empty mesh.  Probing at
    ``min(lod, e_cap)`` while filtering with the real ``lod`` makes
    any ``lod > e_cap`` return exactly the base mesh.
    """
    if lod < 0:
        raise QueryError(f"LOD must be non-negative, got {lod}")
    columns = range_columns(store, plane_box(roi, lod, store.e_cap))
    return filter_uniform_columnar(columns, roi, lod)


def single_base_query(
    store: "DirectMeshStore", plane: QueryPlane
) -> DMQueryResult:
    """Viewpoint-dependent query, Algorithm 1 (single base).

    One query cube ``roi x [e_min, e_max]``; every node whose interval
    contains the plane's required LOD at its own position survives.
    The cube's LOD extent is clamped to ``e_cap`` like
    :func:`uniform_query`'s plane (no indexed segment rises above the
    cap; the plane filter uses the real LOD values).
    """
    columns = range_columns(store, plane_cube(plane, store.e_cap))
    return filter_to_plane_columnar(columns, plane)


def multi_base_query(
    store: "DirectMeshStore",
    plane: QueryPlane,
    plan: MultiBasePlan | None = None,
) -> DMQueryResult:
    """Viewpoint-dependent query with the multi-base optimisation.

    The plan (from :meth:`RTreeCostModel.plan_multi_base`) replaces the
    single cube by one smaller cube per strip; results are merged by
    node id (a strip-boundary node is retrieved by both strips, and
    ``retrieved`` counts it twice; a warm buffer pool serves the
    second read of the run holding it)
    and filtered against the *global* plane, so the strip meshes join
    seamlessly, as the paper argues they must.
    """
    if plan is None:
        plan = store.cost_model.plan_multi_base(plane)
    strips = [
        range_columns(store, plane_cube(strip, store.e_cap))
        for strip in plan.strips
    ]
    merged = concat_dm_columns(strips)
    # Keep the first row per node id (a boundary node is in two strips).
    first = np.zeros(len(merged), np.bool_)
    first[np.unique(merged.ids, return_index=True)[1]] = True
    result = filter_to_plane_columnar(merged.select(first), plane)
    result.retrieved = sum(len(strip) for strip in strips)
    result.n_range_queries = len(plan.strips)
    result.plan = plan
    return result


# -- the filters --------------------------------------------------------------
#
# Each predicate runs as one array mask over a
# :class:`~repro.storage.record.DMNodeColumns` page and only surviving
# rows become the answer.  ``tests/test_columnar.py`` holds them to
# the record-level predicate (``DMNodeRecord.interval_contains`` +
# ``Rect.contains_point``).


def _answer(
    columns: "DMNodeColumns", mask: "npt.NDArray[np.bool_]"
) -> DMQueryResult:
    """The rows where ``mask`` holds, as a result: the eager record
    dict and, for an answer the kernels will rebuild, the five columns
    they read — gathered here, so that the answer does not keep the
    page it was cut from alive."""
    nodes = columns.materialize(mask)
    arrays = None
    if len(nodes) >= KERNEL_MIN_NODES:
        rows = np.flatnonzero(mask)
        arrays = MeshArrays(
            columns.ids[rows], columns.x[rows], columns.y[rows],
            *columns.connections_of(rows),
        )
    return DMQueryResult(
        nodes=nodes, retrieved=len(columns), arrays=arrays
    )


def _roi_mask(
    columns: "DMNodeColumns", roi: Rect
) -> "npt.NDArray[np.bool_]":
    """``roi.contains_point`` over every row, as a boolean mask."""
    x, y = columns.x, columns.y
    return (
        (x >= roi.min_x) & (x <= roi.max_x)
        & (y >= roi.min_y) & (y <= roi.max_y)
    )


def filter_uniform_columnar(
    columns: "DMNodeColumns", roi: Rect, lod: float
) -> DMQueryResult:
    """The uniform-query predicate: half-open LOD interval over
    ``roi``.  Shared by :func:`uniform_query` and the engine so both
    return identical approximations."""
    mask = (
        (columns.e_low <= lod) & (lod < columns.e_high) & _roi_mask(columns, roi)
    )
    return _answer(columns, mask)


def filter_to_plane_columnar(
    columns: "DMNodeColumns", plane: QueryPlane
) -> DMQueryResult:
    """The viewpoint-dependent predicate: each node's interval must
    contain the plane's required LOD at the node's position.

    The required LOD comes from the field's ``required_lod_batch``
    kernel (:class:`~repro.geometry.plane.QueryPlane` and
    :class:`~repro.geometry.plane.RadialLodField` both have one).
    """
    required = plane.required_lod_batch(columns.x, columns.y)
    mask = (
        (columns.e_low <= required)
        & (required < columns.e_high)
        & _roi_mask(columns, plane.roi)
    )
    return _answer(columns, mask)
