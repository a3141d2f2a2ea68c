"""In-memory selective refinement — the reference query semantics.

These functions answer terrain queries directly on an in-memory
:class:`~repro.mesh.progressive.ProgressiveMesh`, with no storage
layer.  They define the *ground truth* that both the Direct Mesh query
processor and the database-backed PM baseline must agree with; the
test suite compares all three.

Query semantics (paper Sections 2 and 5):

* A **viewpoint-independent** query ``Q(M, r, e)`` returns the nodes
  whose LOD interval contains ``e`` and whose point lies in ``r`` —
  the leaves of the paper's result sub-tree ``M'``.
* A **viewpoint-dependent** query is "a number of viewpoint-independent
  queries, each with a sub-region and a uniform LOD" (paper Section 2):
  we evaluate the required LOD of the query plane at each node's own
  position, so a node qualifies iff its interval contains
  ``required_lod(x, y)``.  This pointwise rule is what a per-sub-region
  decomposition converges to as sub-regions shrink, and it gives every
  retrieval method an identical, order-independent target.
"""

from __future__ import annotations

from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.mesh.progressive import ProgressiveMesh

__all__ = [
    "uniform_query_ref",
    "viewdep_query_ref",
]


def uniform_query_ref(
    pm: ProgressiveMesh, roi: Rect, lod: float
) -> set[int]:
    """Reference result of the viewpoint-independent query ``Q(M, r, e)``.

    Returns the ids of nodes forming the terrain approximation: LOD
    interval contains ``lod`` and the point lies inside ``roi``.
    Implemented as a footprint-pruned top-down traversal (the process
    paper Section 2 describes), which is equivalent to filtering the
    uniform cut but exercises the tree structure.
    """
    result: set[int] = set()
    stack = list(pm.roots)
    while stack:
        node = pm.node(stack.pop())
        footprint = node.footprint
        if footprint is not None and not footprint.intersects(roi):
            continue
        if node.e <= lod:
            # Leaf of the result sub-tree M'.
            if roi.contains_point(node.x, node.y) and node.interval_contains(lod):
                result.add(node.id)
            continue
        stack.extend(node.children())
    return result


def viewdep_query_ref(pm: ProgressiveMesh, plane: QueryPlane) -> set[int]:
    """Reference result of a viewpoint-dependent query.

    A node qualifies iff its LOD interval contains the plane's required
    LOD at the node's own ``(x, y)`` and the point lies in the ROI.
    Implemented as a plain filter over all nodes: deliberately the
    simplest possible statement of the semantics, so it can serve as
    ground truth for the optimised query processors.
    """
    roi = plane.roi
    result: set[int] = set()
    for node in pm.nodes:
        if not roi.contains_point(node.x, node.y):
            continue
        required = plane.required_lod(node.x, node.y)
        if node.interval_contains(required):
            result.add(node.id)
    return result
