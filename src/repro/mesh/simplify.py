"""Bottom-up PM construction by greedy edge collapse.

Implements paper Section 2's construction: repeatedly pick the edge
whose collapse causes minimum approximation error, replace its two
endpoints by a new parent point, and record the parent/child/wing
structure, until no further collapse is possible.  Collapses are
ordered by quadric error (the paper pre-processes its datasets with
Quadric Error Metrics [7]); the recorded per-node error can be either
the quadric cost or the vertical-distance measure the paper also
mentions.

The simplifier maintains a *valid planar triangulation at every step*:
a collapse is only applied when

* the link condition holds (the common neighbours of the edge's
  endpoints are exactly the wing vertices), which preserves
  manifoldness; and
* no surviving triangle flips its winding in the ``(x, y)``
  projection, which preserves the planar-triangulation property that
  the Direct Mesh connectivity encoding relies on.

Edges that fail validity are retried later with a small cost penalty.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.errors import SimplificationError
from repro.geometry.predicates import orient2d, point_in_triangle
from repro.mesh.progressive import NULL_ID, PMNode, ProgressiveMesh
from repro.mesh.quadric import Quadric, triangle_plane_quadric
from repro.mesh.trimesh import TriMesh

__all__ = ["simplify_to_pm", "SimplifyConfig"]

#: Cost multiplier applied when an invalid edge is re-queued.
_RETRY_PENALTY = 1.25

#: Maximum times a single edge is re-queued before being abandoned.
_MAX_RETRIES = 16


@dataclass(frozen=True)
class SimplifyConfig:
    """Tuning knobs for PM construction.

    Attributes:
        error_measure: ``"qem"`` records ``sqrt`` of the quadric cost
            as the node error; ``"vertical"`` records the maximum
            vertical distance from the removed points to the new
            surface (the measure paper Section 2 describes).

    Triangle quadrics are always area-weighted, and a collapse always
    places its parent at the quadric's optimum, falling back to the
    edge midpoint or an endpoint when that is cheaper or singular.
    """

    error_measure: str = "qem"

    def __post_init__(self) -> None:
        if self.error_measure not in ("qem", "vertical"):
            raise ValueError(f"unknown error measure {self.error_measure!r}")


def simplify_to_pm(
    mesh: TriMesh, config: SimplifyConfig | None = None
) -> ProgressiveMesh:
    """Build a progressive mesh by collapsing ``mesh`` to (near) a point.

    Args:
        mesh: the full-resolution TIN.
        config: optional :class:`SimplifyConfig`.

    Returns:
        A :class:`ProgressiveMesh` whose leaves are ``mesh``'s vertices
        in order.  ``normalize_lod()`` has *not* been called yet.
    """
    if mesh.n_triangles == 0:
        raise SimplificationError("cannot simplify a mesh with no triangles")
    builder = _PMBuilder(mesh, config or SimplifyConfig())
    return builder.run()


class _PMBuilder:
    """Mutable state for one simplification run."""

    def __init__(self, mesh: TriMesh, config: SimplifyConfig) -> None:
        self._config = config
        n = mesh.n_vertices
        self._pos: dict[int, tuple[float, float, float]] = {
            i: mesh.vertices[i] for i in range(n)
        }
        # Live triangles and per-vertex incidence.
        self._tris: dict[int, tuple[int, int, int]] = {
            t: tri for t, tri in enumerate(mesh.triangles)
        }
        self._next_tid = len(mesh.triangles)
        self._vert_tris: dict[int, set[int]] = {i: set() for i in range(n)}
        for tid, (a, b, c) in self._tris.items():
            self._vert_tris[a].add(tid)
            self._vert_tris[b].add(tid)
            self._vert_tris[c].add(tid)
        # Live adjacency, maintained independently of triangles so the
        # final triangle-free collapses can still proceed.
        self._neighbors: dict[int, set[int]] = {i: set() for i in range(n)}
        for a, b in mesh.edges():
            self._neighbors[a].add(b)
            self._neighbors[b].add(a)
        # Accumulated quadrics.
        self._quadrics: dict[int, Quadric] = {i: Quadric() for i in range(n)}
        for a, b, c in mesh.triangles:
            q = triangle_plane_quadric(
                mesh.vertices[a], mesh.vertices[b], mesh.vertices[c]
            )
            if q is None:
                continue
            self._quadrics[a] += q
            self._quadrics[b] += q
            self._quadrics[c] += q
        # PM bookkeeping.
        self._nodes: list[PMNode] = [
            PMNode(i, *mesh.vertices[i], error=0.0) for i in range(n)
        ]
        self._n_leaves = n
        self._base_edges = mesh.edges()
        # Priority queue of candidate collapses.
        self._heap: list[tuple[float, int, int, int]] = []
        self._push_counter = 0
        self._retries: dict[tuple[int, int], int] = {}
        for a, b in self._base_edges:
            self._push_edge(a, b)

    # -- queue ------------------------------------------------------------

    def _push_edge(self, u: int, v: int, cost: float | None = None) -> None:
        if cost is None:
            cost = self._collapse_cost(u, v)[0]
        self._push_counter += 1
        heapq.heappush(self._heap, (cost, self._push_counter, u, v))

    def _collapse_cost(
        self, u: int, v: int
    ) -> tuple[float, tuple[float, float, float]]:
        """Quadric cost and placement for collapsing edge ``(u, v)``."""
        q = self._quadrics[u] + self._quadrics[v]
        pu = self._pos[u]
        pv = self._pos[v]
        midpoint = (
            (pu[0] + pv[0]) / 2,
            (pu[1] + pv[1]) / 2,
            (pu[2] + pv[2]) / 2,
        )
        candidates: list[tuple[float, float, float]] = []
        opt = q.optimal_point()
        if opt is not None:
            candidates.append(opt)
        candidates.append(midpoint)
        candidates.append(pu)
        candidates.append(pv)
        best = min(candidates, key=lambda p: q.error(*p))
        return q.error(*best), best

    # -- main loop -----------------------------------------------------------

    def run(self) -> ProgressiveMesh:
        alive = len(self._pos)
        while self._heap and alive > 1:
            cost, _, u, v = heapq.heappop(self._heap)
            if u not in self._pos or v not in self._pos:
                continue
            if v not in self._neighbors[u]:
                continue
            wings = self._edge_wings(u, v)
            if wings is None or not self._placement_valid(u, v, wings):
                self._retry(u, v, cost)
                continue
            self._collapse(u, v, wings)
            alive -= 1
        return ProgressiveMesh(self._nodes, self._n_leaves, self._base_edges)

    def _retry(self, u: int, v: int, cost: float) -> None:
        key = (u, v) if u < v else (v, u)
        count = self._retries.get(key, 0)
        if count >= _MAX_RETRIES:
            return
        self._retries[key] = count + 1
        self._push_edge(u, v, cost * _RETRY_PENALTY + 1e-12)

    # -- validity -----------------------------------------------------------------

    def _edge_wings(self, u: int, v: int) -> tuple[int, ...] | None:
        """Wing vertices of edge ``(u, v)``, or ``None`` if the collapse
        would violate the link condition."""
        shared_tris = self._vert_tris[u] & self._vert_tris[v]
        wings = []
        for tid in shared_tris:
            a, b, c = self._tris[tid]
            wing = a + b + c - u - v
            wings.append(wing)
        if len(wings) > 2:
            return None  # Non-manifold edge.
        common_neighbors = self._neighbors[u] & self._neighbors[v]
        if common_neighbors != set(wings):
            return None  # Link condition fails.
        return tuple(wings)

    def _placement_valid(
        self, u: int, v: int, wings: tuple[int, ...]
    ) -> bool:
        """True if the cached placement keeps all surviving triangles CCW."""
        _, pos = self._collapse_cost(u, v)
        self._pending_pos = pos
        shared = self._vert_tris[u] & self._vert_tris[v]
        for vid in (u, v):
            for tid in self._vert_tris[vid]:
                if tid in shared:
                    continue
                a, b, c = self._tris[tid]
                pa = pos if a in (u, v) else self._pos[a]
                pb = pos if b in (u, v) else self._pos[b]
                pc = pos if c in (u, v) else self._pos[c]
                if orient2d(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1]) <= 0:
                    return False
        return True

    # -- collapse ----------------------------------------------------------------------

    def _collapse(self, u: int, v: int, wings: tuple[int, ...]) -> None:
        pos = self._pending_pos
        new_id = len(self._nodes)
        quadric = self._quadrics[u] + self._quadrics[v]

        # Rewire triangles.
        shared = self._vert_tris[u] & self._vert_tris[v]
        for tid in shared:
            a, b, c = self._tris.pop(tid)
            for vid in (a, b, c):
                self._vert_tris[vid].discard(tid)
        new_tris: list[int] = []
        for vid in (u, v):
            for tid in list(self._vert_tris[vid]):
                a, b, c = self._tris.pop(tid)
                self._vert_tris[a].discard(tid)
                self._vert_tris[b].discard(tid)
                self._vert_tris[c].discard(tid)
                na = new_id if a in (u, v) else a
                nb = new_id if b in (u, v) else b
                nc = new_id if c in (u, v) else c
                ntid = self._next_tid
                self._next_tid += 1
                self._tris[ntid] = (na, nb, nc)
                new_tris.append(ntid)
        self._vert_tris[new_id] = set()
        for ntid in new_tris:
            for vid in self._tris[ntid]:
                self._vert_tris.setdefault(vid, set()).add(ntid)

        # Rewire adjacency.
        new_neighbors = (self._neighbors[u] | self._neighbors[v]) - {u, v}
        for n in self._neighbors.pop(u):
            self._neighbors[n].discard(u)
        for n in self._neighbors.pop(v):
            self._neighbors[n].discard(v)
        self._neighbors[new_id] = new_neighbors
        for n in new_neighbors:
            self._neighbors[n].add(new_id)

        # Error measurement (before discarding the old positions).
        error = self._measure_error(u, v, new_id, pos)

        # PM node bookkeeping.
        node = PMNode(
            new_id,
            pos[0],
            pos[1],
            pos[2],
            error=error,
            child1=u,
            child2=v,
            wing1=wings[0] if len(wings) > 0 else NULL_ID,
            wing2=wings[1] if len(wings) > 1 else NULL_ID,
        )
        self._nodes.append(node)
        self._nodes[u].parent = new_id
        self._nodes[v].parent = new_id

        # State swap.
        del self._pos[u]
        del self._pos[v]
        self._pos[new_id] = pos
        del self._quadrics[u]
        del self._quadrics[v]
        self._quadrics[new_id] = quadric
        del self._vert_tris[u]
        del self._vert_tris[v]

        # Re-queue edges incident to the new vertex.
        for n in new_neighbors:
            self._push_edge(new_id, n)

    def _measure_error(
        self,
        u: int,
        v: int,
        new_id: int,
        pos: tuple[float, float, float],
    ) -> float:
        if self._config.error_measure == "qem":
            quadric = self._quadrics[u] + self._quadrics[v]
            return math.sqrt(max(0.0, quadric.error(*pos)))
        # Vertical distance: |z - surface(x, y)| for each removed point,
        # evaluated on the new fan around ``pos``.
        worst = 0.0
        for vid in (u, v):
            px, py, pz = self._pos[vid]
            worst = max(worst, self._vertical_distance(px, py, pz, new_id, pos))
        return worst

    def _vertical_distance(
        self,
        px: float,
        py: float,
        pz: float,
        new_id: int,
        pos: tuple[float, float, float],
    ) -> float:
        """Vertical distance from ``(px, py, pz)`` to the fan around
        the (not yet registered) new vertex ``new_id`` at ``pos``."""
        for tid in self._vert_tris.get(new_id, ()):
            a, b, c = self._tris[tid]
            pa = pos if a == new_id else self._pos[a]
            pb = pos if b == new_id else self._pos[b]
            pc = pos if c == new_id else self._pos[c]
            if not point_in_triangle(
                px, py, pa[0], pa[1], pb[0], pb[1], pc[0], pc[1]
            ):
                continue
            det = (pb[1] - pc[1]) * (pa[0] - pc[0]) + (pc[0] - pb[0]) * (
                pa[1] - pc[1]
            )
            if det == 0:
                continue
            l1 = (
                (pb[1] - pc[1]) * (px - pc[0]) + (pc[0] - pb[0]) * (py - pc[1])
            ) / det
            l2 = (
                (pc[1] - pa[1]) * (px - pc[0]) + (pa[0] - pc[0]) * (py - pc[1])
            ) / det
            l3 = 1.0 - l1 - l2
            surface_z = l1 * pa[2] + l2 * pb[2] + l3 * pc[2]
            return abs(pz - surface_z)
        return abs(pz - pos[2])
