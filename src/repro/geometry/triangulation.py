"""Delaunay triangulation of planar point sets (Bowyer-Watson).

The triangulator builds the initial full-resolution triangular mesh
("TIN") from scattered terrain samples.  It is an incremental
Bowyer-Watson implementation with:

* a *walk* point-location strategy that starts from the most recently
  created triangle, which is fast when insertions have spatial locality;
* a spatially-sorted (serpentine grid order) insertion sequence to give
  the walk that locality;
* filtered-exact :mod:`repro.geometry.predicates`, so grid-aligned and
  cocircular inputs do not corrupt the topology.

Regular DEM grids are triangulated directly by
:mod:`repro.terrain.dem` without going through this module; the
Delaunay path is used for scattered samples and in tests as an oracle.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import TriangulationError
from repro.geometry.predicates import incircle, orient2d

__all__ = ["delaunay", "Triangulation"]

#: The super-triangle's size as a multiple of the input's span.
_SUPER_SCALE = 16.0


class Triangulation:
    """Result of a Delaunay triangulation.

    Attributes:
        points: the input points as ``(x, y)`` tuples (duplicates removed).
        triangles: list of ``(a, b, c)`` index triples into ``points``,
            wound counter-clockwise.
        index_map: for each *original* input index, the index into
            ``points`` it was mapped to (duplicates collapse).
    """

    def __init__(
        self,
        points: list[tuple[float, float]],
        triangles: list[tuple[int, int, int]],
        index_map: list[int],
    ) -> None:
        self.points = points
        self.triangles = triangles
        self.index_map = index_map

    def edges(self) -> set[tuple[int, int]]:
        """The undirected edge set as ``(lo, hi)`` index pairs."""
        result: set[tuple[int, int]] = set()
        for a, b, c in self.triangles:
            result.add((a, b) if a < b else (b, a))
            result.add((b, c) if b < c else (c, b))
            result.add((a, c) if a < c else (c, a))
        return result


def delaunay(points: Sequence[tuple[float, float]]) -> Triangulation:
    """Compute the Delaunay triangulation of ``points``.

    Args:
        points: at least three non-collinear ``(x, y)`` pairs.  Exact
            duplicates are merged (the first occurrence wins).

    Returns:
        A :class:`Triangulation` whose triangles are counter-clockwise.

    Raises:
        TriangulationError: fewer than three distinct points, or all
            points collinear.
    """
    unique: list[tuple[float, float]] = []
    seen: dict[tuple[float, float], int] = {}
    index_map: list[int] = []
    for p in points:
        key = (float(p[0]), float(p[1]))
        if key in seen:
            index_map.append(seen[key])
        else:
            seen[key] = len(unique)
            index_map.append(len(unique))
            unique.append(key)

    if len(unique) < 3:
        raise TriangulationError(
            f"need at least 3 distinct points, got {len(unique)}"
        )

    builder = _Builder(unique)
    builder.run()
    triangles = builder.finished_triangles()
    if not triangles:
        triangles = _sliver_triangles(unique)
    return Triangulation(unique, triangles, index_map)


def _sliver_triangles(
    points: list[tuple[float, float]],
) -> list[tuple[int, int, int]]:
    """Triangulate an input whose first attempt kept no triangle.

    Either the points are collinear — decided exactly, so a thin
    sliver is never mistaken for a line — or a ghost vertex lay inside
    a real triangle's circumcircle and the triangle was discarded with
    it.  A sliver's circumradius is unbounded in the span (``abc / 4K``
    with area ``K`` near zero), so no fixed multiple is enough: grow
    the super-triangle until the triangles kept fill the convex hull,
    which — their circumcircles being empty of input points — makes
    them the Delaunay triangulation.
    """
    (ax, ay), (bx, by) = points[0], points[1]
    if all(orient2d(ax, ay, bx, by, px, py) == 0 for px, py in points[2:]):
        raise TriangulationError("all input points are collinear")
    scale = _SUPER_SCALE
    # 2**240 spans is beyond any sliver whose area a double can hold.
    for _ in range(24):
        scale *= 1024.0
        builder = _Builder(points, scale)
        builder.run()
        triangles = builder.finished_triangles()
        if _fills_hull(points, triangles):
            return triangles
    raise TriangulationError("sliver too thin for a finite super-triangle")


def _fills_hull(
    points: list[tuple[float, float]],
    triangles: list[tuple[int, int, int]],
) -> bool:
    """True when the counter-clockwise ``triangles`` cover the convex
    hull of ``points``: every boundary edge has all points on its left
    or on it."""
    directed = {
        edge
        for a, b, c in triangles
        for edge in ((a, b), (b, c), (c, a))
    }
    return bool(directed) and all(
        orient2d(*points[a], *points[b], px, py) >= 0
        for a, b in directed
        if (b, a) not in directed
        for px, py in points
    )


class _Builder:
    """Incremental Bowyer-Watson state machine.

    Triangles are stored in parallel dicts keyed by triangle id:
    ``_verts[t] = (a, b, c)`` and ``_neigh[t] = (n0, n1, n2)`` where
    neighbour ``i`` lies across the edge ``(v[i], v[(i+1) % 3])`` and is
    ``-1`` on the convex hull.
    """

    def __init__(
        self, points: list[tuple[float, float]], scale: float = _SUPER_SCALE
    ) -> None:
        self._pts = points
        self._scale = scale
        self._verts: dict[int, tuple[int, int, int]] = {}
        self._neigh: dict[int, tuple[int, int, int]] = {}
        self._next_tid = 0
        self._last_tid = -1
        # Ghost vertices forming the super-triangle use negative ids.
        self._super = (-1, -2, -3)

    # -- public driver -------------------------------------------------

    def run(self) -> None:
        self._make_super_triangle()
        for idx in self._insertion_order():
            self._insert(idx)

    def finished_triangles(self) -> list[tuple[int, int, int]]:
        """All triangles not touching the super-triangle, CCW order."""
        result = []
        for a, b, c in self._verts.values():
            if a < 0 or b < 0 or c < 0:
                continue
            result.append((a, b, c))
        return result

    # -- setup ---------------------------------------------------------

    def _make_super_triangle(self) -> None:
        xs = [p[0] for p in self._pts]
        ys = [p[1] for p in self._pts]
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
        span = max(max_x - min_x, max_y - min_y, 1.0)
        cx = (min_x + max_x) / 2
        cy = (min_y + max_y) / 2
        big = self._scale * span
        # Coordinates for the three ghost vertices.
        self._ghost_coords = {
            -1: (cx - 2 * big, cy - big),
            -2: (cx + 2 * big, cy - big),
            -3: (cx, cy + 2 * big),
        }
        tid = self._new_triangle((-1, -2, -3), (-1, -1, -1))
        self._last_tid = tid

    def _coords(self, idx: int) -> tuple[float, float]:
        if idx < 0:
            return self._ghost_coords[idx]
        return self._pts[idx]

    def _insertion_order(self) -> list[int]:
        """Serpentine grid order for walk locality."""
        n = len(self._pts)
        if n <= 3:
            return list(range(n))
        xs = [p[0] for p in self._pts]
        ys = [p[1] for p in self._pts]
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
        cells = max(1, int(math.sqrt(n / 4)))
        dx = (max_x - min_x) or 1.0
        dy = (max_y - min_y) or 1.0

        def key(i: int) -> tuple[int, float]:
            row = int((self._pts[i][1] - min_y) / dy * cells)
            row = min(row, cells - 1)
            x = self._pts[i][0]
            # Serpentine: odd rows scan right-to-left.
            return (row, x if row % 2 == 0 else -x)

        return sorted(range(n), key=key)

    # -- triangle bookkeeping -------------------------------------------

    def _new_triangle(
        self, verts: tuple[int, int, int], neigh: tuple[int, int, int]
    ) -> int:
        tid = self._next_tid
        self._next_tid += 1
        self._verts[tid] = verts
        self._neigh[tid] = neigh
        return tid

    # -- point location --------------------------------------------------

    def _locate(self, px: float, py: float) -> int:
        """Walk from the last triangle to one containing ``(px, py)``."""
        tid = self._last_tid
        if tid not in self._verts:
            tid = next(iter(self._verts))
        max_steps = 4 * len(self._verts) + 64
        for _ in range(max_steps):
            a, b, c = self._verts[tid]
            ax, ay = self._coords(a)
            bx, by = self._coords(b)
            cx, cy = self._coords(c)
            if orient2d(ax, ay, bx, by, px, py) < 0:
                tid = self._step(tid, 0)
            elif orient2d(bx, by, cx, cy, px, py) < 0:
                tid = self._step(tid, 1)
            elif orient2d(cx, cy, ax, ay, px, py) < 0:
                tid = self._step(tid, 2)
            else:
                return tid
        raise TriangulationError("point location walk did not terminate")

    def _step(self, tid: int, edge: int) -> int:
        nxt = self._neigh[tid][edge]
        if nxt < 0:
            raise TriangulationError(
                "walked off the super-triangle; input outside bounds"
            )
        return nxt

    # -- insertion --------------------------------------------------------

    def _insert(self, idx: int) -> None:
        px, py = self._pts[idx]
        start = self._locate(px, py)

        # Grow the cavity: all triangles whose circumcircle strictly
        # contains p, seeded with the containing triangle.
        cavity: set[int] = {start}
        stack = [start]
        while stack:
            tid = stack.pop()
            for ntid in self._neigh[tid]:
                if ntid < 0 or ntid in cavity:
                    continue
                if self._in_circumcircle(ntid, px, py):
                    cavity.add(ntid)
                    stack.append(ntid)

        boundary = self._cavity_boundary(cavity, px, py)

        # Remove the cavity triangles.
        for tid in cavity:
            del self._verts[tid]
            del self._neigh[tid]

        # Fan new triangles from p to each boundary edge.  Boundary is
        # ordered CCW, so triangle (p, a, b) is CCW.
        new_tids: list[int] = []
        for (a, b, outer) in boundary:
            tid = self._new_triangle((idx, a, b), (-1, outer, -1))
            if outer >= 0:
                self._replace_neighbor_edge(outer, a, b, tid)
            new_tids.append(tid)

        # Link consecutive fan triangles: edge 2 of tri i (b_i -> p)
        # matches edge 0 of tri i+1 (p -> a_{i+1}), since b_i == a_{i+1}.
        k = len(new_tids)
        for i in range(k):
            cur = new_tids[i]
            nxt = new_tids[(i + 1) % k]
            n_cur = self._neigh[cur]
            self._neigh[cur] = (self._neigh[cur][0], n_cur[1], nxt)
            n_nxt = self._neigh[nxt]
            self._neigh[nxt] = (cur, n_nxt[1], n_nxt[2])

        self._last_tid = new_tids[-1]

    def _in_circumcircle(self, tid: int, px: float, py: float) -> bool:
        a, b, c = self._verts[tid]
        ax, ay = self._coords(a)
        bx, by = self._coords(b)
        cx, cy = self._coords(c)
        return incircle(ax, ay, bx, by, cx, cy, px, py) > 0

    def _cavity_boundary(
        self, cavity: set[int], px: float, py: float
    ) -> list[tuple[int, int, int]]:
        """The cavity's boundary edges in CCW order around the cavity.

        Returns triples ``(a, b, outer_tid)`` where the directed edge
        ``a -> b`` is CCW as seen from inside the cavity and
        ``outer_tid`` is the surviving triangle across it (-1 on hull).
        Degenerate fans (p exactly collinear with a boundary edge) are
        fixed by absorbing the offending outer triangle into the cavity
        and recomputing.
        """
        for _ in range(len(self._verts) + 8):
            edges: dict[int, tuple[int, int]] = {}
            grow: int | None = None
            for tid in cavity:
                verts = self._verts[tid]
                neigh = self._neigh[tid]
                for i in range(3):
                    ntid = neigh[i]
                    if ntid >= 0 and ntid in cavity:
                        continue
                    a = verts[i]
                    b = verts[(i + 1) % 3]
                    ax, ay = self._coords(a)
                    bx, by = self._coords(b)
                    if orient2d(px, py, ax, ay, bx, by) <= 0:
                        # New triangle (p, a, b) would be degenerate or
                        # inverted: the cavity must grow across this edge.
                        if ntid < 0:
                            raise TriangulationError(
                                "degenerate cavity against the hull"
                            )
                        grow = ntid
                        break
                    edges[a] = (b, ntid)
                if grow is not None:
                    break
            if grow is not None:
                cavity.add(grow)
                continue
            return self._order_boundary(edges)
        raise TriangulationError("cavity repair did not converge")

    @staticmethod
    def _order_boundary(
        edges: dict[int, tuple[int, int]]
    ) -> list[tuple[int, int, int]]:
        if not edges:
            raise TriangulationError("empty cavity boundary")
        start = next(iter(edges))
        ordered: list[tuple[int, int, int]] = []
        a = start
        for _ in range(len(edges)):
            b, outer = edges[a]
            ordered.append((a, b, outer))
            a = b
        if a != start or len(ordered) != len(edges):
            raise TriangulationError("cavity boundary is not a single cycle")
        return ordered

    def _replace_neighbor_edge(self, tid: int, a: int, b: int, new: int) -> None:
        """Point ``tid``'s neighbour across edge ``{a, b}`` at ``new``."""
        verts = self._verts[tid]
        neigh = self._neigh[tid]
        for i in range(3):
            va = verts[i]
            vb = verts[(i + 1) % 3]
            if (va == a and vb == b) or (va == b and vb == a):
                self._neigh[tid] = tuple(
                    new if j == i else neigh[j] for j in range(3)
                )  # type: ignore[assignment]
                return
        raise TriangulationError(
            f"triangle {tid} has no edge ({a}, {b}); topology corrupt"
        )
