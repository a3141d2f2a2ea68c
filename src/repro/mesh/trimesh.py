"""Static indexed triangle meshes ("TINs") with adjacency queries.

A :class:`TriMesh` is the full-resolution terrain approximation from
which the progressive mesh is built (paper Section 2).  Vertices carry
3D coordinates ``(x, y, z)``; triangles are index triples wound
counter-clockwise when projected to the ``(x, y)`` plane.

The class is immutable-by-convention: simplification does not mutate a
``TriMesh`` but copies its connectivity into the dynamic structure of
:mod:`repro.mesh.simplify`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.errors import MeshError
from repro.geometry.predicates import orient2d
from repro.geometry.primitives import Rect
from repro.geometry.triangulation import delaunay

__all__ = ["TriMesh"]


class TriMesh:
    """An indexed triangle mesh over terrain samples.

    Attributes:
        vertices: list of ``(x, y, z)`` tuples.
        triangles: list of ``(a, b, c)`` vertex-index triples, CCW in
            the ``(x, y)`` projection.
    """

    def __init__(
        self,
        vertices: Sequence[tuple[float, float, float]],
        triangles: Sequence[tuple[int, int, int]],
        validate: bool = True,
    ) -> None:
        self.vertices: list[tuple[float, float, float]] = [
            (float(x), float(y), float(z)) for x, y, z in vertices
        ]
        self.triangles: list[tuple[int, int, int]] = [
            (int(a), int(b), int(c)) for a, b, c in triangles
        ]
        if validate:
            self._validate()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_points(
        cls, points: Sequence[tuple[float, float, float]]
    ) -> "TriMesh":
        """Triangulate scattered 3D terrain samples by 2D Delaunay.

        Duplicate ``(x, y)`` locations are merged; the first sample's
        elevation wins.
        """
        tri = delaunay([(p[0], p[1]) for p in points])
        verts: list[tuple[float, float, float]] = [
            (0.0, 0.0, 0.0)
        ] * len(tri.points)
        seen = [False] * len(tri.points)
        for orig_idx, new_idx in enumerate(tri.index_map):
            if not seen[new_idx]:
                x, y, z = points[orig_idx]
                verts[new_idx] = (float(x), float(y), float(z))
                seen[new_idx] = True
        return cls(verts, tri.triangles, validate=False)

    # -- basic properties --------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        """Number of triangles."""
        return len(self.triangles)

    def bounds(self) -> Rect:
        """The mesh footprint in the ``(x, y)`` plane."""
        if not self.vertices:
            raise MeshError("empty mesh has no bounds")
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def elevation_range(self) -> tuple[float, float]:
        """``(min z, max z)`` over all vertices."""
        zs = [v[2] for v in self.vertices]
        return (min(zs), max(zs))

    # -- adjacency ---------------------------------------------------------

    def edges(self) -> set[tuple[int, int]]:
        """Undirected edges as ``(lo, hi)`` pairs."""
        result: set[tuple[int, int]] = set()
        for a, b, c in self.triangles:
            result.add((a, b) if a < b else (b, a))
            result.add((b, c) if b < c else (c, b))
            result.add((a, c) if a < c else (c, a))
        return result

    def edge_triangles(self) -> dict[tuple[int, int], list[int]]:
        """Map each undirected edge to the triangle indices sharing it."""
        result: dict[tuple[int, int], list[int]] = defaultdict(list)
        for tidx, (a, b, c) in enumerate(self.triangles):
            result[(a, b) if a < b else (b, a)].append(tidx)
            result[(b, c) if b < c else (c, b)].append(tidx)
            result[(a, c) if a < c else (c, a)].append(tidx)
        return dict(result)

    # -- sampling ------------------------------------------------------------

    # -- validation ------------------------------------------------------------

    def _validate(self) -> None:
        n = len(self.vertices)
        for a, b, c in self.triangles:
            if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
                raise MeshError(f"triangle ({a}, {b}, {c}) out of range")
            if a == b or b == c or a == c:
                raise MeshError(f"degenerate triangle ({a}, {b}, {c})")

    def validate_topology(self) -> None:
        """Check manifold-ness: every edge borders at most two triangles
        and triangle winding is CCW in the (x, y) projection.

        Raises :class:`MeshError` on violation.
        """
        self._validate()
        for (a, b), tris in self.edge_triangles().items():
            if len(tris) > 2:
                raise MeshError(
                    f"edge ({a}, {b}) borders {len(tris)} triangles"
                )
        for a, b, c in self.triangles:
            ax, ay, _ = self.vertices[a]
            bx, by, _ = self.vertices[b]
            cx, cy, _ = self.vertices[c]
            if orient2d(ax, ay, bx, by, cx, cy) < 0:
                raise MeshError(
                    f"triangle ({a}, {b}, {c}) is clockwise in (x, y)"
                )
