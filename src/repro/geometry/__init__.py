"""Geometric primitives and algorithms (substrate).

Public surface:

* :class:`~repro.geometry.primitives.Point2`,
  :class:`~repro.geometry.primitives.Point3` — value types for terrain
  samples;
* :class:`~repro.geometry.primitives.Rect`,
  :class:`~repro.geometry.primitives.Box3` — 2D/3D axis-aligned bounds
  (query ROIs, index MBRs, query cubes);
* :func:`~repro.geometry.triangulation.delaunay` — Bowyer-Watson
  Delaunay triangulation for scattered samples;
* :class:`~repro.geometry.plane.QueryPlane` — tilted LOD plane for
  viewpoint-dependent queries;
* robust planar predicates in :mod:`repro.geometry.predicates`.
"""

from repro.geometry.plane import QueryPlane, RadialLodField, max_angle
from repro.geometry.predicates import (
    incircle,
    orient2d,
    point_in_triangle,
)
from repro.geometry.primitives import (
    EPSILON,
    Box3,
    Point2,
    Point3,
    Rect,
    union_all_boxes,
    union_all_rects,
)
from repro.geometry.triangulation import Triangulation, delaunay

__all__ = [
    "EPSILON",
    "Box3",
    "Point2",
    "Point3",
    "QueryPlane",
    "RadialLodField",
    "Rect",
    "Triangulation",
    "delaunay",
    "incircle",
    "max_angle",
    "orient2d",
    "point_in_triangle",
    "union_all_boxes",
    "union_all_rects",
]
