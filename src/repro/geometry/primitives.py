"""Geometric primitives: points, rectangles, and axis-aligned boxes.

These are the value types used throughout the library.  Terrain points
live in three dimensions ``(x, y, z)`` where ``z`` is elevation; index
structures additionally work in the ``(x, y, e)`` space of the paper,
where ``e`` is the level-of-detail (approximation error) dimension.

The classes are deliberately small, immutable, and allocation-friendly:
the R*-tree and quadtree create millions of them during a benchmark run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import GeometryError

__all__ = [
    "Point2",
    "Point3",
    "Rect",
    "Box3",
    "EPSILON",
]

#: Tolerance used for approximate geometric comparisons.
EPSILON = 1e-9


@dataclass(frozen=True, slots=True)
class Point2:
    """A point in the ``(x, y)`` plane."""

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class Point3:
    """A terrain point ``(x, y, z)`` with ``z`` the elevation."""

    x: float
    y: float
    z: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    def as_tuple(self) -> tuple[float, float, float]:
        """Return ``(x, y, z)``."""
        return (self.x, self.y, self.z)


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle in the ``(x, y)`` plane.

    Used both as the region of interest (ROI) of terrain queries and as
    the 2D minimum bounding rectangle (MBR) of index entries.  The
    rectangle is closed on all sides: a point on the boundary is
    contained.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise GeometryError(
                f"inverted rectangle: ({self.min_x}, {self.min_y}) "
                f"to ({self.max_x}, {self.max_y})"
            )

    @classmethod
    def from_points(cls, points: Iterable[Point2 | Point3]) -> "Rect":
        """The smallest rectangle containing every point in ``points``."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise GeometryError("cannot bound an empty point set") from None
        min_x = max_x = first.x
        min_y = max_y = first.y
        for p in it:
            if p.x < min_x:
                min_x = p.x
            elif p.x > max_x:
                max_x = p.x
            if p.y < min_y:
                min_y = p.y
            elif p.y > max_y:
                max_y = p.y
        return cls(min_x, min_y, max_x, max_y)

    @property
    def width(self) -> float:
        """Extent along x."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        """Rectangle area (zero for degenerate rectangles)."""
        return self.width * self.height

    @property
    def center(self) -> Point2:
        """The rectangle's centroid."""
        return Point2((self.min_x + self.max_x) / 2, (self.min_y + self.max_y) / 2)

    def contains_point(self, x: float, y: float) -> bool:
        """True if ``(x, y)`` lies inside or on the boundary."""
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely within this rectangle."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the two rectangles share at least a boundary point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    def union(self, other: "Rect") -> "Rect":
        """The smallest rectangle containing both rectangles."""
        return Rect(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlap of the two rectangles, or ``None`` if disjoint."""
        min_x = max(self.min_x, other.min_x)
        min_y = max(self.min_y, other.min_y)
        max_x = min(self.max_x, other.max_x)
        max_y = min(self.max_y, other.max_y)
        if min_x > max_x or min_y > max_y:
            return None
        return Rect(min_x, min_y, max_x, max_y)

    def scaled(self, factor: float) -> "Rect":
        """A copy scaled about its centre by ``factor``."""
        c = self.center
        half_w = self.width * factor / 2
        half_h = self.height * factor / 2
        return Rect(c.x - half_w, c.y - half_h, c.x + half_w, c.y + half_h)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)``."""
        return (self.min_x, self.min_y, self.max_x, self.max_y)


@dataclass(frozen=True, slots=True)
class Box3:
    """An axis-aligned box in ``(x, y, e)`` space.

    This is the 3D MBR used by the 3D R*-tree that indexes Direct Mesh
    vertical segments, and also the *query cube* of the single-base and
    multi-base algorithms (paper Section 5).  The third axis is named
    ``e`` (the LOD axis) rather than ``z`` to avoid confusion with
    elevation.
    """

    min_x: float
    min_y: float
    min_e: float
    max_x: float
    max_y: float
    max_e: float

    def __post_init__(self) -> None:
        if (
            self.min_x > self.max_x
            or self.min_y > self.max_y
            or self.min_e > self.max_e
        ):
            raise GeometryError(
                f"inverted box: ({self.min_x}, {self.min_y}, {self.min_e}) "
                f"to ({self.max_x}, {self.max_y}, {self.max_e})"
            )

    @classmethod
    def from_rect(cls, rect: Rect, min_e: float, max_e: float) -> "Box3":
        """Extrude a 2D rectangle along the LOD axis."""
        return cls(rect.min_x, rect.min_y, min_e, rect.max_x, rect.max_y, max_e)

    @classmethod
    def vertical_segment(
        cls, x: float, y: float, e_low: float, e_high: float
    ) -> "Box3":
        """The degenerate box for a DM node's vertical segment.

        A Direct Mesh node with LOD interval ``[e_low, e_high)`` is
        represented in the index as the segment
        ``<(x, y, e_low), (x, y, e_high)>`` (paper Section 4).
        """
        return cls(x, y, e_low, x, y, e_high)

    @property
    def rect(self) -> Rect:
        """The box's footprint in the ``(x, y)`` plane."""
        return Rect(self.min_x, self.min_y, self.max_x, self.max_y)

    @property
    def width(self) -> float:
        """Extent along x (``q_x`` in the paper's cost model)."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along y (``q_y`` in the paper's cost model)."""
        return self.max_y - self.min_y

    @property
    def depth(self) -> float:
        """Extent along the LOD axis (``q_z`` in the paper's cost model)."""
        return self.max_e - self.min_e

    @property
    def center(self) -> tuple[float, float, float]:
        """The box centroid ``(x, y, e)``."""
        return (
            (self.min_x + self.max_x) / 2,
            (self.min_y + self.max_y) / 2,
            (self.min_e + self.max_e) / 2,
        )

    def contains_point(self, x: float, y: float, e: float) -> bool:
        """True if ``(x, y, e)`` lies inside or on the boundary."""
        return (
            self.min_x <= x <= self.max_x
            and self.min_y <= y <= self.max_y
            and self.min_e <= e <= self.max_e
        )

    def contains_box(self, other: "Box3") -> bool:
        """True if ``other`` lies entirely within this box."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.min_e <= other.min_e
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
            and self.max_e >= other.max_e
        )

    def intersects(self, other: "Box3") -> bool:
        """True if the boxes share at least a boundary point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
            and self.min_e <= other.max_e
            and other.min_e <= self.max_e
        )

    def union(self, other: "Box3") -> "Box3":
        """The smallest box containing both boxes."""
        return Box3(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            min(self.min_e, other.min_e),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
            max(self.max_e, other.max_e),
        )

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        """Return ``(min_x, min_y, min_e, max_x, max_y, max_e)``."""
        return (
            self.min_x,
            self.min_y,
            self.min_e,
            self.max_x,
            self.max_y,
            self.max_e,
        )


def union_all_boxes(boxes: Sequence[Box3]) -> Box3:
    """The smallest box containing every box in ``boxes``.

    Raises :class:`GeometryError` on an empty sequence.
    """
    if not boxes:
        raise GeometryError("cannot union an empty box sequence")
    min_x = min(b.min_x for b in boxes)
    min_y = min(b.min_y for b in boxes)
    min_e = min(b.min_e for b in boxes)
    max_x = max(b.max_x for b in boxes)
    max_y = max(b.max_y for b in boxes)
    max_e = max(b.max_e for b in boxes)
    return Box3(min_x, min_y, min_e, max_x, max_y, max_e)


def union_all_rects(rects: Sequence[Rect]) -> Rect:
    """The smallest rectangle containing every rectangle in ``rects``."""
    if not rects:
        raise GeometryError("cannot union an empty rectangle sequence")
    return Rect(
        min(r.min_x for r in rects),
        min(r.min_y for r in rects),
        max(r.max_x for r in rects),
        max(r.max_y for r in rects),
    )
