"""Tilted LOD query planes for viewpoint-dependent terrain queries.

A viewpoint-dependent query (paper Section 2) does not have a fixed
LOD: the required approximation error grows with distance from the
viewer.  In the paper's ``(x, y, e)`` space the query is a *plane*
over the ROI, anchored at ``e_min`` on the edge nearest the viewer and
rising linearly to ``e_max`` on the far edge (paper Figures 4, 5, 7).

The *angle* between the query plane and the bottom plane controls the
LOD changing rate; its maximum sensible value is
``theta_max = arctan(LOD_max / ROI)`` (paper Section 6.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import QueryError
from repro.geometry.primitives import Rect

__all__ = ["QueryPlane", "RadialLodField", "max_angle"]


def max_angle(max_lod: float, roi_extent: float) -> float:
    """The paper's ``theta_max = arctan(LOD_max / ROI)`` in radians.

    Args:
        max_lod: the maximum LOD (approximation error) in the dataset.
        roi_extent: the ROI's extent along the viewing direction.
    """
    if roi_extent <= 0:
        raise QueryError("ROI extent must be positive")
    return math.atan2(max_lod, roi_extent)


@dataclass(frozen=True)
class QueryPlane:
    """A linear LOD field over a rectangular ROI.

    The required LOD at ``(x, y)`` rises linearly along ``direction``
    (a unit vector in the (x, y) plane pointing *away* from the viewer)
    from ``e_min`` at the near edge of the ROI to ``e_max`` at the far
    edge.  Outside the ROI the field is clamped, which only matters for
    boundary points retrieved by a slightly-larger range query.

    Attributes:
        roi: the region of interest.
        e_min: required LOD at the near edge (finest detail).
        e_max: required LOD at the far edge (coarsest detail).
        direction: unit ``(dx, dy)`` away from the viewer.
    """

    roi: Rect
    e_min: float
    e_max: float
    direction: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if self.e_min < 0:
            raise QueryError(f"e_min must be non-negative, got {self.e_min}")
        if self.e_max < self.e_min:
            raise QueryError(
                f"e_max ({self.e_max}) must be >= e_min ({self.e_min})"
            )
        dx, dy = self.direction
        norm = math.hypot(dx, dy)
        if norm < 1e-12:
            raise QueryError("direction must be a non-zero vector")
        object.__setattr__(self, "direction", (dx / norm, dy / norm))

    @classmethod
    def from_angle(
        cls,
        roi: Rect,
        e_min: float,
        angle: float,
        direction: tuple[float, float] = (0.0, 1.0),
    ) -> "QueryPlane":
        """Build a plane from the paper's *angle* parameterisation.

        ``e_max`` is derived from the angle between the query plane and
        the bottom plane: ``e_max = e_min + tan(angle) * extent`` where
        ``extent`` is the ROI's span along ``direction``.
        """
        if not 0 <= angle < math.pi / 2:
            raise QueryError(f"angle must be in [0, pi/2), got {angle}")
        tmp = cls(roi, e_min, e_min, direction)
        extent = tmp.extent_along_direction()
        e_max = e_min + math.tan(angle) * extent
        return cls(roi, e_min, e_max, direction)

    @property
    def angle(self) -> float:
        """The plane's tilt angle above the bottom plane, in radians."""
        extent = self.extent_along_direction()
        if extent == 0:
            return 0.0
        return math.atan2(self.e_max - self.e_min, extent)

    def extent_along_direction(self) -> float:
        """The ROI's span projected onto the viewing direction."""
        dx, dy = self.direction
        return abs(dx) * self.roi.width + abs(dy) * self.roi.height

    def _near_offset(self) -> float:
        """Minimum of ``direction . (x, y)`` over the ROI corners."""
        dx, dy = self.direction
        corners = (
            dx * self.roi.min_x + dy * self.roi.min_y,
            dx * self.roi.min_x + dy * self.roi.max_y,
            dx * self.roi.max_x + dy * self.roi.min_y,
            dx * self.roi.max_x + dy * self.roi.max_y,
        )
        return min(corners)

    def required_lod(self, x: float, y: float) -> float:
        """The LOD the query demands at ``(x, y)``.

        Smaller values mean finer detail.  The value is clamped to
        ``[e_min, e_max]`` outside the ROI.
        """
        extent = self.extent_along_direction()
        if extent == 0 or self.e_max == self.e_min:
            return self.e_min
        dx, dy = self.direction
        t = (dx * x + dy * y - self._near_offset()) / extent
        t = min(1.0, max(0.0, t))
        return self.e_min + t * (self.e_max - self.e_min)

    def required_lod_batch(self, xs, ys):
        """Vectorized :meth:`required_lod` over coordinate arrays.

        Takes two equal-length numpy arrays and returns the required
        LOD per position — the kernel behind
        ``filter_to_plane_columnar``.
        """
        import numpy as np

        xs = np.asarray(xs, np.float64)
        extent = self.extent_along_direction()
        if extent == 0 or self.e_max == self.e_min:
            return np.full(xs.shape, self.e_min)
        dx, dy = self.direction
        t = (dx * xs + dy * np.asarray(ys, np.float64) - self._near_offset())
        t /= extent
        np.clip(t, 0.0, 1.0, out=t)
        return self.e_min + t * (self.e_max - self.e_min)

    def lod_range_over(self, region: Rect) -> tuple[float, float]:
        """The ``(min, max)`` required LOD over ``region``.

        Because the field is linear, the extrema occur at corners.
        """
        values = [
            self.required_lod(region.min_x, region.min_y),
            self.required_lod(region.min_x, region.max_y),
            self.required_lod(region.max_x, region.min_y),
            self.required_lod(region.max_x, region.max_y),
        ]
        return (min(values), max(values))

    def split_across_direction(self, parts: int) -> list["QueryPlane"]:
        """Split the ROI into ``parts`` equal strips along the direction.

        Each strip keeps the same global LOD field, restricted to its
        sub-ROI.  This is the geometric operation behind the multi-base
        algorithm (paper Section 5.3): the optimal split divides the
        top plane "in the middle", i.e. into equal strips.
        """
        if parts < 1:
            raise QueryError(f"parts must be >= 1, got {parts}")
        if parts == 1:
            return [self]
        dx, dy = self.direction
        strips: list[QueryPlane] = []
        for sub in _strip_rects(self.roi, parts, along_y=abs(dy) >= abs(dx)):
            lo, hi = self.lod_range_over(sub)
            strips.append(QueryPlane(sub, lo, hi, self.direction))
        return strips


def _strip_rects(roi: Rect, parts: int, along_y: bool) -> list[Rect]:
    """Cut ``roi`` into ``parts`` equal strips along one axis."""
    rects = []
    if along_y:
        step = roi.height / parts
        for i in range(parts):
            rects.append(
                Rect(
                    roi.min_x,
                    roi.min_y + i * step,
                    roi.max_x,
                    roi.min_y + (i + 1) * step,
                )
            )
    else:
        step = roi.width / parts
        for i in range(parts):
            rects.append(
                Rect(
                    roi.min_x + i * step,
                    roi.min_y,
                    roi.min_x + (i + 1) * step,
                    roi.max_y,
                )
            )
    return rects


@dataclass(frozen=True)
class RadialLodField:
    """The paper's viewer model ``f(m.e, d) <= E`` as a query field.

    Paper Section 2 estimates the required LOD of a point from its
    distance ``d`` to the viewer; the simplest rule-of-thumb ``f`` is
    proportionality, i.e. a point may carry error up to
    ``rate * distance`` (clamped to ``[e_min, e_max]``).  Unlike
    :class:`QueryPlane`'s linear ramp, the field is radial around the
    viewer — the realistic shape for a camera standing on or near the
    terrain.

    The class implements the same protocol the query processors
    consume (``roi``, ``e_min``, ``e_max``, ``required_lod``,
    ``lod_range_over``, ``split_across_direction``), so single-base
    and multi-base work unchanged; multi-base strips are cut
    perpendicular to the viewer direction.

    Attributes:
        roi: the region of interest.
        viewer: the viewer position in the (x, y) plane.
        rate: tolerated error per unit of distance.
        e_min: LOD floor (finest detail ever requested).
        e_max: LOD ceiling (cap the far field, e.g. the dataset max).
    """

    roi: Rect
    viewer: tuple[float, float]
    rate: float
    e_min: float = 0.0
    e_max: float = float("inf")

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise QueryError(f"rate must be positive, got {self.rate}")
        if self.e_min < 0 or self.e_max < self.e_min:
            raise QueryError(
                f"need 0 <= e_min <= e_max, got [{self.e_min}, {self.e_max}]"
            )

    def required_lod(self, x: float, y: float) -> float:
        """Tolerated error at ``(x, y)``: ``rate * distance``, clamped."""
        vx, vy = self.viewer
        distance = math.hypot(x - vx, y - vy)
        return min(self.e_max, max(self.e_min, self.rate * distance))

    def required_lod_batch(self, xs, ys):
        """Vectorized :meth:`required_lod` over coordinate arrays."""
        import numpy as np

        vx, vy = self.viewer
        distance = np.hypot(
            np.asarray(xs, np.float64) - vx, np.asarray(ys, np.float64) - vy
        )
        return np.clip(self.rate * distance, self.e_min, self.e_max)

    def lod_range_over(self, region: Rect) -> tuple[float, float]:
        """``(min, max)`` required LOD over ``region``.

        The minimum sits at the point of ``region`` closest to the
        viewer, the maximum at the farthest corner.
        """
        vx, vy = self.viewer
        nearest_x = min(max(vx, region.min_x), region.max_x)
        nearest_y = min(max(vy, region.min_y), region.max_y)
        d_min = math.hypot(nearest_x - vx, nearest_y - vy)
        d_max = max(
            math.hypot(cx - vx, cy - vy)
            for cx in (region.min_x, region.max_x)
            for cy in (region.min_y, region.max_y)
        )
        clamp = lambda e: min(self.e_max, max(self.e_min, e))  # noqa: E731
        return (clamp(self.rate * d_min), clamp(self.rate * d_max))

    def split_across_direction(self, parts: int) -> list["RadialLodField"]:
        """Equal strips perpendicular to the viewer-to-ROI direction,
        each carrying its own LOD bounds (for its query cube)."""
        if parts < 1:
            raise QueryError(f"parts must be >= 1, got {parts}")
        if parts == 1:
            return [self]
        center = self.roi.center
        dx = center.x - self.viewer[0]
        dy = center.y - self.viewer[1]
        along_y = abs(dy) >= abs(dx)
        strips = []
        for sub in _strip_rects(self.roi, parts, along_y):
            lo, hi = self.lod_range_over(sub)
            strips.append(
                RadialLodField(sub, self.viewer, self.rate, lo, hi)
            )
        return strips
