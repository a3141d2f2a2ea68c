"""Digital elevation models and grid-to-TIN conversion.

A :class:`DEM` wraps a :class:`~repro.terrain.gridfield.GridField` and
produces the full-resolution triangular mesh the MTM pipeline starts
from by scattering a target number of sample points (the shape the
paper's datasets have: irregular 3D point sets).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError, PatchError
from repro.geometry.primitives import Rect
from repro.mesh.trimesh import TriMesh
from repro.terrain.gridfield import GridField

__all__ = ["DEM"]


class DEM:
    """A terrain model backed by a raster elevation grid."""

    def __init__(self, field: GridField, name: str = "dem") -> None:
        self.field = field
        self.name = name

    # -- TIN extraction -----------------------------------------------------

    def to_scattered_trimesh(self, n_points: int, seed: int = 0) -> TriMesh:
        """A TIN over ``n_points`` scattered samples of the surface.

        Points are drawn from a jittered grid (quasi-uniform in
        ``(x, y)``, like surveyed terrain data), elevations are
        bilinear samples; the four corners are always included so the TIN
        covers the full extent.
        """
        if n_points < 4:
            raise DatasetError(f"need at least 4 points, got {n_points}")
        rng = np.random.default_rng(seed)
        bounds = self.field.bounds()
        side = int(np.ceil(np.sqrt(n_points)))
        gx = np.linspace(bounds.min_x, bounds.max_x, side + 1)[:-1]
        gy = np.linspace(bounds.min_y, bounds.max_y, side + 1)[:-1]
        cell_w = (bounds.max_x - bounds.min_x) / side
        cell_h = (bounds.max_y - bounds.min_y) / side
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        xs = (xx + rng.uniform(0, cell_w, xx.shape)).ravel()
        ys = (yy + rng.uniform(0, cell_h, yy.shape)).ravel()
        keep = rng.permutation(len(xs))[: n_points - 4]
        xs = xs[keep]
        ys = ys[keep]
        corner_x = np.array(
            [bounds.min_x, bounds.min_x, bounds.max_x, bounds.max_x]
        )
        corner_y = np.array(
            [bounds.min_y, bounds.max_y, bounds.min_y, bounds.max_y]
        )
        xs = np.concatenate([xs, corner_x])
        ys = np.concatenate([ys, corner_y])
        zs = self.field.sample_many(xs, ys)
        points = list(zip(xs.tolist(), ys.tolist(), zs.tolist()))
        return TriMesh.from_points(points)

    # -- mutation -----------------------------------------------------------

    def apply_patch(self, region: Rect, heights: np.ndarray) -> Rect:
        """Overwrite the grid samples inside ``region`` with ``heights``.

        ``region`` must be grid-aligned — its corners must land exactly
        on grid sample positions — and ``heights`` must have exactly
        the shape of the covered sample window (``rows x cols``, row 0
        at ``region.min_y``).  Every violation raises
        :class:`~repro.errors.PatchError` *before* any sample is
        touched, so a rejected patch never leaves the grid
        half-updated.

        Returns the patched region (echoed back) so callers can feed
        it straight into the store-mutation layer.
        """
        field = self.field
        bounds = field.bounds()
        if not (
            region.min_x < region.max_x and region.min_y < region.max_y
        ):
            raise PatchError(
                "patch region has zero or negative area",
                region=region.as_tuple(),
            )
        if not bounds.contains_rect(region):
            raise PatchError(
                "patch region lies outside the grid extent",
                region=region.as_tuple(),
                bounds=bounds.as_tuple(),
            )
        ox, oy = field.origin
        cell = field.cell_size
        edges = []
        for value, org in (
            (region.min_x, ox), (region.min_y, oy),
            (region.max_x, ox), (region.max_y, oy),
        ):
            frac = (value - org) / cell
            snapped = round(frac)
            if abs(frac - snapped) > 1e-9:
                raise PatchError(
                    "patch region is not grid-aligned",
                    region=region.as_tuple(),
                    origin=field.origin,
                    cell_size=cell,
                )
            edges.append(int(snapped))
        c0, r0, c1, r1 = edges
        heights = np.asarray(heights)
        if not np.issubdtype(heights.dtype, np.number):
            raise PatchError(
                f"patch heights must be numeric, got dtype {heights.dtype}",
                region=region.as_tuple(),
            )
        expected = (r1 - r0 + 1, c1 - c0 + 1)
        if heights.shape != expected:
            raise PatchError(
                "patch heights do not match the covered sample window",
                region=region.as_tuple(),
                expected_shape=expected,
                actual_shape=heights.shape,
            )
        heights = heights.astype(np.float64)
        if not np.all(np.isfinite(heights)):
            raise PatchError(
                "patch heights contain non-finite values",
                region=region.as_tuple(),
            )
        field.heights[r0 : r1 + 1, c0 : c1 + 1] = heights
        return region

    # -- convenience ------------------------------------------------------------

    def bounds(self):
        """The terrain extent in ``(x, y)``."""
        return self.field.bounds()

