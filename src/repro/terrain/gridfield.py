"""Regular elevation grids with bilinear sampling.

A :class:`GridField` is the raster form of a terrain — what a DEM file
contains, and what the synthetic generators produce.  TINs are derived
from it by sampling; the HDoV visibility estimator uses its fast
line-of-sight queries.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.geometry.primitives import Rect

__all__ = ["GridField"]


class GridField:
    """A regular grid of elevations over an axis-aligned extent.

    ``heights[row, col]`` is the elevation at
    ``(origin_x + col * cell, origin_y + row * cell)``.
    """

    def __init__(
        self,
        heights: np.ndarray,
        cell_size: float = 1.0,
        origin: tuple[float, float] = (0.0, 0.0),
    ) -> None:
        heights = np.asarray(heights, dtype=np.float64)
        if heights.ndim != 2 or heights.shape[0] < 2 or heights.shape[1] < 2:
            raise DatasetError("heights must be a 2D array, at least 2x2")
        if cell_size <= 0:
            raise DatasetError(f"cell size must be positive, got {cell_size}")
        self.heights = heights
        self.cell_size = float(cell_size)
        self.origin = (float(origin[0]), float(origin[1]))

    # -- geometry -----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Grid rows (y direction)."""
        return self.heights.shape[0]

    @property
    def n_cols(self) -> int:
        """Grid columns (x direction)."""
        return self.heights.shape[1]

    def bounds(self) -> Rect:
        """The grid's (x, y) extent."""
        ox, oy = self.origin
        return Rect(
            ox,
            oy,
            ox + (self.n_cols - 1) * self.cell_size,
            oy + (self.n_rows - 1) * self.cell_size,
        )

    def elevation_range(self) -> tuple[float, float]:
        """``(min, max)`` elevation."""
        return (float(self.heights.min()), float(self.heights.max()))

    # -- sampling -------------------------------------------------------------

    def sample(self, x: float, y: float) -> float:
        """Bilinear elevation at ``(x, y)`` (clamped to the extent)."""
        ox, oy = self.origin
        fx = (x - ox) / self.cell_size
        fy = (y - oy) / self.cell_size
        fx = min(max(fx, 0.0), self.n_cols - 1.0)
        fy = min(max(fy, 0.0), self.n_rows - 1.0)
        c0 = int(fx)
        r0 = int(fy)
        c1 = min(c0 + 1, self.n_cols - 1)
        r1 = min(r0 + 1, self.n_rows - 1)
        tx = fx - c0
        ty = fy - r0
        h = self.heights
        top = h[r0, c0] * (1 - tx) + h[r0, c1] * tx
        bottom = h[r1, c0] * (1 - tx) + h[r1, c1] * tx
        return float(top * (1 - ty) + bottom * ty)

    def sample_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised bilinear sampling."""
        ox, oy = self.origin
        fx = np.clip((np.asarray(xs) - ox) / self.cell_size, 0, self.n_cols - 1)
        fy = np.clip((np.asarray(ys) - oy) / self.cell_size, 0, self.n_rows - 1)
        c0 = fx.astype(np.int64)
        r0 = fy.astype(np.int64)
        c1 = np.minimum(c0 + 1, self.n_cols - 1)
        r1 = np.minimum(r0 + 1, self.n_rows - 1)
        tx = fx - c0
        ty = fy - r0
        h = self.heights
        top = h[r0, c0] * (1 - tx) + h[r0, c1] * tx
        bottom = h[r1, c0] * (1 - tx) + h[r1, c1] * tx
        return top * (1 - ty) + bottom * ty

    # -- line of sight -----------------------------------------------------------

    def line_of_sight(
        self,
        from_xyz: tuple[float, float, float],
        to_xyz: tuple[float, float, float],
        steps: int = 48,
    ) -> bool:
        """True if the segment between the two 3D points clears terrain.

        Samples ``steps`` interior points; the endpoints themselves are
        not tested (the target sits *on* the terrain).
        """
        x0, y0, z0 = from_xyz
        x1, y1, z1 = to_xyz
        ts = np.linspace(0.0, 1.0, steps + 2)[1:-1]
        xs = x0 + (x1 - x0) * ts
        ys = y0 + (y1 - y0) * ts
        zs = z0 + (z1 - z0) * ts
        ground = self.sample_many(xs, ys)
        return bool(np.all(zs >= ground - 1e-9))
