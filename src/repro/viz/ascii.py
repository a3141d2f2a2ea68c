"""ASCII terrain rendering for terminals, examples, and smoke tests.

Not a substitute for the paper's OpenGL viewer — just enough to *see*
query results: an elevation ramp or a simple north-west hillshade over
a character grid.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ReproError
from repro.geometry.primitives import Rect
from repro.terrain.gridfield import GridField

__all__ = ["render_points", "render_hillshade"]

#: Dark-to-light elevation ramp.
_RAMP = " .:-=+*#%@"


def render_points(
    points: Sequence[tuple[float, float, float]],
    width: int = 72,
    height: int = 28,
    bounds: Rect | None = None,
) -> str:
    """Render scattered 3D points as an elevation-ramp character grid.

    Cells containing no point stay blank, so sparse query results show
    their actual coverage.
    """
    if not points:
        raise ReproError("no points to render")
    if bounds is None:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        bounds = Rect(min(xs), min(ys), max(xs), max(ys))
    zs = [p[2] for p in points]
    z_min, z_max = min(zs), max(zs)
    z_span = (z_max - z_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    w = bounds.width or 1.0
    h = bounds.height or 1.0
    for x, y, z in points:
        col = int((x - bounds.min_x) / w * (width - 1))
        row = int((y - bounds.min_y) / h * (height - 1))
        if not (0 <= col < width and 0 <= row < height):
            continue
        level = int((z - z_min) / z_span * (len(_RAMP) - 1))
        current = grid[height - 1 - row][col]
        candidate = _RAMP[level]
        if current == " " or _RAMP.index(current) < level:
            grid[height - 1 - row][col] = candidate
    return "\n".join("".join(row) for row in grid)


def render_hillshade(
    field: GridField,
    width: int = 72,
    height: int = 28,
    azimuth_deg: float = 315.0,
    altitude_deg: float = 45.0,
) -> str:
    """Render a raster as a hillshade (illumination from ``azimuth``)."""
    bounds = field.bounds()
    xs = np.linspace(bounds.min_x, bounds.max_x, width)
    ys = np.linspace(bounds.max_y, bounds.min_y, height)
    xx, yy = np.meshgrid(xs, ys)
    z = field.sample_many(xx.ravel(), yy.ravel()).reshape(height, width)
    step_x = (bounds.width or 1.0) / width
    step_y = (bounds.height or 1.0) / height
    dz_dx = np.gradient(z, axis=1) / step_x
    dz_dy = -np.gradient(z, axis=0) / step_y
    azimuth = math.radians(azimuth_deg)
    altitude = math.radians(altitude_deg)
    slope = np.arctan(np.hypot(dz_dx, dz_dy))
    aspect = np.arctan2(dz_dy, -dz_dx)
    shade = np.sin(altitude) * np.cos(slope) + np.cos(altitude) * np.sin(
        slope
    ) * np.cos(azimuth - aspect)
    shade = np.clip((shade + 1) / 2, 0, 1)
    lines = []
    for row in shade:
        idx = (row * (len(_RAMP) - 1)).astype(int)
        lines.append("".join(_RAMP[i] for i in idx))
    return "\n".join(lines)
