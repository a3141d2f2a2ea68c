"""Terrain approximation quality measurement.

The paper's metric is I/O; a downstream user also needs to know *how
good* a retrieved approximation is.  This module measures the vertical
deviation between a query result's triangulated surface and the ground
truth (the source raster or the full-resolution TIN), plus basic
terrain statistics (slope/roughness) used by the examples.

The error measure matches the library's LOD unit — vertical distance —
so "query at LOD e" and "measured error ~ e" are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ReproError
from repro.geometry.primitives import Rect
from repro.terrain.gridfield import GridField

__all__ = ["ApproximationError", "measure_against_field", "surface_sampler"]


@dataclass(frozen=True)
class ApproximationError:
    """Vertical-deviation statistics of an approximation.

    Attributes:
        rmse: root-mean-square vertical error over the sample grid.
        max_error: worst absolute vertical error.
        mean_error: mean absolute vertical error.
        samples: number of sample points that hit the approximation.
        coverage: fraction of sample points inside some triangle (a
            low value means the approximation has holes in the ROI).
    """

    rmse: float
    max_error: float
    mean_error: float
    samples: int
    coverage: float


def surface_sampler(
    vertices: Sequence[tuple[float, float, float]],
    triangles: Sequence[tuple[int, int, int]],
):
    """A callable interpolating the triangulated surface.

    Returns ``sample(x, y) -> float | None`` using barycentric
    interpolation with a uniform-grid spatial index over triangles
    (fast enough for tens of thousands of queries).
    """
    if len(triangles) == 0:
        raise ReproError("cannot sample a surface with no triangles")
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    bounds = Rect(min(xs), min(ys), max(xs), max(ys))
    n_cells = max(1, int(math.sqrt(len(triangles))))
    cell_w = (bounds.width or 1.0) / n_cells
    cell_h = (bounds.height or 1.0) / n_cells

    grid: dict[tuple[int, int], list[int]] = {}
    for t_index, (a, b, c) in enumerate(triangles):
        t_min_x = min(vertices[a][0], vertices[b][0], vertices[c][0])
        t_max_x = max(vertices[a][0], vertices[b][0], vertices[c][0])
        t_min_y = min(vertices[a][1], vertices[b][1], vertices[c][1])
        t_max_y = max(vertices[a][1], vertices[b][1], vertices[c][1])
        ix0 = int((t_min_x - bounds.min_x) / cell_w)
        ix1 = int((t_max_x - bounds.min_x) / cell_w)
        iy0 = int((t_min_y - bounds.min_y) / cell_h)
        iy1 = int((t_max_y - bounds.min_y) / cell_h)
        for ix in range(max(0, ix0), min(n_cells - 1, ix1) + 1):
            for iy in range(max(0, iy0), min(n_cells - 1, iy1) + 1):
                grid.setdefault((ix, iy), []).append(t_index)

    def sample(x: float, y: float) -> float | None:
        ix = int((x - bounds.min_x) / cell_w)
        iy = int((y - bounds.min_y) / cell_h)
        for t_index in grid.get(
            (min(max(ix, 0), n_cells - 1), min(max(iy, 0), n_cells - 1)), ()
        ):
            a, b, c = triangles[t_index]
            ax, ay, az = vertices[a]
            bx, by, bz = vertices[b]
            cx, cy, cz = vertices[c]
            det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
            if det == 0:
                continue
            l1 = ((by - cy) * (x - cx) + (cx - bx) * (y - cy)) / det
            l2 = ((cy - ay) * (x - cx) + (ax - cx) * (y - cy)) / det
            l3 = 1.0 - l1 - l2
            eps = -1e-9
            if l1 >= eps and l2 >= eps and l3 >= eps:
                return l1 * az + l2 * bz + l3 * cz
        return None

    return sample


def measure_against_field(
    vertices: Sequence[tuple[float, float, float]],
    triangles: Sequence[tuple[int, int, int]],
    field: GridField,
    roi: Rect | None = None,
    samples_per_side: int = 40,
    margin_fraction: float = 0.05,
) -> ApproximationError:
    """Vertical error of a triangulated approximation vs the raster.

    Args:
        vertices, triangles: the approximation (e.g. from
            :meth:`DMQueryResult.vertex_mesh`).
        field: the ground-truth raster.
        roi: measurement region (default: the approximation's bounds,
            shrunk by ``margin_fraction`` to avoid ragged query-window
            edges where the mesh is clipped).
        samples_per_side: sample-grid resolution.
    """
    if roi is None:
        xs = [v[0] for v in vertices]
        ys = [v[1] for v in vertices]
        roi = Rect(min(xs), min(ys), max(xs), max(ys)).scaled(
            1.0 - margin_fraction * 2
        )
    sampler = surface_sampler(vertices, triangles)
    sample_xs = np.linspace(roi.min_x, roi.max_x, samples_per_side)
    sample_ys = np.linspace(roi.min_y, roi.max_y, samples_per_side)
    errors: list[float] = []
    missed = 0
    for x in sample_xs:
        for y in sample_ys:
            approx_z = sampler(float(x), float(y))
            if approx_z is None:
                missed += 1
                continue
            errors.append(abs(approx_z - field.sample(float(x), float(y))))
    total = samples_per_side * samples_per_side
    if not errors:
        return ApproximationError(
            math.inf, math.inf, math.inf, 0, 0.0
        )
    arr = np.array(errors)
    return ApproximationError(
        rmse=float(np.sqrt(np.mean(arr**2))),
        max_error=float(arr.max()),
        mean_error=float(arr.mean()),
        samples=len(errors),
        coverage=len(errors) / total,
    )
