"""Terrain file I/O: XYZ point lists, ESRI ASCII grids, Wavefront OBJ.

Small, dependency-free readers/writers so datasets and query results
can leave the library — enough to round-trip everything the examples
and tests produce.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import DatasetError
from repro.mesh.trimesh import TriMesh
from repro.terrain.gridfield import GridField

__all__ = [
    "write_xyz",
    "read_xyz",
    "write_esri_ascii",
    "read_esri_ascii",
    "write_obj",
]


def write_xyz(path: str | Path, points: Sequence[tuple[float, float, float]]) -> None:
    """Write points as whitespace-separated ``x y z`` lines."""
    with open(path, "w", encoding="ascii") as f:
        for x, y, z in points:
            f.write(f"{x:.6f} {y:.6f} {z:.6f}\n")


def read_xyz(path: str | Path) -> list[tuple[float, float, float]]:
    """Read an ``x y z`` text file (blank lines and ``#`` comments ok)."""
    points: list[tuple[float, float, float]] = []
    with open(path, "r", encoding="ascii") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 3:
                raise DatasetError(f"{path}:{line_no}: expected 3 columns")
            try:
                points.append((float(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise DatasetError(f"{path}:{line_no}: {exc}") from exc
    return points


def write_esri_ascii(path: str | Path, field: GridField) -> None:
    """Write a grid in ESRI ASCII raster format (the USGS DEM family)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"ncols {field.n_cols}\n")
        f.write(f"nrows {field.n_rows}\n")
        f.write(f"xllcorner {field.origin[0]:.6f}\n")
        f.write(f"yllcorner {field.origin[1]:.6f}\n")
        f.write(f"cellsize {field.cell_size:.6f}\n")
        f.write("NODATA_value -9999\n")
        # ESRI rows run top (max y) to bottom.
        for row in range(field.n_rows - 1, -1, -1):
            f.write(" ".join(f"{v:.4f}" for v in field.heights[row]) + "\n")


def read_esri_ascii(path: str | Path) -> GridField:
    """Read an ESRI ASCII raster into a :class:`GridField`."""
    header: dict[str, float] = {}
    rows: list[list[float]] = []
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            key = parts[0].lower()
            if key in (
                "ncols",
                "nrows",
                "xllcorner",
                "yllcorner",
                "cellsize",
                "nodata_value",
            ):
                header[key] = float(parts[1])
            else:
                rows.append([float(v) for v in parts])
    for required in ("ncols", "nrows", "cellsize"):
        if required not in header:
            raise DatasetError(f"{path}: missing header field {required}")
    heights = np.array(rows, dtype=np.float64)
    if heights.shape != (int(header["nrows"]), int(header["ncols"])):
        raise DatasetError(
            f"{path}: data shape {heights.shape} does not match header"
        )
    heights = heights[::-1]  # Back to row 0 = min y.
    return GridField(
        heights,
        header["cellsize"],
        (header.get("xllcorner", 0.0), header.get("yllcorner", 0.0)),
    )


def write_obj(
    path: str | Path,
    mesh: TriMesh | None = None,
    vertices: Sequence[tuple[float, float, float]] | None = None,
    triangles: (
        Sequence[tuple[int, int, int]] | npt.NDArray[np.integer[Any]] | None
    ) = None,
) -> None:
    """Write a mesh as Wavefront OBJ (1-based indices).

    Pass either ``mesh`` or explicit ``vertices``/``triangles`` — rows
    of three, e.g. what :meth:`DMQueryResult.vertex_mesh` returns.
    """
    if mesh is not None:
        vertices = mesh.vertices
        triangles = mesh.triangles
    if vertices is None or triangles is None:
        raise DatasetError("write_obj needs a mesh or vertices+triangles")
    with open(path, "w", encoding="ascii") as f:
        f.write("# Direct Mesh reproduction export\n")
        for x, y, z in vertices:
            f.write(f"v {x:.6f} {y:.6f} {z:.6f}\n")
        for a, b, c in triangles:
            f.write(f"f {a + 1} {b + 1} {c + 1}\n")
