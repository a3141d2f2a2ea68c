"""Terrain data substrate: rasters, synthetic relief, DEMs, datasets.

Public surface:

* :class:`~repro.terrain.gridfield.GridField` — raster elevations with
  bilinear sampling and line-of-sight queries;
* :mod:`repro.terrain.synthetic` — fractal / ridge / crater / hills
  generators;
* :class:`~repro.terrain.dem.DEM` — raster-to-TIN conversion;
* :func:`~repro.terrain.datasets.foothills_dataset` and
  :func:`~repro.terrain.datasets.crater_dataset` — the two evaluation
  datasets (analogs of the paper's 2M and 17M point sets);
* :mod:`repro.terrain.io` — ESRI ASCII round-tripping and OBJ export.
"""

from repro.terrain.analysis import (
    ApproximationError,
    measure_against_field,
    surface_sampler,
)
from repro.terrain.datasets import (
    TerrainDataset,
    crater_dataset,
    dataset_by_name,
    foothills_dataset,
    scale_factor,
)
from repro.terrain.dem import DEM
from repro.terrain.gridfield import GridField
from repro.terrain.io import (
    read_esri_ascii,
    write_esri_ascii,
    write_obj,
)
from repro.terrain.synthetic import (
    crater_field,
    fractal_field,
    gaussian_hills_field,
    ridge_field,
)

__all__ = [
    "ApproximationError",
    "DEM",
    "GridField",
    "TerrainDataset",
    "crater_dataset",
    "crater_field",
    "dataset_by_name",
    "foothills_dataset",
    "fractal_field",
    "gaussian_hills_field",
    "measure_against_field",
    "read_esri_ascii",
    "ridge_field",
    "scale_factor",
    "surface_sampler",
    "write_esri_ascii",
    "write_obj",
]
