"""Shared fixtures: small terrains, progressive meshes, databases.

Session-scoped fixtures build one small dataset and one database with
every store, so integration tests share the (relatively) expensive
construction work.  Anything mutated by a test must be
function-scoped.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.baselines.pm_db import PMStore
from repro.core.connectivity import build_connection_lists
from repro.core.direct_mesh import DirectMeshStore
from repro.core.reconstruct import mesh_edges_scalar, mesh_triangles_scalar
from repro.index.hdov import HDoVTree
from repro.mesh.simplify import SimplifyConfig, simplify_to_pm
from repro.mesh.trimesh import TriMesh
from repro.storage.database import Database
from repro.terrain.datasets import TerrainDataset
from repro.terrain.dem import DEM
from repro.terrain.synthetic import gaussian_hills_field


def make_wavy_grid_mesh(side: int = 24, seed: int = 3) -> TriMesh:
    """A deterministic bumpy grid TIN used by mesh-level unit tests."""
    rng = random.Random(seed)
    heights = [
        [
            math.sin(i * 0.4) * 4.0
            + math.cos(j * 0.3) * 3.0
            + rng.random() * 0.4
            for j in range(side)
        ]
        for i in range(side)
    ]
    return TriMesh.from_grid(heights, cell_size=5.0)


@pytest.fixture(scope="session")
def wavy_mesh() -> TriMesh:
    """A 24x24 grid TIN (576 vertices)."""
    return make_wavy_grid_mesh()


@pytest.fixture(scope="session")
def wavy_pm(wavy_mesh):
    """A normalised PM over :func:`wavy_mesh` (vertical errors)."""
    pm = simplify_to_pm(
        wavy_mesh, SimplifyConfig(error_measure="vertical")
    )
    pm.normalize_lod()
    return pm


@pytest.fixture(scope="session")
def wavy_connections(wavy_pm):
    """Connection lists for :func:`wavy_pm`."""
    return build_connection_lists(wavy_pm)


@pytest.fixture(scope="session")
def hills_dataset() -> TerrainDataset:
    """A ~2000-point Gaussian-hills dataset with PM and connections."""
    field = gaussian_hills_field(size=96, n_hills=10, seed=11)
    dem = DEM(field, "hills")
    mesh = dem.to_scattered_trimesh(2000, seed=11)
    pm = simplify_to_pm(mesh, SimplifyConfig(error_measure="vertical"))
    pm.normalize_lod()
    return TerrainDataset(
        "hills", field, mesh, pm, build_connection_lists(pm)
    )


def oracle_mesh(nodes) -> tuple[np.ndarray, np.ndarray]:
    """The scalar oracle's ``(edges, triangles)`` of a record dict, in
    the kernels' return shape: sorted ``(k, 2)`` / ``(m, 3)`` int64."""
    pairs = mesh_edges_scalar(nodes)
    return (
        np.array(sorted(pairs), np.int64).reshape(-1, 2),
        np.array(mesh_triangles_scalar(nodes, pairs), np.int64).reshape(-1, 3),
    )


def assert_same_rows(got: np.ndarray, want: np.ndarray) -> None:
    """``got`` is ``want``: same dtype, shape, rows and row order."""
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()


@pytest.fixture(scope="session")
def session_db(tmp_path_factory, hills_dataset):
    """A database with DM, PM, and HDoV stores over ``hills_dataset``.

    Session-scoped and read-only by convention: tests must only run
    queries against it.
    """
    path = tmp_path_factory.mktemp("session-db")
    db = Database(path / "db", pool_pages=512)
    dm = DirectMeshStore.build(
        hills_dataset.pm, db, hills_dataset.connections
    )
    pm_store = PMStore.build(hills_dataset.pm, db)
    hdov = HDoVTree.build(
        hills_dataset.pm,
        hills_dataset.field,
        db,
        connections=hills_dataset.connections,
        grid=8,
    )
    yield {"db": db, "dm": dm, "pm": pm_store, "hdov": hdov}
    db.close()


@pytest.fixture
def fresh_db(tmp_path):
    """An empty function-scoped database."""
    db = Database(tmp_path / "db", pool_pages=128)
    yield db
    db.close()
