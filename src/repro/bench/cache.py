"""Build-once caching of datasets, databases, and stores.

PM construction and store building for the benchmark datasets take
tens of seconds in pure Python; the harness builds each configuration
once and caches it under ``.data/`` (override with ``REPRO_CACHE_DIR``)
keyed by dataset name, point count, and a schema version that must be
bumped whenever on-disk formats change.
"""

from __future__ import annotations

import os
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.baselines.pm_db import PMStore
from repro.core.direct_mesh import DirectMeshStore
from repro.errors import DatasetError
from repro.index.hdov import HDoVTree
from repro.storage.database import Database
from repro.terrain.datasets import TerrainDataset, dataset_by_name

__all__ = ["ExperimentEnv", "load_environment", "cache_root"]

#: Bump when any on-disk format or layout (records, index pages,
#: cluster runs, pickles) changes.
SCHEMA_VERSION = 12


@dataclass
class ExperimentEnv:
    """Everything one experiment needs, fully built.

    Attributes:
        dataset: the in-memory terrain dataset (for reference queries
            and workload parameters).
        database: the shared database holding all stores.
        dm: the Direct Mesh store.
        pm_store: the PM/LOD-quadtree baseline store.
        hdov: the HDoV-tree baseline.
    """

    dataset: TerrainDataset
    database: Database
    dm: DirectMeshStore
    pm_store: PMStore
    hdov: HDoVTree

    def close(self) -> None:
        """Close the database."""
        self.database.close()


def cache_root() -> Path:
    """The cache directory (created on demand)."""
    root = Path(os.environ.get("REPRO_CACHE_DIR", ".data"))
    root.mkdir(parents=True, exist_ok=True)
    return root


def _hdov_grid_for(n_points: int) -> int:
    """Tile grid sized so full-resolution tiles hold ~1250+ points.

    The paper's HDoV setup partitions a multi-million-point terrain
    into a grid of renderable *objects*; object granularity relative
    to query result size is what drives HDoV's whole-object retrieval
    cost, so the scaled-down datasets keep tiles comparable to a
    typical query result rather than keeping the tile *count*.
    """
    grid = 2
    while grid * grid * 1250 < n_points and grid < 64:
        grid *= 2
    return grid


def load_environment(
    name: str,
    n_points: int,
    pool_pages: int = 256,
    rebuild: bool = False,
) -> ExperimentEnv:
    """Load (building and caching if needed) a full experiment setup.

    Args:
        name: dataset name (``"foothills"`` or ``"crater"``).
        n_points: terrain sample count.
        pool_pages: buffer pool size for the returned database.
        rebuild: force a rebuild even if the cache exists.
    """
    key = f"{name}-{n_points}-v{SCHEMA_VERSION}"
    root = cache_root() / key
    pickle_path = root / "dataset.pickle"
    db_path = root / "db"
    stamp = root / "COMPLETE"

    if rebuild and root.exists():
        shutil.rmtree(root)

    if not stamp.exists():
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        dataset = dataset_by_name(name, n_points)
        with open(pickle_path, "wb") as f:
            pickle.dump(dataset, f, protocol=pickle.HIGHEST_PROTOCOL)
        database = Database(db_path, pool_pages=pool_pages)
        with database.atomic():
            DirectMeshStore.build(dataset.pm, database, dataset.connections)
            PMStore.build(dataset.pm, database)
            HDoVTree.build(
                dataset.pm,
                dataset.field,
                database,
                connections=dataset.connections,
                grid=_hdov_grid_for(n_points),
            )
        database.close()
        stamp.touch()

    try:
        with open(pickle_path, "rb") as f:
            dataset = pickle.load(f)
    except (OSError, pickle.UnpicklingError) as exc:
        raise DatasetError(
            f"corrupt cache at {root}; delete it and retry"
        ) from exc
    database = Database(db_path, pool_pages=pool_pages)
    return ExperimentEnv(
        dataset=dataset,
        database=database,
        dm=DirectMeshStore.open(database),
        pm_store=PMStore.open(database),
        hdov=HDoVTree.open(database),
    )
