"""Index substrate: spatial and relational access methods.

* :class:`~repro.index.rstar.RStarTree` -- disk-backed 3D R-tree,
  STR-packed once and read-only, the index Direct Mesh uses;
* :class:`~repro.index.btree.BPlusTree` -- id -> RID index of the PM
  baseline, packed once from sorted ids and read-only;
* :class:`~repro.index.quadtree.LodQuadtree` -- Xu's 3D adaptive
  quadtree for PM data (the prior state of the art);
* :class:`~repro.index.hdov.HDoVTree` /
  :class:`~repro.index.hdov.LodRTree` -- the visibility-aware
  LOD-R-tree family (Shou et al. / Kofler);
* :mod:`repro.index.visibility` -- degree-of-visibility estimation.
"""

from repro.index.btree import BPlusTree
from repro.index.hdov import HDoVQueryResult, HDoVTree, LodRTree
from repro.index.quadtree import LodQuadtree
from repro.index.rstar import RStarTree, RTreeNodeStats
from repro.index.visibility import default_viewpoints, tile_visibility

__all__ = [
    "BPlusTree",
    "HDoVQueryResult",
    "HDoVTree",
    "LodQuadtree",
    "LodRTree",
    "RStarTree",
    "RTreeNodeStats",
    "default_viewpoints",
    "tile_visibility",
]
