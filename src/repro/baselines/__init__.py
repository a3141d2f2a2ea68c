"""Baseline query processors the paper compares against.

* :class:`~repro.baselines.pm_db.PMStore` — progressive mesh over the
  database with LOD-quadtree indexing and per-node B+-tree fetches
  (the paper's "PM" series);
* :class:`~repro.baselines.paper_layout.PaperLayoutStore` — the
  paper's per-node Direct Mesh layout (record heap under a per-node
  3D R*-tree), built on demand for the comparisons against it;
* the HDoV-tree lives in :mod:`repro.index.hdov` (it is both an index
  and its own query processor, as in the original system).
"""

from repro.baselines.paper_layout import PaperLayoutStore
from repro.baselines.pm_db import PMQueryResult, PMStore

__all__ = ["PaperLayoutStore", "PMQueryResult", "PMStore"]
