"""The R-tree I/O cost model and the multi-base optimiser.

Paper Section 5.3: the number of disk accesses of a 3D R-tree range
query ``q`` is estimated as::

    DA(R, q) = sum_i (q_x + w_i) (q_y + h_i) (q_z + d_i)        (1)

over the tree's nodes ``i`` (all sizes normalised to the data space).
Splitting a viewpoint-dependent query's single cube into several
smaller cubes trades extra index descents for less dead volume; two
cubes win when formula (7) is positive, and the best place to split
the top plane is **the middle** (formulas (8)-(9), since
``q_y1 q_z1 + q_y2 q_z2`` is minimised by equal halves).  Applied
recursively this yields the multi-base query plan.

The aggregate node statistics come from the index — "the size of
R-tree nodes ... can be found from the R-tree index", as the paper
notes.  A store's index is its cluster directory, whose extents enter
the sums weighted by their run pages
(:meth:`repro.core.clusters.ClusterIndex.extent_stats`), so the
estimate prices the pages a range query reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import plane_cube
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Box3
from repro.index.rstar import RTreeNodeStats

__all__ = ["RTreeCostModel", "MultiBasePlan"]

#: Recursion guard: at most 2**_MAX_SPLIT_DEPTH base cubes.
_MAX_SPLIT_DEPTH = 6


@dataclass(frozen=True)
class MultiBasePlan:
    """The optimiser's output: one sub-plane (strip) per range query.

    ``estimated_da`` is the cost-model estimate for the plan;
    ``single_base_da`` the estimate for the unsplit cube, kept for
    reporting the predicted gain.
    """

    strips: list[QueryPlane]
    estimated_da: float
    single_base_da: float

    @property
    def n_queries(self) -> int:
        """Number of range queries the plan issues."""
        return len(self.strips)

    @property
    def predicted_gain(self) -> float:
        """Estimated disk accesses saved versus single-base."""
        return self.single_base_da - self.estimated_da


class RTreeCostModel:
    """Estimates range-query I/O against one index's node statistics.

    ``e_cap`` is the store's indexing cap: a plane is priced as the
    cube the query processors probe, clamped to it
    (:func:`~repro.core.query.plane_cube`); ``None`` leaves it
    unclamped.
    """

    def __init__(self, stats: RTreeNodeStats, e_cap: float | None) -> None:
        self._stats = stats
        self._e_cap = e_cap

    def estimate(self, query: Box3) -> float:
        """Formula (1) for one query box."""
        return self._stats.estimate_disk_accesses(query)

    def estimate_plane(self, plane: QueryPlane) -> float:
        """Formula (1) for the cube a query plane probes."""
        return self.estimate(plane_cube(plane, self._e_cap))

    # -- multi-base optimisation -------------------------------------------

    def plan_multi_base(
        self, plane: QueryPlane, max_depth: int = _MAX_SPLIT_DEPTH
    ) -> MultiBasePlan:
        """Recursively halve the query plane while formula (7) predicts
        a positive gain.

        Returns the strips in order along the viewing direction.
        """
        single = self.estimate_plane(plane)
        strips = self._split_recursive(plane, max_depth)
        total = sum(self.estimate_plane(s) for s in strips)
        if total >= single:
            # Degenerate data (e.g. flat LOD field): keep single-base.
            return MultiBasePlan([plane], single, single)
        return MultiBasePlan(strips, total, single)

    def _split_recursive(
        self, plane: QueryPlane, depth: int
    ) -> list[QueryPlane]:
        if depth <= 0:
            return [plane]
        whole = self.estimate_plane(plane)
        halves = plane.split_across_direction(2)
        if len(halves) != 2:
            return [plane]
        split_cost = sum(self.estimate_plane(h) for h in halves)
        if split_cost >= whole:
            # Condition (7) fails: splitting no longer pays.
            return [plane]
        result: list[QueryPlane] = []
        for half in halves:
            result.extend(self._split_recursive(half, depth - 1))
        return result
