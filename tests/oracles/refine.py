"""Algorithm 1's refinement steps (3)-(4), kept as a test oracle.

The paper's ``SingleBase`` builds the mesh on the query cube's top
plane, then splits nodes top-down until the query plane's LOD is met.
The serving path answers the same query with a set filter instead
(:func:`repro.core.query.single_base_query`); the tests hold that
filter to this executable form of the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.geometry.plane import QueryPlane
from repro.storage.record import DMNodeRecord

__all__ = ["RefinementResult", "refine_to_plane", "resolve_overlaps"]


@dataclass
class RefinementResult:
    """Outcome of running Algorithm 1's refinement steps.

    Attributes:
        active: ids forming the refined mesh.
        splits: number of vertex splits performed (CPU-cost proxy —
            the paper notes DM needs "a smaller amount of refinement").
        missing_children: ids of children that were demanded but not
            present in the retrieved set (should stay empty for
            correctly formed query cubes; boundary nodes whose
            children fall outside the ROI are not demanded).
    """

    active: set[int]
    splits: int = 0
    missing_children: list[int] = field(default_factory=list)


def refine_to_plane(
    records: dict[int, DMNodeRecord],
    plane: QueryPlane,
    start_lod: float | None = None,
) -> RefinementResult:
    """Algorithm 1, steps 3-4: top-plane mesh, then refine downwards.

    Args:
        records: every node retrieved by the query cube, keyed by id.
        plane: the query plane (``required_lod`` drives the splits).
        start_lod: LOD of the top plane (defaults to ``plane.e_max``).

    A node is split while its ``e_low`` exceeds the plane's required
    LOD at the node's own position and both children are available;
    children falling outside the retrieved set are recorded in
    ``missing_children`` (they lie outside the ROI and are dropped,
    clipping the mesh at the ROI boundary like the paper's ``M'``).
    """
    top = plane.e_max if start_lod is None else start_lod
    active: set[int] = {
        nid for nid, rec in records.items() if rec.interval_contains(top)
    }
    if not active and records:
        # The cube's top plane may sit above every retrieved interval
        # when the ROI clips coarse ancestors away; seed with maximal
        # nodes (those whose parent is absent).
        active = {
            nid for nid, rec in records.items() if rec.parent not in records
        }
    result = RefinementResult(active=set())
    stack = list(active)
    while stack:
        nid = stack.pop()
        rec = records[nid]
        required = plane.required_lod(rec.x, rec.y)
        if rec.e_low <= required or rec.is_leaf:
            result.active.add(nid)
            continue
        children = [c for c in (rec.child1, rec.child2) if c in records]
        if len(children) < 2:
            # Children clipped by the ROI: keep what exists.
            result.missing_children.extend(
                c for c in (rec.child1, rec.child2) if c not in records
            )
            stack.extend(children)
            continue
        result.splits += 1
        stack.extend(children)
    return result


def resolve_overlaps(
    records: dict[int, DMNodeRecord]
) -> dict[int, DMNodeRecord]:
    """Drop nodes whose ancestor is also present.

    Under the pointwise viewpoint-dependent semantics a steep query
    plane can qualify both a node and one of its descendants (at their
    respective positions).  Keeping the ancestor yields a consistent
    (slightly coarser) mesh; this helper applies that rule.
    """
    present = set(records)
    kept: dict[int, DMNodeRecord] = {}
    for nid, rec in records.items():
        ancestor = rec.parent
        has_present_ancestor = False
        guard = 0
        while ancestor != -1:
            if ancestor in present:
                has_present_ancestor = True
                break
            parent_rec = records.get(ancestor)
            if parent_rec is None:
                break
            ancestor = parent_rec.parent
            guard += 1
            if guard > len(records):
                raise QueryError("parent chain cycle detected")
        if not has_present_ancestor:
            kept[nid] = rec
    return kept
