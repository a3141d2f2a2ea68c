"""The progressive mesh (PM) binary-tree MTM structure.

This is the multiresolution triangular mesh of paper Section 2: a
binary forest built bottom-up by edge collapses.  Leaves are the
original terrain points; each internal node is the new point created by
collapsing its two children, annotated with

``(ID, x, y, z, e, parent, child1, child2, wing1, wing2)``

exactly as the paper lists, plus the *footprint* MBR of its descendant
points which the paper notes every internal node must record so it can
be retrieved with any of its descendants.

The module also implements the paper's **LOD normalisation**
(Section 4)::

    m.e = 0                                        if m is a leaf
    m.e = max(m.e, m.child1.e, m.child2.e)         otherwise

after which ``parent.e >= child.e`` holds everywhere, and each node
carries the LOD interval ``[e_low, e_high) = [m.e, m.parent.e)``
(``[m.e, inf)`` for roots).  The uniform-LOD approximation at threshold
``e`` is then exactly the set of nodes whose interval contains ``e``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import InvariantError, MeshError
from repro.geometry.primitives import Rect

__all__ = ["PMNode", "ProgressiveMesh", "NULL_ID", "LOD_INFINITY"]

#: Sentinel for "no node" (the paper's ``null``).
NULL_ID = -1

#: Stand-in for the unbounded top of a root's LOD interval.  Stored
#: explicitly so records and index entries stay finite.
LOD_INFINITY = float("inf")


@dataclass(slots=True)
class PMNode:
    """One node of the PM tree (paper Section 2's tuple).

    ``error`` is the raw approximation error assigned at collapse time;
    ``e`` is the normalised LOD value (filled by
    :meth:`ProgressiveMesh.normalize_lod`); ``e_high`` is the top of
    the node's LOD interval (the parent's ``e``, or infinity at roots).
    """

    id: int
    x: float
    y: float
    z: float
    error: float
    parent: int = NULL_ID
    child1: int = NULL_ID
    child2: int = NULL_ID
    wing1: int = NULL_ID
    wing2: int = NULL_ID
    e: float = 0.0
    e_high: float = LOD_INFINITY
    footprint: Rect | None = None

    @property
    def is_leaf(self) -> bool:
        """True for original terrain points."""
        return self.child1 == NULL_ID

    @property
    def e_low(self) -> float:
        """Bottom of the LOD interval (alias of the normalised ``e``)."""
        return self.e

    def interval_contains(self, lod: float) -> bool:
        """True if ``lod`` is inside the half-open interval
        ``[e_low, e_high)``."""
        return self.e <= lod < self.e_high

    def children(self) -> tuple[int, ...]:
        """The existing child ids (0, or 2 for internal nodes)."""
        if self.child1 == NULL_ID:
            return ()
        return (self.child1, self.child2)

    def wings(self) -> tuple[int, ...]:
        """The existing wing ids (0, 1 or 2)."""
        result = []
        if self.wing1 != NULL_ID:
            result.append(self.wing1)
        if self.wing2 != NULL_ID:
            result.append(self.wing2)
        return tuple(result)


class ProgressiveMesh:
    """A PM forest over a terrain point set.

    Node ids index into :attr:`nodes`; leaves occupy ids
    ``0 .. n_leaves - 1`` (matching the original vertex indices of the
    full-resolution mesh) and internal nodes follow in creation
    (collapse) order — an invariant the connectivity replay of
    :mod:`repro.core.connectivity` relies on.

    Attributes:
        nodes: all nodes, indexed by id.
        n_leaves: number of original terrain points.
        base_edges: undirected edge set of the full-resolution mesh,
            needed to seed the Direct Mesh connectivity lists.
    """

    def __init__(
        self,
        nodes: list[PMNode],
        n_leaves: int,
        base_edges: set[tuple[int, int]],
    ) -> None:
        self.nodes = nodes
        self.n_leaves = n_leaves
        self.base_edges = base_edges
        self._normalized = False

    # -- basic access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> PMNode:
        """The node with id ``node_id``."""
        return self.nodes[node_id]

    @property
    def roots(self) -> list[int]:
        """Ids of all parentless nodes (usually one, possibly a few)."""
        return [n.id for n in self.nodes if n.parent == NULL_ID]

    @property
    def leaves(self) -> Iterator[PMNode]:
        """All leaf nodes (original terrain points)."""
        return (n for n in self.nodes[: self.n_leaves])

    def ancestors(self, node_id: int) -> Iterator[PMNode]:
        """The node's ancestors from parent to root."""
        current = self.nodes[node_id].parent
        while current != NULL_ID:
            node = self.nodes[current]
            yield node
            current = node.parent

    def descendants(self, node_id: int) -> Iterator[PMNode]:
        """All descendants of ``node_id`` (pre-order)."""
        stack = list(self.nodes[node_id].children())
        while stack:
            node = self.nodes[stack.pop()]
            yield node
            stack.extend(node.children())

    def depth(self, node_id: int) -> int:
        """Number of ancestors above ``node_id``."""
        return sum(1 for _ in self.ancestors(node_id))

    # -- LOD normalisation ----------------------------------------------------

    def normalize_lod(self) -> None:
        """Apply the paper's LOD normalisation and assign intervals.

        Idempotent.  After this, ``node.e`` is the normalised LOD
        (zero at leaves, ``max(error, children)`` internally),
        ``node.e_high`` is the parent's ``e`` (infinity at roots), and
        footprints are computed for every node.
        """
        if self._normalized:
            return
        # Creation order guarantees children precede parents.
        for node in self.nodes:
            if node.is_leaf:
                node.e = 0.0
            else:
                c1 = self.nodes[node.child1]
                c2 = self.nodes[node.child2]
                node.e = max(node.error, c1.e, c2.e)
        for node in self.nodes:
            if node.parent == NULL_ID:
                node.e_high = LOD_INFINITY
            else:
                node.e_high = self.nodes[node.parent].e
        self._compute_footprints()
        self._normalized = True

    def _compute_footprints(self) -> None:
        for node in self.nodes:
            if node.is_leaf:
                node.footprint = Rect(node.x, node.y, node.x, node.y)
            else:
                f1 = self.nodes[node.child1].footprint
                f2 = self.nodes[node.child2].footprint
                if f1 is None or f2 is None:
                    raise InvariantError(
                        "child footprint missing during bottom-up pass",
                        node=node.id,
                        child1=node.child1,
                        child2=node.child2,
                    )
                own = Rect(node.x, node.y, node.x, node.y)
                node.footprint = f1.union(f2).union(own)

    @property
    def is_normalized(self) -> bool:
        """True once :meth:`normalize_lod` has run."""
        return self._normalized

    # -- LOD statistics ----------------------------------------------------------

    def max_lod(self) -> float:
        """The largest (finite) normalised LOD value in the forest."""
        self._require_normalized()
        return max(n.e for n in self.nodes)

    def average_lod(self) -> float:
        """Mean normalised LOD over internal nodes.

        The paper sets the LOD of varying-ROI experiments to "the
        average LOD value of the dataset".
        """
        self._require_normalized()
        internal = [n.e for n in self.nodes[self.n_leaves:]]
        if not internal:
            return 0.0
        return sum(internal) / len(internal)

    def lod_percentile(self, fraction: float) -> float:
        """The LOD value below which ``fraction`` of internal nodes fall."""
        self._require_normalized()
        values = sorted(n.e for n in self.nodes[self.n_leaves:])
        if not values:
            return 0.0
        idx = min(len(values) - 1, max(0, int(fraction * len(values))))
        return values[idx]

    # -- uniform cuts (reference semantics) -----------------------------------------

    def uniform_cut(self, lod: float) -> list[int]:
        """Node ids of the uniform approximation at threshold ``lod``.

        This is the reference ("in-memory") implementation used as
        ground truth in tests: the set of nodes whose LOD interval
        contains ``lod``.
        """
        self._require_normalized()
        return [n.id for n in self.nodes if n.interval_contains(lod)]

    def cut_is_partition(self, cut: Sequence[int]) -> bool:
        """Check that ``cut`` covers every leaf exactly once."""
        covered: set[int] = set()
        for node_id in cut:
            node = self.nodes[node_id]
            members = [node.id] if node.is_leaf else []
            members += [d.id for d in self.descendants(node_id) if d.is_leaf]
            for leaf in members:
                if leaf in covered:
                    return False
                covered.add(leaf)
        return len(covered) == self.n_leaves

    # -- validation -------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`MeshError`.

        Invariants: ids are positional; leaves precede internal nodes;
        children precede parents; parent/child links are mutual; after
        normalisation, ``parent.e >= child.e`` and intervals chain
        (``child.e_high == parent.e``).
        """
        for idx, node in enumerate(self.nodes):
            if node.id != idx:
                raise MeshError(f"node at position {idx} has id {node.id}")
        for node in self.nodes[: self.n_leaves]:
            if not node.is_leaf:
                raise MeshError(f"node {node.id} in leaf range has children")
        for node in self.nodes[self.n_leaves:]:
            if node.is_leaf:
                raise MeshError(f"internal node {node.id} has no children")
            if node.child1 >= node.id or node.child2 >= node.id:
                raise MeshError(
                    f"node {node.id} created before child "
                    f"({node.child1}, {node.child2})"
                )
            for child_id in node.children():
                child = self.nodes[child_id]
                if child.parent != node.id:
                    raise MeshError(
                        f"child {child_id} does not point back to {node.id}"
                    )
        if self._normalized:
            for node in self.nodes:
                for child_id in node.children():
                    child = self.nodes[child_id]
                    if child.e > node.e:
                        raise MeshError(
                            f"normalisation violated: child {child_id} "
                            f"e={child.e} > parent {node.id} e={node.e}"
                        )
                    if child.e_high != node.e:
                        raise MeshError(
                            f"interval chain broken at {child_id}"
                        )

    def _require_normalized(self) -> None:
        if not self._normalized:
            raise MeshError(
                "call normalize_lod() before LOD-dependent operations"
            )
