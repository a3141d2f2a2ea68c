"""The paper's per-node Direct Mesh layout, built on demand.

Section 4 stores each DM node record once, in a heap clustered in
``(x, y)`` order, under a 3D R*-tree over the nodes' vertical
``(x, y, e)`` segments; a uniform query is one R*-tree probe and a
page-ordered heap fetch.  A store epoch keeps the same records as
cluster runs instead (:mod:`repro.core.clusters`), selected through
the in-memory extent directory.  This module builds the per-node
layout for the comparisons that need it — the paper's disk-access
metric against the engine, the index-versus-data size, and the
heap-clustering and connection-list-compression ablations — and no
epoch writes it.

The heap is written in the STR packing order of the segments (the
order the R*-tree's leaves use, so each leaf's records share pages)
unless the caller gives another node order (the clustering ablation
does).  Connection lists are plain ``<i4`` arrays or, for the
compression ablation, delta+varint coded.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.query import DMQueryResult, filter_uniform_columnar, plane_box
from repro.geometry.primitives import Box3, Rect
from repro.index.rstar import RStarTree, str_order
from repro.mesh.progressive import LOD_INFINITY, ProgressiveMesh
from repro.storage.database import Database
from repro.storage.heapfile import HeapFile
from repro.storage.record import (
    DMNodeColumns,
    decode_dm_nodes_columnar,
    encode_dm_node,
)

__all__ = ["PaperLayoutStore"]


class PaperLayoutStore:
    """DM records in a heap under a per-node 3D R*-tree."""

    def __init__(
        self, database: Database, prefix: str, e_cap: float
    ) -> None:
        self.database = database
        self.prefix = prefix
        self.heap = HeapFile(database.segment(f"{prefix}_nodes"))
        self.rtree = RStarTree(database.segment(f"{prefix}_rtree"))
        self.e_cap = e_cap

    @classmethod
    def build(
        cls,
        pm: ProgressiveMesh,
        database: Database,
        connections: dict[int, list[int]],
        prefix: str = "paper",
        order: Sequence[int] | None = None,
        compress: bool = False,
    ) -> "PaperLayoutStore":
        """Write the heap and bulk-load the R*-tree over it.

        ``order`` lists indexes into ``pm.nodes`` in heap order (default
        the STR order of their segments); ``compress`` codes the
        connection lists delta+varint.
        """
        e_cap = pm.max_lod() * 1.05 + 1.0
        nodes = pm.nodes
        boxes = [
            Box3.vertical_segment(
                n.x, n.y, n.e, e_cap if n.e_high == LOD_INFINITY else n.e_high
            )
            for n in nodes
        ]
        if order is None:
            order = str_order(boxes)
        store = cls(database, prefix, e_cap)
        store.rtree.bulk_load([
            (
                boxes[i],
                store.heap.insert(
                    encode_dm_node(
                        nodes[i], connections.get(nodes[i].id, []), compress
                    )
                ),
            )
            for i in order
        ])
        database.buffer.flush_dirty()
        return store

    @property
    def heap_pages(self) -> int:
        """Pages of the record heap."""
        return self.heap.n_pages

    @property
    def index_pages(self) -> int:
        """Pages of the R*-tree."""
        return self.database.segment_pages(f"{self.prefix}_rtree")

    def range_columns(self, box: Box3) -> DMNodeColumns:
        """Every record whose segment meets ``box``: R*-tree probe,
        page-ordered heap fetch, one batched decode."""
        rids = self.rtree.search(box)
        return decode_dm_nodes_columnar(self.heap.read_many(rids))

    def uniform_query(self, roi: Rect, lod: float) -> DMQueryResult:
        """The paper's viewpoint-independent query on this layout."""
        columns = self.range_columns(plane_box(roi, lod, self.e_cap))
        return filter_uniform_columnar(columns, roi, lod)
