"""The Direct Mesh store: DM records + 3D R*-tree in a database.

Building a Direct Mesh (paper Section 4) from a normalised progressive
mesh:

1. every node gets its similar-LOD connection-point list
   (:mod:`repro.core.connectivity`);
2. node records (PM tuple + connection list) go into a heap file in
   the STR packing order of their ``(x, y, e)`` segments — a clustered
   primary index, the strongest reading of the paper's "(x, y)
   clustering is preserved as much as possible" for DM's access path
   (the ``abl_clustering`` benchmark quantifies the alternative);
3. each node becomes the vertical segment
   ``<(x, y, e_low), (x, y, e_high)>`` in ``(x, y, e)`` space, indexed
   by a 3D R*-tree;
4. a B+-tree maps node id -> RID for point lookups.

``e_cap`` — index vs record semantics
-------------------------------------

The paper gives root nodes the LOD interval ``[e, inf)``: a root is
part of *every* approximation coarser than its own error.  An R*-tree
cannot index an unbounded segment, so the **index** caps root segments
at ``e_cap = max_lod * 1.05 + 1`` (a finite height just above the
dataset maximum) while the **records** keep infinity.  The two
representations answer different questions and must not be mixed:

* interval membership (``record.interval_contains(lod)``) uses the
  record's real ``[e, inf)`` — correct at any ``lod``;
* index probes must clamp their query height to ``min(lod, e_cap)``,
  because a probe above ``e_cap`` is above every indexed segment and
  returns nothing.

The query processors (:mod:`repro.core.query`, the only code that
probes the R*-tree) and the engine's request planners do the clamp;
any new access path must too, or queries with ``lod > e_cap`` silently
return an empty mesh instead of the base mesh.

The store exposes the three query processors of
:mod:`repro.core.query` as methods.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.clusters import (
    DEFAULT_CLUSTER_NODES,
    ClusterDirectory,
    ClusterSet,
    build_cluster_runs,
)
from repro.core.connectivity import build_connection_lists
from repro.core.cost_model import MultiBasePlan, RTreeCostModel
from repro.core.query import (
    DMQueryResult,
    multi_base_query,
    single_base_query,
    uniform_query,
)
from repro.errors import QueryError, StorageError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Box3, Rect
from repro.index.btree import BPlusTree
from repro.index.rstar import RStarTree, str_order
from repro.mesh.progressive import LOD_INFINITY, ProgressiveMesh
from repro.storage.database import Database
from repro.storage.heapfile import HeapFile
from repro.storage.record import (
    DMNodeRecord,
    decode_dm_node,
    encode_dm_node,
)

__all__ = ["DirectMeshStore", "DMBuildReport"]

_META_FILE = "dm_meta.json"


@dataclass(frozen=True)
class DMBuildReport:
    """Sizes recorded while building a store (storage-overhead bench)."""

    n_nodes: int
    heap_pages: int
    index_pages: int
    btree_pages: int
    total_record_bytes: int
    total_connection_entries: int
    cluster_pages: int = 0

    @property
    def avg_connections(self) -> float:
        """Mean similar-LOD connection-list length."""
        if self.n_nodes == 0:
            return 0.0
        return self.total_connection_entries / self.n_nodes


class DirectMeshStore:
    """Direct Mesh data resident in a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        heap: HeapFile,
        rtree: RStarTree,
        btree: BPlusTree,
        max_lod: float,
        e_cap: float,
        clusters: ClusterSet,
        build_report: DMBuildReport | None = None,
        prefix: str = "dm",
    ) -> None:
        self.database = database
        self.heap = heap
        self.rtree = rtree
        self.btree = btree
        self.max_lod = max_lod
        self.e_cap = e_cap
        self.build_report = build_report
        #: The segment-name prefix the store's data lives under.  For
        #: live-patched stores this is the *epoch* prefix (e.g.
        #: ``dm@3``), not the logical one — see :mod:`repro.core.mutate`.
        self.prefix = prefix
        #: The cluster section: Hilbert-ordered node clusters as
        #: contiguous page runs (:mod:`repro.core.clusters`).
        self.clusters = clusters
        # Node-extent statistics live in the in-memory catalog (the
        # paper reads them "from the R-tree index"); computing them
        # here keeps measured queries free of catalog I/O.
        self.cost_model = RTreeCostModel(rtree.node_stats())

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        pm: ProgressiveMesh,
        database: Database,
        connections: dict[int, list[int]] | None = None,
        prefix: str = "dm",
        bulk_index: bool = True,
        compress_connections: bool = False,
        cluster_nodes: int = DEFAULT_CLUSTER_NODES,
    ) -> "DirectMeshStore":
        """Materialise a Direct Mesh store from a normalised PM.

        Args:
            pm: the progressive mesh (``normalize_lod()`` already run).
            database: target database.
            connections: precomputed connection lists (else computed).
            prefix: segment name prefix (several stores can share a
                database).
            bulk_index: STR-pack the R*-tree (fast, well-packed); set
                false to exercise dynamic R* insertion.
            compress_connections: store connection lists delta+varint
                coded (extension; smaller records, same query results).
            cluster_nodes: target size, in nodes, of the clusters the
                engine's fast path reads as contiguous page runs.
        """
        if not pm.is_normalized:
            raise QueryError("progressive mesh must be normalised")
        if connections is None:
            connections = build_connection_lists(pm)
        return cls.materialize(
            database,
            pm.nodes,
            connections,
            pm.max_lod(),
            prefix=prefix,
            bulk_index=bulk_index,
            compress_connections=compress_connections,
            cluster_nodes=cluster_nodes,
        )

    @classmethod
    def materialize(
        cls,
        database: Database,
        nodes: list,
        connections: dict[int, list[int]],
        max_lod: float,
        prefix: str = "dm",
        bulk_index: bool = True,
        compress_connections: bool = False,
        cluster_nodes: int = DEFAULT_CLUSTER_NODES,
    ) -> "DirectMeshStore":
        """Materialise a store from bare nodes + connection lists.

        The workhorse behind :meth:`build`, split out so the live
        mutation layer (:mod:`repro.core.mutate`) can materialise a
        *forest* — per-tile PM trees merged under globally remapped
        ids — which :class:`~repro.mesh.progressive.ProgressiveMesh`
        would reject (its validation requires positional ids).  The
        nodes must already carry Section-4 normalised ``e``/``e_high``
        values; ``max_lod`` is the maximum over the whole node set.
        """
        e_cap = max_lod * 1.05 + 1.0

        heap = HeapFile(database.segment(f"{prefix}_nodes"))
        rtree = RStarTree(database.segment(f"{prefix}_rtree"))
        btree = BPlusTree(database.segment(f"{prefix}_btree"))

        # Cluster the heap by the 3D index: records are inserted in the
        # STR packing order of their (x, y, e) segments, so each R*-tree
        # leaf's RIDs occupy contiguous pages (a clustered primary
        # index).  This is the strongest "(x, y) clustering preserved"
        # arrangement for DM's access path.
        boxes = []
        for node in nodes:
            e_high = node.e_high if node.e_high != LOD_INFINITY else e_cap
            boxes.append(
                Box3.vertical_segment(node.x, node.y, node.e, e_high)
            )
        ordered = [nodes[i] for i in str_order(boxes)]

        total_bytes = 0
        total_conn = 0
        entries: list[tuple[Box3, int]] = []
        id_to_rid: list[tuple[int, int]] = []
        payloads: list[bytes] = []
        for node in ordered:
            conn = connections.get(node.id, [])
            payload = encode_dm_node(node, conn, compress=compress_connections)
            total_bytes += len(payload)
            total_conn += len(conn)
            rid = heap.insert(payload)
            id_to_rid.append((node.id, rid))
            payloads.append(payload)
            e_high = node.e_high if node.e_high != LOD_INFINITY else e_cap
            entries.append(
                (Box3.vertical_segment(node.x, node.y, node.e, e_high), rid)
            )

        if bulk_index:
            rtree.bulk_load(entries)
        else:
            for box, rid in entries:
                rtree.insert(box, rid)
        btree.bulk_load(sorted(id_to_rid))

        directory = build_cluster_runs(
            database, prefix, ordered, payloads, e_cap,
            cluster_nodes=cluster_nodes,
        )
        directory.save(database, prefix)
        clusters = ClusterSet(database.segment(directory.segment), directory)

        report = DMBuildReport(
            n_nodes=len(nodes),
            heap_pages=heap.n_pages,
            index_pages=database.segment_pages(f"{prefix}_rtree"),
            btree_pages=database.segment_pages(f"{prefix}_btree"),
            total_record_bytes=total_bytes,
            total_connection_entries=total_conn,
            cluster_pages=database.segment_pages(directory.segment),
        )
        cls._save_meta(database, prefix, max_lod, e_cap)
        database.buffer.flush_dirty()
        return cls(
            database, heap, rtree, btree, max_lod, e_cap, clusters,
            build_report=report, prefix=prefix,
        )

    @classmethod
    def open(cls, database: Database, prefix: str = "dm") -> "DirectMeshStore":
        """Open a previously built store."""
        meta_path = database.path / f"{prefix}_{_META_FILE}"
        if not meta_path.exists():
            raise StorageError(f"no Direct Mesh store at {meta_path}")
        with open(meta_path, "r", encoding="ascii") as f:
            meta = json.load(f)
        heap = HeapFile(database.segment(f"{prefix}_nodes"))
        rtree = RStarTree(database.segment(f"{prefix}_rtree"))
        btree = BPlusTree(database.segment(f"{prefix}_btree"))
        directory = ClusterDirectory.load(database, prefix)
        clusters = ClusterSet(database.segment(directory.segment), directory)
        return cls(
            database, heap, rtree, btree, meta["max_lod"], meta["e_cap"],
            clusters, prefix=prefix,
        )

    @staticmethod
    def _save_meta(
        database: Database,
        prefix: str,
        max_lod: float,
        e_cap: float,
    ) -> None:
        # "format" is informational (3 = with the cluster section);
        # readers never require the key.
        meta = {"max_lod": max_lod, "e_cap": e_cap, "format": 3}
        meta_path = database.path / f"{prefix}_{_META_FILE}"
        with open(meta_path, "w", encoding="ascii") as f:
            json.dump(meta, f)

    # -- record access ----------------------------------------------------------

    def get_node(self, node_id: int) -> DMNodeRecord | None:
        """Point lookup through the id B+-tree."""
        rid = self.btree.get(node_id)
        if rid is None:
            return None
        return decode_dm_node(self.heap.read(rid))

    # -- queries -------------------------------------------------------------------

    def uniform_query(self, roi: Rect, lod: float) -> DMQueryResult:
        """Viewpoint-independent query (paper Section 5.1)."""
        return uniform_query(self, roi, lod)

    def single_base_query(self, plane: QueryPlane) -> DMQueryResult:
        """Viewpoint-dependent query, Algorithm 1 (Section 5.2)."""
        return single_base_query(self, plane)

    def multi_base_query(
        self, plane: QueryPlane, plan: MultiBasePlan | None = None
    ) -> DMQueryResult:
        """Viewpoint-dependent query, multi-base plan (Section 5.3).

        ``plan`` overrides the cost-model optimiser (used by the
        multi-base ablation to force specific strip counts).
        """
        return multi_base_query(self, plane, plan)
