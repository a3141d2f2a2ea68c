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
4. the same records are packed a second time, as columns, into
   cluster runs (:mod:`repro.core.clusters`), the copy the engine
   serves from: each cluster is one STR tile of the same segments at
   128 nodes, so the serving copy keeps the heap's ``(x, y, e)``
   clustering.

Those three segments and two JSON sidecars are a store epoch, and
:func:`epoch_files` is the one list of them.  The paper's "B+-trees
wherever necessary" is the PM baseline's node-id lookup
(:mod:`repro.baselines.pm_db`): every Direct Mesh query is an R*-tree
range search, so a DM store keeps no id index.

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
from typing import NamedTuple

from repro.core.clusters import (
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
from repro.index.rstar import RStarTree, str_order
from repro.mesh.progressive import LOD_INFINITY, ProgressiveMesh
from repro.storage.database import Database, epoch_prefix
from repro.storage.heapfile import HeapFile
from repro.storage.record import encode_dm_node

__all__ = ["DirectMeshStore", "DMBuildReport", "EpochFiles", "epoch_files"]


class EpochFiles(NamedTuple):
    """The files of one store epoch: three segments, two sidecars."""

    #: The record heap (the reference copy).
    nodes: str
    #: The 3D R*-tree over the records' ``(x, y, e)`` segments.
    rtree: str
    #: The cluster runs (the serving copy).
    cruns: str
    #: The store metadata sidecar (``max_lod``, ``e_cap``).
    meta: str
    #: The cluster directory sidecar.
    directory: str

    @property
    def segments(self) -> tuple[str, ...]:
        """The segment names."""
        return (self.nodes, self.rtree, self.cruns)

    @property
    def sidecars(self) -> tuple[str, ...]:
        """The sidecar file names."""
        return (self.meta, self.directory)


def epoch_files(prefix: str) -> EpochFiles:
    """Name the files of the store epoch whose physical prefix is
    ``prefix`` (``dm``, or ``dm@3`` for a patched epoch: see
    :func:`~repro.storage.database.epoch_prefix`).

    The one list of what a store epoch is: the builder writes exactly
    these, a patch transaction stages and logs exactly these, and a
    restaged epoch clears exactly these.  Any other file beside them
    (such as the id B+-tree segment an older build wrote) is ignored.
    """
    return EpochFiles(
        nodes=f"{prefix}_nodes",
        rtree=f"{prefix}_rtree",
        cruns=f"{prefix}_cruns",
        meta=f"{prefix}_dm_meta.json",
        directory=f"{prefix}_clusters.json",
    )


@dataclass(frozen=True)
class DMBuildReport:
    """Sizes recorded while building a store (storage-overhead bench)."""

    n_nodes: int
    heap_pages: int
    index_pages: int
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
        max_lod: float,
        e_cap: float,
        clusters: ClusterSet,
        build_report: DMBuildReport | None = None,
        prefix: str = "dm",
    ) -> None:
        self.database = database
        self.heap = heap
        self.rtree = rtree
        self.max_lod = max_lod
        self.e_cap = e_cap
        self.build_report = build_report
        #: The segment-name prefix the store's data lives under.  For
        #: live-patched stores this is the *epoch* prefix (e.g.
        #: ``dm@3``), not the logical one — see :mod:`repro.core.mutate`.
        self.prefix = prefix
        #: The cluster section: STR tiles of the nodes' ``(x, y, e)``
        #: segments as contiguous page runs (:mod:`repro.core.clusters`).
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
        compress_connections: bool = False,
    ) -> "DirectMeshStore":
        """Materialise a Direct Mesh store from a normalised PM.

        The heap is written in STR order and the R*-tree is STR-packed
        over it once (:meth:`~repro.index.rstar.RStarTree.bulk_load`);
        nothing updates the store in place afterwards.

        Args:
            pm: the progressive mesh (``normalize_lod()`` already run).
            database: target database.
            connections: precomputed connection lists (else computed).
            prefix: segment name prefix (several stores can share a
                database).
            compress_connections: store the heap's connection lists
                delta+varint coded (extension; smaller records, same
                query results).  It shapes the heap only: cluster runs
                always hold plain ``<i4`` lists, so the serving copy
                is byte-identical either way.
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
            compress_connections=compress_connections,
        )

    @classmethod
    def materialize(
        cls,
        database: Database,
        nodes: list,
        connections: dict[int, list[int]],
        max_lod: float,
        prefix: str = "dm",
        compress_connections: bool = False,
    ) -> "DirectMeshStore":
        """Materialise a store from bare nodes + connection lists.

        The workhorse behind :meth:`build`, split out so the live
        mutation layer (:mod:`repro.core.mutate`) can materialise a
        *forest* — per-tile PM trees merged under globally remapped
        ids — which :class:`~repro.mesh.progressive.ProgressiveMesh`
        would reject (its validation requires positional ids).  The
        nodes must already carry Section-4 normalised ``e``/``e_high``
        values; ``max_lod`` is the maximum over the whole node set.
        Writes exactly the files :func:`epoch_files` names.
        """
        e_cap = max_lod * 1.05 + 1.0
        files = epoch_files(prefix)

        heap = HeapFile(database.segment(files.nodes))
        rtree = RStarTree(database.segment(files.rtree))

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
        order = str_order(boxes)
        ordered = [nodes[i] for i in order]
        boxes = [boxes[i] for i in order]

        total_conn = 0
        total_bytes = 0
        entries: list[tuple[Box3, int]] = []
        for node, box in zip(ordered, boxes):
            conn = connections.get(node.id, [])
            payload = encode_dm_node(node, conn, compress=compress_connections)
            total_conn += len(conn)
            total_bytes += len(payload)
            entries.append((box, heap.insert(payload)))

        rtree.bulk_load(entries)

        directory = build_cluster_runs(
            database, files.cruns, ordered, boxes, connections
        )
        directory.save(database.path / files.directory)
        clusters = ClusterSet(database.segment(directory.segment), directory)

        report = DMBuildReport(
            n_nodes=len(nodes),
            heap_pages=heap.n_pages,
            index_pages=database.segment_pages(files.rtree),
            total_record_bytes=total_bytes,
            total_connection_entries=total_conn,
            cluster_pages=database.segment_pages(directory.segment),
        )
        # "format" is informational (3 = with the cluster section);
        # readers never require the key.
        meta = {"max_lod": max_lod, "e_cap": e_cap, "format": 3}
        with open(database.path / files.meta, "w", encoding="ascii") as f:
            json.dump(meta, f)
        database.buffer.flush_dirty()
        return cls(
            database, heap, rtree, max_lod, e_cap, clusters,
            build_report=report, prefix=prefix,
        )

    @classmethod
    def open(cls, database: Database, prefix: str = "dm") -> "DirectMeshStore":
        """Open the store epoch whose physical prefix is ``prefix``."""
        files = epoch_files(prefix)
        meta_path = database.path / files.meta
        if not meta_path.exists():
            raise StorageError(f"no Direct Mesh store at {meta_path}")
        with open(meta_path, "r", encoding="ascii") as f:
            meta = json.load(f)
        heap = HeapFile(database.segment(files.nodes))
        rtree = RStarTree(database.segment(files.rtree))
        directory = ClusterDirectory.load(database.path / files.directory)
        clusters = ClusterSet(database.segment(directory.segment), directory)
        return cls(
            database, heap, rtree, meta["max_lod"], meta["e_cap"],
            clusters, prefix=prefix,
        )

    @classmethod
    def open_committed(
        cls, database: Database, prefix: str = "dm"
    ) -> tuple["DirectMeshStore", int]:
        """Open store ``prefix`` at its committed epoch.

        Returns the store and that epoch, which an engine serving the
        store takes as its ``epoch``.  A never-patched store is epoch 0
        under the plain prefix; a patched one lives under
        ``epoch_prefix(prefix, epoch)``, and :meth:`open` of the plain
        prefix would read epoch 0's segments instead.
        """
        epoch = database.store_epoch(prefix)
        return cls.open(database, epoch_prefix(prefix, epoch)), epoch

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
