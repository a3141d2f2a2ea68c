"""The Direct Mesh store: DM node records as cluster runs in a database.

Building a Direct Mesh (paper Section 4) from a normalised progressive
mesh:

1. every node gets its similar-LOD connection-point list
   (:mod:`repro.core.connectivity`);
2. each node becomes the vertical segment
   ``<(x, y, e_low), (x, y, e_high)>`` in ``(x, y, e)`` space;
3. the records (PM tuple + connection list) are packed, as columns,
   into cluster runs (:mod:`repro.core.clusters`): each cluster is one
   sort-tile-recursive tile of the segments at 128 nodes, so the runs
   keep the paper's ``(x, y)`` clustering and add a narrow LOD band;
4. the paper's 3D R*-tree indexes the clusters' extents (each the
   union of its members' segments): one entry per cluster, a page or
   two for the whole store.

The run segment — its first pages hold the store metadata
(``max_lod``, ``e_cap``) and the cluster directory, the rest the runs —
and the extent R*-tree are a store epoch, and :func:`epoch_files` is
the one list of them: an epoch is its segments, so the page checksums,
the write-ahead log and the segment fsyncs cover all of it.  Each
record is stored once.  The paper's processors
(:mod:`repro.core.query`) probe the R*-tree, read the selected runs
and keep the rows whose segment meets the query box, so a range query
pays the paper's index pages plus run pages; the engine selects from
the same extents held in memory
(:class:`~repro.core.clusters.ClusterIndex`).  The paper's per-node
layout (a record heap under a per-node R*-tree) is a baseline
(:mod:`repro.baselines.paper_layout`) that no epoch writes.  Every
Direct Mesh query is a range query, so a store keeps no id index.

``e_cap`` — index vs record semantics
-------------------------------------

The paper gives root nodes the LOD interval ``[e, inf)``: a root is
part of *every* approximation coarser than its own error.  An R*-tree
cannot index an unbounded segment, so the **index** (each cluster's
extent) caps root segments at ``e_cap = max_lod * 1.05 + 1`` (a
finite height just above the dataset maximum) while the **records**
keep infinity.  The two representations answer different questions
and must not be mixed:

* interval membership (``record.interval_contains(lod)``) uses the
  record's real ``[e, inf)`` — correct at any ``lod``;
* range probes must clamp their query height to ``min(lod, e_cap)``,
  because a probe above ``e_cap`` is above every indexed segment and
  returns nothing.

The query processors (:mod:`repro.core.query`, the only code that
probes the R*-tree) and the engine's request planners do the clamp;
any new access path must too, or queries with ``lod > e_cap``
silently return an empty mesh instead of the base mesh.

The store exposes the three query processors of
:mod:`repro.core.query` as methods.
"""

from __future__ import annotations

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

__all__ = ["DirectMeshStore", "DMBuildReport", "EpochFiles", "epoch_files"]


class EpochFiles(NamedTuple):
    """The segments of one store epoch."""

    #: The store metadata and cluster directory, then the cluster runs
    #: (the records).
    cruns: str
    #: The R*-tree over the clusters' ``(x, y, e)`` extents.
    ctree: str

    @property
    def segments(self) -> tuple[str, ...]:
        """The segment names."""
        return (self.cruns, self.ctree)


def epoch_files(prefix: str) -> EpochFiles:
    """Name the files of the store epoch whose physical prefix is
    ``prefix`` (``dm``, or ``dm@3`` for a patched epoch: see
    :func:`~repro.storage.database.epoch_prefix`).

    The one list of what a store epoch is: the builder writes exactly
    these, a patch transaction stages, logs and fsyncs exactly these
    before its epoch flip, and ``fsck`` finds epochs by their names.
    Any other file beside them (such as the record heap, R*-tree or id
    B+-tree segment an older build wrote) is ignored.
    """
    return EpochFiles(cruns=f"{prefix}_cruns", ctree=f"{prefix}_ctree")


@dataclass(frozen=True)
class DMBuildReport:
    """Sizes recorded while building a store."""

    n_nodes: int
    total_connection_entries: int
    #: Pages of the run segment: the directory's, then the runs'.
    cluster_pages: int

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
        clusters: ClusterSet,
        cluster_tree: RStarTree,
        build_report: DMBuildReport | None = None,
        prefix: str = "dm",
    ) -> None:
        self.database = database
        self.max_lod = clusters.directory.max_lod
        self.e_cap = clusters.directory.e_cap
        self.build_report = build_report
        #: The segment-name prefix the store's data lives under.  For
        #: live-patched stores this is the *epoch* prefix (e.g.
        #: ``dm@3``), not the logical one — see :mod:`repro.core.mutate`.
        self.prefix = prefix
        #: The records: STR tiles of the nodes' ``(x, y, e)`` segments
        #: as contiguous page runs (:mod:`repro.core.clusters`).
        self.clusters = clusters
        #: The paper's R*-tree, over the clusters' extents (payload:
        #: cluster id); the paper's processors probe it.
        self.cluster_tree = cluster_tree
        # The extent statistics come from the in-memory directory (the
        # paper reads them "from the R-tree index"), so measured
        # queries pay no catalog I/O.
        self.cost_model = RTreeCostModel(
            clusters.index.extent_stats(), self.e_cap
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        pm: ProgressiveMesh,
        database: Database,
        connections: dict[int, list[int]] | None = None,
        prefix: str = "dm",
    ) -> "DirectMeshStore":
        """Materialise a Direct Mesh store from a normalised PM.

        The runs and the R*-tree over their extents are written once;
        nothing updates the store in place afterwards.

        Args:
            pm: the progressive mesh (``normalize_lod()`` already run).
            database: target database.
            connections: precomputed connection lists (else computed).
            prefix: segment name prefix (several stores can share a
                database).
        """
        if not pm.is_normalized:
            raise QueryError("progressive mesh must be normalised")
        if connections is None:
            connections = build_connection_lists(pm)
        return cls.materialize(
            database, pm.nodes, connections, pm.max_lod(), prefix=prefix
        )

    @classmethod
    def materialize(
        cls,
        database: Database,
        nodes: list,
        connections: dict[int, list[int]],
        max_lod: float,
        prefix: str = "dm",
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

        # The nodes' indexed (x, y, e) segments, in STR packing order:
        # the clusters are STR tiles of this sequence.
        boxes = []
        for node in nodes:
            e_high = node.e_high if node.e_high != LOD_INFINITY else e_cap
            boxes.append(
                Box3.vertical_segment(node.x, node.y, node.e, e_high)
            )
        order = str_order(boxes)
        directory = build_cluster_runs(
            database,
            files.cruns,
            [nodes[i] for i in order],
            [boxes[i] for i in order],
            connections,
            max_lod,
            e_cap,
        )
        clusters = ClusterSet(database.segment(files.cruns), directory)
        cluster_tree = RStarTree(database.segment(files.ctree))
        cluster_tree.bulk_load(
            [(meta.box, meta.cluster_id) for meta in directory.clusters]
        )

        report = DMBuildReport(
            n_nodes=len(nodes),
            total_connection_entries=sum(
                len(connections.get(node.id, [])) for node in nodes
            ),
            cluster_pages=database.segment_pages(files.cruns),
        )
        database.buffer.flush_dirty()
        return cls(
            database, clusters, cluster_tree,
            build_report=report, prefix=prefix,
        )

    @classmethod
    def open(cls, database: Database, prefix: str = "dm") -> "DirectMeshStore":
        """Open the store epoch whose physical prefix is ``prefix``."""
        files = epoch_files(prefix)
        missing = set(files.segments) - set(database.segment_names())
        if missing:
            raise StorageError(
                f"store segments {sorted(missing)} missing; rebuild the store"
            )
        segment = database.segment(files.cruns)
        clusters = ClusterSet(segment, ClusterDirectory.read(segment))
        return cls(
            database, clusters, RStarTree(database.segment(files.ctree)),
            prefix=prefix,
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
