"""The serving layout: batched DM node clusters as contiguous page runs.

Per-node traversal is a serving bottleneck: every query pays one
R*-tree descent over thousands of tiny entries, per-page buffer-pool
traffic, and per-cube cache decisions.
Batched Multi-Triangulation / Nanite-style systems replace those with
*cluster*-granular decisions: group nodes into fixed-size clusters
whose ``(x, y, e)`` extents form a cut over the DM DAG, and make the
cluster — not the node — the unit of selection, I/O, and caching.

At build time (:func:`build_cluster_runs`):

1. DM nodes are ordered along a Hilbert curve over ``(x, y)``
   (:mod:`repro.geometry.spacefill`) so consecutive nodes are spatial
   neighbours, then chunked into clusters of
   :data:`DEFAULT_CLUSTER_NODES` nodes;
2. each cluster's records are packed into one *blob*
   (:func:`encode_cluster_blob`) and written as a contiguous run of
   pages in the ``{prefix}_cruns`` segment — one sequential physical
   read (:meth:`~repro.storage.database.Segment.read_run`) fetches a
   whole cluster, and the blob decodes straight into the existing
   columnar kernels (:func:`~repro.storage.record.decode_dm_nodes_columnar`);
3. the per-cluster ``(x, y, e)`` extents — unions of the members'
   *indexed* (``e_cap``-capped) vertical segments — are persisted in a
   JSON directory sidecar (:class:`ClusterDirectory`).

At query time the in-memory :class:`ClusterIndex` answers a query cube
with candidate cluster ids in one vectorized intersection test.  Any
node whose capped segment intersects the (clamped) probe box lies in a
cluster whose extent intersects it too — extents are unions of member
segments — so filtering the union of candidate clusters with the
per-request predicates returns exactly the nodes the R*-tree path
returns.  The per-node path is the paper's processors in
:mod:`repro.core.query` (``store.uniform_query`` and friends): the
reference the engine is held to, not something the engine runs.

The record bytes in cluster runs duplicate the heap file (a covering,
batched copy — the classic clustered-projection trade): the heap +
R*-tree remain the source of truth for the reference processors and
rebuilds, and :func:`~repro.core.verify_store.verify_store` checks the
runs against the heap record for record.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import StorageError
from repro.geometry.primitives import Box3, Rect
from repro.geometry.spacefill import hilbert_key, normalized_quantizer
from repro.storage.database import Database, Segment
from repro.storage.record import DMNodeColumns, decode_dm_nodes_columnar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mesh.progressive import PMNode

__all__ = [
    "DEFAULT_CLUSTER_NODES",
    "CLUSTER_DIRECTORY_VERSION",
    "ClusterMeta",
    "ClusterDirectory",
    "ClusterIndex",
    "ClusterSet",
    "encode_cluster_blob",
    "decode_cluster_blob",
    "build_cluster_runs",
    "intersecting_rows",
]

#: Target nodes per cluster (the Batched-MT sweet spot: large enough
#: to amortise one physical read and one decode, small enough that a
#: query's overfetch stays bounded).
DEFAULT_CLUSTER_NODES = 128

#: Schema version of the JSON directory sidecar.
CLUSTER_DIRECTORY_VERSION = 1

_BLOB_HEADER = struct.Struct("<4sI")
_BLOB_MAGIC = b"DMC1"
_LEN_ENTRY = struct.Struct("<I")


# -- blob codec --------------------------------------------------------------


def encode_cluster_blob(payloads: Sequence[bytes]) -> bytes:
    """Pack DM record payloads into one self-describing cluster blob.

    Layout: magic ``DMC1``, u32 record count, ``count`` u32 record
    lengths, then the record payloads back to back.  Decoding slices
    the payload list back out (:func:`decode_cluster_blob`) and feeds
    it to the shared columnar decoder, so the record bytes themselves
    stay format-identical to the heap file's.
    """
    head = _BLOB_HEADER.pack(_BLOB_MAGIC, len(payloads))
    lengths = struct.pack(f"<{len(payloads)}I", *(len(p) for p in payloads))
    return head + lengths + b"".join(payloads)


def decode_cluster_blob(blob: bytes) -> list[bytes]:
    """Unpack a cluster blob back into its record payloads.

    Strict: the magic, the length table, and the byte count must all
    agree (``fsck`` decodes runs through this to verify directory
    consistency); trailing bytes are an error — callers slice the run
    to the directory's ``n_bytes`` first.
    """
    if len(blob) < _BLOB_HEADER.size:
        raise StorageError(
            f"cluster blob is {len(blob)} bytes, below header "
            f"{_BLOB_HEADER.size}"
        )
    magic, count = _BLOB_HEADER.unpack_from(blob, 0)
    if magic != _BLOB_MAGIC:
        raise StorageError(f"bad cluster blob magic {magic!r}")
    table_end = _BLOB_HEADER.size + count * _LEN_ENTRY.size
    if len(blob) < table_end:
        raise StorageError(
            f"cluster blob truncated in length table "
            f"({len(blob)}/{table_end} bytes)"
        )
    lengths = struct.unpack_from(f"<{count}I", blob, _BLOB_HEADER.size)
    payloads: list[bytes] = []
    offset = table_end
    for length in lengths:
        end = offset + length
        if end > len(blob):
            raise StorageError(
                f"cluster blob truncated in records "
                f"({end} > {len(blob)} bytes)"
            )
        payloads.append(blob[offset:end])
        offset = end
    if offset != len(blob):
        raise StorageError(
            f"cluster blob has {len(blob) - offset} trailing bytes"
        )
    return payloads


def intersecting_rows(
    columns: DMNodeColumns, box: Box3, e_cap: float
) -> np.ndarray:
    """Mask of rows whose capped indexed segment intersects ``box``.

    Exactly the predicate the R*-tree leaf scan applies (closed
    boundaries, ``e_high`` capped at ``e_cap`` like the tree entries),
    so narrowing a decoded cluster batch with this mask yields the
    same row set an index probe of ``box`` retrieves — what keeps the
    clustered path's ``retrieved`` accounting (and its semantic-cache
    cubes) identical to the oracle's.
    """
    return (
        (columns.x >= box.min_x)
        & (columns.x <= box.max_x)
        & (columns.y >= box.min_y)
        & (columns.y <= box.max_y)
        & (columns.e_low <= box.max_e)
        & (np.minimum(columns.e_high, e_cap) >= box.min_e)
    )


# -- directory ---------------------------------------------------------------


@dataclass(frozen=True)
class ClusterMeta:
    """One cluster's placement and extent.

    The extent is the union of the members' *indexed* vertical
    segments — ``e_high`` capped at the store's ``e_cap`` exactly like
    the R*-tree entries — so cluster selection against a clamped probe
    box sees the same geometry the tree does.
    """

    cluster_id: int
    start_page: int
    n_pages: int
    n_bytes: int
    n_nodes: int
    min_x: float
    min_y: float
    min_e: float
    max_x: float
    max_y: float
    max_e: float

    @property
    def box(self) -> Box3:
        """The cluster extent as a :class:`Box3`."""
        return Box3(
            self.min_x, self.min_y, self.min_e,
            self.max_x, self.max_y, self.max_e,
        )


@dataclass
class ClusterDirectory:
    """The persisted cluster catalog of one store.

    A schema-versioned JSON sidecar (``{prefix}_clusters.json``, named
    by :func:`~repro.core.direct_mesh.epoch_files`) that is part of
    every store: one without it does not open (:meth:`load` raises
    :class:`~repro.errors.StorageError`).
    """

    segment: str
    cluster_nodes: int
    clusters: list[ClusterMeta]

    @property
    def total_nodes(self) -> int:
        """Sum of member counts across clusters."""
        return sum(c.n_nodes for c in self.clusters)

    @property
    def total_pages(self) -> int:
        """Sum of run lengths across clusters."""
        return sum(c.n_pages for c in self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def save(self, path: Path) -> None:
        """Write the sidecar at ``path`` (sorted keys, trailing newline)."""
        payload = {
            "version": CLUSTER_DIRECTORY_VERSION,
            "segment": self.segment,
            "cluster_nodes": self.cluster_nodes,
            "clusters": [
                {
                    "id": c.cluster_id,
                    "start_page": c.start_page,
                    "n_pages": c.n_pages,
                    "n_bytes": c.n_bytes,
                    "n_nodes": c.n_nodes,
                    "extent": [
                        c.min_x, c.min_y, c.min_e,
                        c.max_x, c.max_y, c.max_e,
                    ],
                }
                for c in self.clusters
            ],
        }
        path.write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="ascii"
        )

    @classmethod
    def load(cls, path: Path) -> "ClusterDirectory":
        """Read and validate the sidecar at ``path``."""
        if not path.exists():
            raise StorageError(
                "store has no cluster directory; rebuild the store",
                path=str(path),
            )
        try:
            payload = json.loads(path.read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"unreadable cluster directory: {exc}", path=str(path)
            ) from exc
        try:
            version = int(payload["version"])
            if version != CLUSTER_DIRECTORY_VERSION:
                raise StorageError(
                    f"cluster directory is version {version}, "
                    f"expected {CLUSTER_DIRECTORY_VERSION}",
                    path=str(path),
                )
            clusters = [
                ClusterMeta(
                    cluster_id=int(entry["id"]),
                    start_page=int(entry["start_page"]),
                    n_pages=int(entry["n_pages"]),
                    n_bytes=int(entry["n_bytes"]),
                    n_nodes=int(entry["n_nodes"]),
                    min_x=float(entry["extent"][0]),
                    min_y=float(entry["extent"][1]),
                    min_e=float(entry["extent"][2]),
                    max_x=float(entry["extent"][3]),
                    max_y=float(entry["extent"][4]),
                    max_e=float(entry["extent"][5]),
                )
                for entry in payload["clusters"]
            ]
            return cls(
                segment=str(payload["segment"]),
                cluster_nodes=int(payload["cluster_nodes"]),
                clusters=clusters,
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise StorageError(
                f"malformed cluster directory: {exc}", path=str(path)
            ) from exc


# -- query-time selection ----------------------------------------------------


class ClusterIndex:
    """Vectorized cluster selection over the directory's extents.

    One boolean-mask intersection test over per-axis min/max arrays
    answers a query cube with every cluster whose extent touches it.
    Comparisons are boundary-closed, matching
    :meth:`~repro.geometry.primitives.Box3.intersects` — selection may
    only ever be *more* inclusive than the R*-tree walk, never less,
    and the per-request filters restore exactness.
    """

    def __init__(self, directory: ClusterDirectory) -> None:
        self.directory = directory
        clusters = directory.clusters
        self._min_x = np.array([c.min_x for c in clusters], np.float64)
        self._min_y = np.array([c.min_y for c in clusters], np.float64)
        self._min_e = np.array([c.min_e for c in clusters], np.float64)
        self._max_x = np.array([c.max_x for c in clusters], np.float64)
        self._max_y = np.array([c.max_y for c in clusters], np.float64)
        self._max_e = np.array([c.max_e for c in clusters], np.float64)
        self._n_pages = np.array([c.n_pages for c in clusters], np.int64)
        #: The union of the directory's boxes — the terrain's extent in
        #: ``(x, y, e)``, every node being in some cluster — or ``None``
        #: for an empty store.
        self.extent: Box3 | None = None
        if clusters:
            self.extent = Box3(
                float(self._min_x.min()),
                float(self._min_y.min()),
                float(self._min_e.min()),
                float(self._max_x.max()),
                float(self._max_y.max()),
                float(self._max_e.max()),
            )

    def __len__(self) -> int:
        return len(self.directory)

    def _mask(self, box: Box3) -> np.ndarray:
        return (
            (self._min_x <= box.max_x) & (self._max_x >= box.min_x)
            & (self._min_y <= box.max_y) & (self._max_y >= box.min_y)
            & (self._min_e <= box.max_e) & (self._max_e >= box.min_e)
        )

    def candidates(self, box: Box3) -> list[int]:
        """Ids of clusters whose extent intersects ``box``."""
        return np.flatnonzero(self._mask(box)).tolist()

    def estimate_pages(self, box: Box3) -> float:
        """The serving estimator: predicted run pages a probe of
        ``box`` reads.

        The sum of candidate run lengths — exact when nothing is
        cached, an upper bound otherwise — floored at one page: even a
        miss pays a directory scan.  ``QueryEngine.submit`` charges the
        admission governor this, and ``bench.openloop.suggest_budget``
        sizes budgets in it, so admission is denominated in the I/O
        serving performs (the R*-tree DA formula prices the reference
        processors and the multi-base plan).
        """
        return max(1.0, float(self._n_pages[self._mask(box)].sum()))


class ClusterSet:
    """Runtime handle to one store's cluster section.

    Wraps the run segment and the loaded directory; :meth:`decode` is
    the cold path (one sequential run read + one columnar decode) that
    the engine's cluster cache sits in front of.
    """

    def __init__(self, segment: Segment, directory: ClusterDirectory) -> None:
        self.segment = segment
        self.directory = directory
        self.index = ClusterIndex(directory)

    def __len__(self) -> int:
        return len(self.directory)

    def meta(self, cluster_id: int) -> ClusterMeta:
        """Directory entry for ``cluster_id``."""
        if not 0 <= cluster_id < len(self.directory.clusters):
            raise StorageError(
                f"cluster {cluster_id} out of range "
                f"0..{len(self.directory.clusters) - 1}"
            )
        return self.directory.clusters[cluster_id]

    def read_blob(self, cluster_id: int) -> bytes:
        """The cluster's blob bytes via one sequential run read."""
        meta = self.meta(cluster_id)
        run = self.segment.read_run(meta.start_page, meta.n_pages)
        if len(run) < meta.n_bytes:
            raise StorageError(
                f"cluster {cluster_id} run holds {len(run)} bytes, "
                f"directory claims {meta.n_bytes}"
            )
        return run[:meta.n_bytes]

    def decode(self, cluster_id: int) -> DMNodeColumns:
        """Bulk-decode one cluster into a columnar page."""
        payloads = decode_cluster_blob(self.read_blob(cluster_id))
        meta = self.meta(cluster_id)
        if len(payloads) != meta.n_nodes:
            raise StorageError(
                f"cluster {cluster_id} decodes to {len(payloads)} nodes, "
                f"directory claims {meta.n_nodes}"
            )
        return decode_dm_nodes_columnar(payloads)


# -- build -------------------------------------------------------------------


def _hilbert_order(
    nodes: Sequence["PMNode"], bits: int = 16
) -> list[int]:
    """Indices of ``nodes`` sorted by Hilbert key over ``(x, y)``."""
    min_x = min(n.x for n in nodes)
    max_x = max(n.x for n in nodes)
    min_y = min(n.y for n in nodes)
    max_y = max(n.y for n in nodes)
    quantize: Callable[[float, float], tuple[int, int]]
    quantize = normalized_quantizer(Rect(min_x, min_y, max_x, max_y), bits)
    keys = [hilbert_key(*quantize(n.x, n.y), bits) for n in nodes]
    return sorted(range(len(nodes)), key=lambda i: keys[i])


def build_cluster_runs(
    database: Database,
    segment_name: str,
    nodes: Sequence["PMNode"],
    payloads: Sequence[bytes],
    e_cap: float,
    cluster_nodes: int = DEFAULT_CLUSTER_NODES,
) -> ClusterDirectory:
    """Materialise the cluster section for an already-encoded node set.

    ``nodes`` and ``payloads`` are aligned (the record bytes the heap
    insert used, so both copies are byte-identical).  Nodes are
    Hilbert-ordered over ``(x, y)``, chunked into clusters of
    ``cluster_nodes``, and each cluster's blob is written as a
    contiguous page run in the segment ``segment_name``.  The writes
    ride the pager like every other build write — sealed under the v2
    page format, WAL-logged inside an ``atomic()`` scope.

    Returns the directory; the caller persists it
    (:meth:`ClusterDirectory.save`) alongside the store metadata.
    """
    from repro.mesh.progressive import LOD_INFINITY

    if cluster_nodes < 1:
        raise StorageError(
            f"cluster_nodes must be >= 1, got {cluster_nodes}"
        )
    if len(nodes) != len(payloads):
        raise StorageError(
            f"{len(nodes)} nodes but {len(payloads)} payloads"
        )
    segment = database.segment(segment_name)
    payload_size = segment.payload_size
    clusters: list[ClusterMeta] = []
    if nodes:
        order = _hilbert_order(nodes)
        for cluster_id, chunk_start in enumerate(
            range(0, len(order), cluster_nodes)
        ):
            chunk = order[chunk_start:chunk_start + cluster_nodes]
            blob = encode_cluster_blob([payloads[i] for i in chunk])
            start_page = segment.n_pages
            for off in range(0, len(blob), payload_size):
                piece = blob[off:off + payload_size]
                _, buf = segment.allocate()
                buf[:len(piece)] = piece
            members = [nodes[i] for i in chunk]
            e_highs = [
                e_cap if m.e_high == LOD_INFINITY else m.e_high
                for m in members
            ]
            clusters.append(
                ClusterMeta(
                    cluster_id=cluster_id,
                    start_page=start_page,
                    n_pages=segment.n_pages - start_page,
                    n_bytes=len(blob),
                    n_nodes=len(chunk),
                    min_x=min(m.x for m in members),
                    min_y=min(m.y for m in members),
                    min_e=min(m.e for m in members),
                    max_x=max(m.x for m in members),
                    max_y=max(m.y for m in members),
                    max_e=max(e_highs),
                )
            )
    return ClusterDirectory(
        segment=segment_name,
        cluster_nodes=cluster_nodes,
        clusters=clusters,
    )
