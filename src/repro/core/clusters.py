"""The serving layout: batched DM node clusters as contiguous page runs.

Per-node traversal is a serving bottleneck: every query pays one
R*-tree descent over thousands of tiny entries, per-page buffer-pool
traffic, and per-cube cache decisions.
Batched Multi-Triangulation / Nanite-style systems replace those with
*cluster*-granular decisions: group nodes into fixed-size clusters
whose ``(x, y, e)`` extents form a cut over the DM DAG, and make the
cluster — not the node — the unit of selection, I/O, and caching.

At build time (:func:`build_cluster_runs`):

1. DM nodes are grouped into clusters of at most
   :data:`DEFAULT_CLUSTER_NODES` nodes, each one sort-tile-recursive
   tile of their capped ``(x, y, e)`` segments
   (:func:`~repro.index.rstar.str_groups`, the tiling the heap order
   and the R*-tree's leaves use) — so a cluster spans a narrow LOD
   band as well as a small ``(x, y)`` area, and a query plane at one
   LOD misses the clusters of other bands under its ROI;
2. each cluster is packed into one *blob* (:func:`encode_cluster_blob`)
   holding its :class:`~repro.storage.record.DMNodeColumns` arrays
   column after column, and written as a contiguous run of pages in
   the ``{prefix}_cruns`` segment — one sequential physical read
   (:meth:`~repro.storage.database.Segment.read_run`) fetches a whole
   cluster, and :func:`decode_cluster_blob` turns it into columns with
   one ``np.frombuffer`` per array and no per-row work;
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

Cluster runs are a *columnar* copy of the heap file's records (a
covering, batched copy — the classic clustered-projection trade): the
same field values and connection lists, stored as arrays rather than
records.  The heap + R*-tree remain the source of truth for the
reference processors and rebuilds.  :meth:`ClusterSet.problems` checks
the run layout, and ``fsck`` (:mod:`repro.core.verify_store`) checks
the runs against the heap record for record.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Mapping, Sequence

import numpy as np

from repro.errors import StorageError
from repro.geometry.primitives import Box3, union_all_boxes
from repro.index.rstar import str_groups
from repro.storage.database import Database, Segment
from repro.storage.record import _COMPRESSED_CONN, DMNodeColumns

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

#: Schema version of the JSON directory sidecar (2: columnar blobs).
CLUSTER_DIRECTORY_VERSION = 2

#: Magic, row count, connection entries, reserved (must be 0).
_BLOB_HEADER = struct.Struct("<4sIII")
_BLOB_MAGIC = b"DMC2"
#: The per-row columns in blob order: a block of ``<f8`` columns, then
#: one of ``<i4`` columns, then ``n_conn`` — widest first, so every
#: column starts at a multiple of its item size.
_F8_COLUMNS = ("x", "y", "z", "e_low", "e_high")
_I4_COLUMNS = ("ids", "parent", "child1", "child2", "wing1", "wing2")
_F8 = np.dtype("<f8")
_I4 = np.dtype("<i4")
_N_CONN = np.dtype("<u2")


# -- blob codec --------------------------------------------------------------


def _blob_offsets(n_rows: int) -> tuple[int, int, int, int]:
    """Byte offsets of the ``<i4`` block, ``n_conn``, the zero padding
    and ``conn_flat`` in a blob of ``n_rows`` rows (the ``<f8`` block
    starts right after the header)."""
    i4_at = _BLOB_HEADER.size + _F8.itemsize * len(_F8_COLUMNS) * n_rows
    n_conn_at = i4_at + _I4.itemsize * len(_I4_COLUMNS) * n_rows
    pad_at = n_conn_at + _N_CONN.itemsize * n_rows
    return i4_at, n_conn_at, pad_at, pad_at + (-pad_at % 8)


def encode_cluster_blob(columns: DMNodeColumns) -> bytes:
    """Pack one cluster's columns into a self-describing ``DMC2`` blob.

    Layout: a ``<4sIII`` header (magic ``DMC2``, row count ``n``,
    connection entries, a reserved zero word), the ``n``-item columns
    :data:`_F8_COLUMNS` then :data:`_I4_COLUMNS`, ``n_conn``
    (``<u2``), zero padding to an 8-byte boundary, then ``conn_flat``
    (``<i4``).  Connection lists are always plain ``<i4`` here,
    whatever encoding the heap's records use.
    """
    n = len(columns)
    n_conn = np.diff(columns.conn_offsets)
    if n and int(n_conn.max()) >= _COMPRESSED_CONN:
        raise StorageError(
            f"a cluster row has {int(n_conn.max())} connections; "
            f"the blob holds at most {_COMPRESSED_CONN - 1}"
        )
    _, _, pad_at, conn_at = _blob_offsets(n)
    return b"".join((
        _BLOB_HEADER.pack(_BLOB_MAGIC, n, columns.conn_flat.size, 0),
        np.array([getattr(columns, c) for c in _F8_COLUMNS], _F8).tobytes(),
        np.array([getattr(columns, c) for c in _I4_COLUMNS], _I4).tobytes(),
        n_conn.astype(_N_CONN).tobytes(),
        bytes(conn_at - pad_at),
        np.asarray(columns.conn_flat, _I4).tobytes(),
    ))


def decode_cluster_blob(blob: bytes) -> DMNodeColumns:
    """Decode a ``DMC2`` blob into read-only columns over its bytes.

    Every array is an ``np.frombuffer`` view that keeps ``blob``
    alive (one call per dtype block), with the dtypes
    :func:`~repro.storage.record.decode_dm_nodes_columnar` returns;
    ``conn_offsets`` is the one computed array (a cumulative sum of
    ``n_conn``).  Strict, raising :class:`~repro.errors.StorageError`:
    the magic, the reserved word, the exact byte size (so truncation
    and trailing bytes — callers slice the run to the directory's
    ``n_bytes`` first), zero padding, no compressed-list sentinel in
    ``n_conn``, and ``n_conn`` summing to the header's entry count.
    ``fsck`` decodes every run through this (:meth:`ClusterSet.problems`).
    """
    if len(blob) < _BLOB_HEADER.size:
        raise StorageError(
            f"cluster blob is {len(blob)} bytes, below header "
            f"{_BLOB_HEADER.size}"
        )
    magic, n, total, reserved = _BLOB_HEADER.unpack_from(blob, 0)
    if magic != _BLOB_MAGIC:
        raise StorageError(f"bad cluster blob magic {magic!r}")
    if reserved:
        raise StorageError(f"cluster blob reserved word is {reserved}")
    i4_at, n_conn_at, pad_at, conn_at = _blob_offsets(n)
    expected = conn_at + _I4.itemsize * total
    if len(blob) != expected:
        raise StorageError(
            f"cluster blob is {len(blob)} bytes; {n} rows and {total} "
            f"connections take {expected}"
        )
    if any(blob[pad_at:conn_at]):
        raise StorageError("cluster blob padding is not zero")
    view = memoryview(blob).toreadonly()
    n_conn = np.frombuffer(view, _N_CONN, n, n_conn_at)
    if n and int(n_conn.max()) == _COMPRESSED_CONN:
        raise StorageError("cluster blob holds a compressed-list sentinel")
    conn_offsets = np.zeros(n + 1, np.int64)
    np.cumsum(n_conn.astype(np.int64), out=conn_offsets[1:])
    if int(conn_offsets[-1]) != total:
        raise StorageError(
            f"cluster blob rows hold {int(conn_offsets[-1])} connections, "
            f"header says {total}"
        )
    conn_offsets.flags.writeable = False
    f8 = np.frombuffer(view, _F8, len(_F8_COLUMNS) * n, _BLOB_HEADER.size)
    i4 = np.frombuffer(view, _I4, len(_I4_COLUMNS) * n, i4_at)
    arrays = dict(zip(_F8_COLUMNS, f8.reshape(len(_F8_COLUMNS), n)))
    arrays.update(zip(_I4_COLUMNS, i4.reshape(len(_I4_COLUMNS), n)))
    return DMNodeColumns(
        **arrays,
        conn_offsets=conn_offsets,
        conn_flat=np.frombuffer(view, _I4, total, conn_at),
    )


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
                    f"expected {CLUSTER_DIRECTORY_VERSION}; "
                    f"rebuild the store",
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
        """Decode one cluster into read-only columns over its run."""
        columns = decode_cluster_blob(self.read_blob(cluster_id))
        meta = self.meta(cluster_id)
        if len(columns) != meta.n_nodes:
            raise StorageError(
                f"cluster {cluster_id} decodes to {len(columns)} nodes, "
                f"directory claims {meta.n_nodes}"
            )
        return columns

    def problems(self, skip: AbstractSet[int] = frozenset()) -> list[str]:
        """Every fault of the run layout, reported, not raised.

        Each run must lie inside the segment, not overlap another, and
        fill its pages exactly (``ceil`` packing, as
        :func:`build_cluster_runs` writes); a run that passes is read
        through :meth:`decode`, which checks the directory's record
        count.  Runs touching a page in ``skip`` (the crc scan's
        findings) are not read: one corrupt page is one fault.
        """
        problems: list[str] = []
        payload = self.segment.payload_size
        spans: list[tuple[int, int, int]] = []
        for cid, meta in enumerate(self.directory.clusters):
            start, end = meta.start_page, meta.start_page + meta.n_pages
            if meta.n_pages < 1 or start < 0 or end > self.segment.n_pages:
                problems.append(
                    f"cluster {cid} run [{start}, {end}) outside segment "
                    f"({self.segment.n_pages} pages)"
                )
            elif not 0 < meta.n_bytes - (meta.n_pages - 1) * payload <= payload:
                problems.append(
                    f"cluster {cid} directory claims {meta.n_bytes} bytes in "
                    f"{meta.n_pages} run pages"
                )
            else:
                spans.append((start, end, cid))
                if skip.isdisjoint(range(start, end)):
                    try:
                        self.decode(cid)
                    except StorageError as exc:
                        problems.append(f"cluster {cid} blob does not decode ({exc})")
        spans.sort()
        for (_, prev_end, prev), (start, _, cid) in zip(spans, spans[1:]):
            if start < prev_end:
                problems.append(f"cluster {cid} run overlaps cluster {prev}")
        return problems


# -- build -------------------------------------------------------------------


def _node_columns(
    nodes: Sequence["PMNode"], connections: Mapping[int, list[int]]
) -> DMNodeColumns:
    """``nodes`` and their connection lists as columns, row for row —
    the values :func:`~repro.storage.record.encode_dm_node` writes."""
    lists = [connections.get(n.id, []) for n in nodes]
    offsets = np.zeros(len(nodes) + 1, np.int64)
    np.cumsum([len(c) for c in lists], out=offsets[1:])
    return DMNodeColumns(
        ids=np.array([n.id for n in nodes], np.int32),
        x=np.array([n.x for n in nodes], np.float64),
        y=np.array([n.y for n in nodes], np.float64),
        z=np.array([n.z for n in nodes], np.float64),
        e_low=np.array([n.e for n in nodes], np.float64),
        e_high=np.array([n.e_high for n in nodes], np.float64),
        parent=np.array([n.parent for n in nodes], np.int32),
        child1=np.array([n.child1 for n in nodes], np.int32),
        child2=np.array([n.child2 for n in nodes], np.int32),
        wing1=np.array([n.wing1 for n in nodes], np.int32),
        wing2=np.array([n.wing2 for n in nodes], np.int32),
        conn_offsets=offsets,
        conn_flat=np.fromiter(
            itertools.chain.from_iterable(lists), np.int32, int(offsets[-1])
        ),
    )


def build_cluster_runs(
    database: Database,
    segment_name: str,
    nodes: Sequence["PMNode"],
    boxes: Sequence[Box3],
    connections: Mapping[int, list[int]],
    cluster_nodes: int = DEFAULT_CLUSTER_NODES,
) -> ClusterDirectory:
    """Materialise the cluster section for a node set.

    ``boxes[i]`` is ``nodes[i]``'s indexed segment (``e_high`` capped
    at ``e_cap``, the R*-tree entry), and ``connections`` maps node id
    to its similar-LOD connection list (absent ids have none), as the
    heap's records hold it.  Each cluster is one
    :func:`~repro.index.rstar.str_groups` tile of the segments at
    ``cluster_nodes`` (ties keep their order in ``nodes``), its extent
    the union of its members' segments, and its columns are encoded
    as one blob written as a contiguous page run in the segment
    ``segment_name``.  The writes ride the pager like every other
    build write — sealed under the v2 page format, WAL-logged inside
    an ``atomic()`` scope.

    Returns the directory; the caller persists it
    (:meth:`ClusterDirectory.save`) alongside the store metadata.
    """
    if cluster_nodes < 1:
        raise StorageError(
            f"cluster_nodes must be >= 1, got {cluster_nodes}"
        )
    segment = database.segment(segment_name)
    payload_size = segment.payload_size
    clusters: list[ClusterMeta] = []
    for cluster_id, group in enumerate(str_groups(boxes, cluster_nodes)):
        columns = _node_columns([nodes[i] for i in group], connections)
        blob = encode_cluster_blob(columns)
        start_page = segment.n_pages
        for off in range(0, len(blob), payload_size):
            piece = blob[off:off + payload_size]
            _, buf = segment.allocate()
            buf[:len(piece)] = piece
        extent = union_all_boxes([boxes[i] for i in group])
        clusters.append(
            ClusterMeta(
                cluster_id=cluster_id,
                start_page=start_page,
                n_pages=segment.n_pages - start_page,
                n_bytes=len(blob),
                n_nodes=len(columns),
                min_x=extent.min_x,
                min_y=extent.min_y,
                min_e=extent.min_e,
                max_x=extent.max_x,
                max_y=extent.max_y,
                max_e=extent.max_e,
            )
        )
    return ClusterDirectory(
        segment=segment_name,
        cluster_nodes=cluster_nodes,
        clusters=clusters,
    )
