"""The store's record copy: DM node clusters as contiguous page runs.

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
   (:func:`~repro.index.rstar.str_groups`, the tiling an R*-tree's
   bulk load uses) — so a cluster spans a narrow LOD band as well as a
   small ``(x, y)`` area, and a query plane at one LOD misses the
   clusters of other bands under its ROI;
2. each cluster is packed into one *blob* (:func:`encode_cluster_blob`)
   holding its :class:`~repro.storage.record.DMNodeColumns` arrays
   column after column, and written as a contiguous run of pages in
   the ``{prefix}_cruns`` segment — one sequential physical read
   (:meth:`~repro.storage.database.Segment.read_run`) fetches a whole
   cluster, and :func:`decode_cluster_blob` turns it into columns with
   one ``np.frombuffer`` per array and no per-row work;
3. the per-cluster ``(x, y, e)`` extents — unions of the members'
   *indexed* (``e_cap``-capped) vertical segments — and one CRC32 per
   row are written at the head of the same segment, in the pages
   before the runs (:class:`ClusterDirectory`), beside the store's
   ``max_lod`` and ``e_cap``: a store epoch is its segments.

At query time the in-memory :class:`ClusterIndex` answers a query cube
with candidate cluster ids in one vectorized intersection test.  Any
node whose capped segment intersects the (clamped) probe box lies in a
cluster whose extent intersects it too — extents are unions of member
segments — so narrowing the union of candidate clusters to the rows
whose segment meets the box (:func:`intersecting_rows`) returns
exactly the records a per-node 3D index would.  The engine selects
this way; the paper's processors
(:func:`repro.core.query.range_columns`) select the same clusters
through the store's R*-tree over these extents.  The extents weighted
by their run pages feed the paper's cost model
(:meth:`ClusterIndex.extent_stats`).

The runs are the store's only record copy.  :meth:`ClusterSet.problems`
checks the run layout and each row against its digest, so a record
rewritten under valid page checksums is still named by ``fsck``.  The
directory pages ride the buffer pool like the runs, so the page
checksums, the write-ahead log and the segment's fsync cover them (byte
layout: ``docs/storage_format.md``); opening a store reads their header
and table (:meth:`ClusterDirectory.read`), and only ``fsck`` reads the
digests (:meth:`ClusterSet.row_digests`).
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import zlib
from dataclasses import astuple, dataclass, replace
from typing import TYPE_CHECKING, AbstractSet, Mapping, Sequence

import numpy as np

from repro.errors import StorageError
from repro.geometry.primitives import Box3, union_all_boxes
from repro.index.rstar import RTreeNodeStats, str_groups
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
    "unchanged_clusters",
]

#: Target nodes per cluster (the Batched-MT sweet spot: large enough
#: to amortise one physical read and one decode, small enough that a
#: query's overfetch stays bounded).
DEFAULT_CLUSTER_NODES = 128

#: Version of the directory at the head of a run segment (2: columnar
#: blobs; 3: one CRC32 per row and a content hash per cluster; 4: the
#: directory and the store meta in the run segment's first pages).
CLUSTER_DIRECTORY_VERSION = 4

#: Magic, version, max_lod, e_cap, cluster_nodes, cluster count, node
#: count, then the byte offsets of the table and the digest region.
_DIR_HEADER = struct.Struct("<4sIddIIIII")
_DIR_MAGIC = b"DMCD"
#: One table row: start_page, n_pages, n_bytes, n_nodes, the extent
#: (min x, y, e then max x, y, e) and the content hash.
_DIR_ROW = struct.Struct("<IIII6d16s")

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
#: One row's fixed fields, packed in blob column order: the bytes a
#: row digest covers before its connection list.
_ROW = np.dtype(
    [(c, _F8) for c in _F8_COLUMNS] + [(c, _I4) for c in _I4_COLUMNS]
)
_DIGEST = np.dtype("<u4")


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
    (``<i4``).  Connection lists are always plain ``<i4`` here.
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


def _row_digests(columns: DMNodeColumns) -> bytes:
    """One CRC32 per row, packed ``<u4``: over the row's fixed fields
    in blob column order, then its connection list as ``<i4``."""
    rows = np.empty(len(columns), _ROW)
    for name in _ROW.names:
        rows[name] = getattr(columns, name)
    fixed = rows.tobytes()
    conn = np.asarray(columns.conn_flat, _I4).tobytes()
    bounds = (columns.conn_offsets * _I4.itemsize).tolist()
    width = _ROW.itemsize
    return np.array(
        [
            zlib.crc32(
                conn[bounds[i]:bounds[i + 1]],
                zlib.crc32(fixed[i * width:(i + 1) * width]),
            )
            for i in range(len(columns))
        ],
        _DIGEST,
    ).tobytes()


def _content_hash(blob: bytes) -> bytes:
    """A cluster blob's identity: its 128-bit BLAKE2b hash."""
    return hashlib.blake2b(blob, digest_size=16).digest()


def unchanged_clusters(
    old: "ClusterDirectory", new: "ClusterDirectory"
) -> dict[int, int]:
    """Old cluster id -> new cluster id for each cluster whose blob is
    the same in both directories (equal content hashes).

    A patch rebuilds a few tiles, and the STR tiling of the untouched
    area usually packs the same clusters again under new ids; the
    engine keeps those decoded across the commit.
    """
    by_content = {meta.content: meta.cluster_id for meta in old.clusters}
    return {
        by_content[meta.content]: meta.cluster_id
        for meta in new.clusters
        if meta.content in by_content
    }


def intersecting_rows(
    columns: DMNodeColumns, box: Box3, e_cap: float
) -> np.ndarray:
    """Mask of rows whose capped indexed segment intersects ``box``.

    Exactly the predicate a per-node R*-tree's leaf scan applies
    (closed boundaries, ``e_high`` capped at ``e_cap`` like the
    indexed segments), so narrowing a decoded cluster batch with this
    mask yields the row set a per-node index probe of ``box``
    retrieves — the paper's range query, and what keeps ``retrieved``
    (and the semantic cache's cubes) independent of cluster size.
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
    segments — ``e_high`` capped at the store's ``e_cap`` — so cluster
    selection against a clamped probe box sees each member's segment.
    ``content`` is the blob's 128-bit BLAKE2b hash, the cluster's
    identity across epochs (:func:`unchanged_clusters`).  The fields
    after ``cluster_id`` are one :data:`_DIR_ROW`, in order.
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
    content: bytes

    @property
    def box(self) -> Box3:
        """The cluster extent as a :class:`Box3`."""
        return Box3(
            self.min_x, self.min_y, self.min_e,
            self.max_x, self.max_y, self.max_e,
        )


def _read_span(segment: Segment, start: int, end: int) -> bytes:
    """Bytes ``[start, end)`` of ``segment``'s payload stream (its page
    payloads end to end), read as one run past the buffer pool."""
    if start >= end:
        return b""
    size = segment.payload_size
    first = start // size
    run = segment.read_run(first, -(-end // size) - first)
    return run[start - first * size:end - first * size]


@dataclass
class ClusterDirectory:
    """The cluster catalog of one store epoch and the store's meta,
    in the first pages of the epoch's run segment (:meth:`encode`,
    :meth:`read`)."""

    max_lod: float
    e_cap: float
    cluster_nodes: int
    clusters: list[ClusterMeta]

    @property
    def total_nodes(self) -> int:
        """Sum of member counts across clusters."""
        return sum(c.n_nodes for c in self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def spans(self) -> tuple[int, int]:
        """Byte offsets of the digest region and of the directory's end
        (the table starts right after the header)."""
        digests_at = _DIR_HEADER.size + _DIR_ROW.size * len(self.clusters)
        return digests_at, digests_at + _DIGEST.itemsize * self.total_nodes

    def encode(self, digests: bytes) -> bytes:
        """The directory's payload stream: header, table, then
        ``digests`` (one packed ``<u4`` per row, in run order)."""
        return b"".join((
            _DIR_HEADER.pack(
                _DIR_MAGIC, CLUSTER_DIRECTORY_VERSION, self.max_lod,
                self.e_cap, self.cluster_nodes, len(self.clusters),
                self.total_nodes, _DIR_HEADER.size, self.spans()[0],
            ),
            *(_DIR_ROW.pack(*astuple(c)[1:]) for c in self.clusters),
            digests,
        ))

    @classmethod
    def read(cls, segment: Segment) -> "ClusterDirectory":
        """Read the header and the table of ``segment``, not the digests.

        Raises :class:`~repro.errors.StorageError` naming the fault: no
        pages, a page 0 that is no directory header (such as a version-3
        store's first run), another version, a table or digest region
        off the layout or past the segment, or table node counts that
        miss the header's.
        """
        if segment.n_pages == 0:
            raise StorageError(
                f"{segment.name} has no pages, so no cluster directory; "
                f"rebuild the store"
            )
        page = _read_span(segment, 0, segment.payload_size)
        magic, version, max_lod, e_cap, cluster_nodes, n_clusters, n_nodes, \
            table_at, digests_at = _DIR_HEADER.unpack_from(page, 0)
        if magic != _DIR_MAGIC:
            raise StorageError(
                f"{segment.name} page 0 is no cluster directory header "
                f"(magic {magic!r}); rebuild the store"
            )
        if version != CLUSTER_DIRECTORY_VERSION:
            raise StorageError(
                f"cluster directory is version {version}, expected "
                f"{CLUSTER_DIRECTORY_VERSION}; rebuild the store"
            )
        table_end = _DIR_HEADER.size + _DIR_ROW.size * n_clusters
        end = table_end + _DIGEST.itemsize * n_nodes
        limit = segment.n_pages * segment.payload_size
        if (table_at, digests_at) != (_DIR_HEADER.size, table_end) or end > limit:
            raise StorageError(
                f"{segment.name}: a table of {n_clusters} clusters at "
                f"{table_at} and {n_nodes} digests at {digests_at} do not "
                f"fit the segment's {limit} bytes"
            )
        if table_end > len(page):
            page += _read_span(segment, len(page), table_end)
        clusters = [
            ClusterMeta(cid, *row)
            for cid, row in enumerate(
                _DIR_ROW.iter_unpack(page[table_at:table_end])
            )
        ]
        directory = cls(max_lod, e_cap, cluster_nodes, clusters)
        if directory.total_nodes != n_nodes:
            raise StorageError(
                f"{segment.name}: cluster table holds "
                f"{directory.total_nodes} nodes, header counts {n_nodes}"
            )
        return directory


# -- query-time selection ----------------------------------------------------


class ClusterIndex:
    """Vectorized cluster selection over the directory's extents.

    One boolean-mask intersection test over per-axis min/max arrays
    answers a query cube with every cluster whose extent touches it.
    Comparisons are boundary-closed, matching
    :meth:`~repro.geometry.primitives.Box3.intersects` — selection may
    only ever be *more* inclusive than a per-node index walk, never
    less, and :func:`intersecting_rows` restores exactness.
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
        serving performs (formula (1) over :meth:`extent_stats` prices
        the paper's processors and the multi-base plan).
        """
        return max(1.0, float(self._n_pages[self._mask(box)].sum()))

    def extent_stats(self) -> RTreeNodeStats:
        """The paper's cost-model sums over the cluster extents.

        Formula (1) sums ``(q_x + w_i)(q_y + h_i)(q_z + d_i)`` over the
        index's nodes, one disk access each.  A selected cluster costs
        its run's pages, so each extent enters the sums weighted by
        its ``n_pages``: the estimate prices the run pages a range
        query reads (not the R*-tree page over the extents).
        """
        space = self.extent
        if space is None:
            raise StorageError("an empty store has no extent statistics")
        w = (self._max_x - self._min_x) / (space.width or 1.0)
        h = (self._max_y - self._min_y) / (space.height or 1.0)
        d = (self._max_e - self._min_e) / (space.depth or 1.0)
        p = self._n_pages
        return RTreeNodeStats(
            int(p.sum()),
            float(p @ w), float(p @ h), float(p @ d),
            float(p @ (w * h)), float(p @ (w * d)), float(p @ (h * d)),
            float(p @ (w * h * d)),
            space,
        )


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
        """The cluster's blob via one sequential run read past the
        buffer pool (the engine's path: its cluster cache is the
        buffer)."""
        meta = self.meta(cluster_id)
        return self._blob(
            meta, self.segment.read_run(meta.start_page, meta.n_pages)
        )

    def fetch_blob(self, cluster_id: int) -> bytes:
        """The cluster's blob page by page through the buffer pool.

        The paper's processors read this way: a flushed pool reads each
        run page once, as :meth:`read_blob` does, and a warm one serves
        repeats, and the runs several strips of one plan share, without
        disk reads.
        """
        meta = self.meta(cluster_id)
        payload = self.segment.payload_size
        return self._blob(
            meta,
            b"".join(
                self.segment.fetch(page)[:payload]
                for page in range(
                    meta.start_page, meta.start_page + meta.n_pages
                )
            ),
        )

    @staticmethod
    def _blob(meta: ClusterMeta, run: bytes) -> bytes:
        if len(run) < meta.n_bytes:
            raise StorageError(
                f"cluster {meta.cluster_id} run holds {len(run)} bytes, "
                f"directory claims {meta.n_bytes}"
            )
        return run[:meta.n_bytes]

    def decode(
        self, cluster_id: int, blob: bytes | None = None
    ) -> DMNodeColumns:
        """Decode one cluster into read-only columns over its run:
        ``blob`` if given (as :meth:`fetch_blob` or :meth:`read_blob`
        returns it), else one :meth:`read_blob`."""
        if blob is None:
            blob = self.read_blob(cluster_id)
        columns = decode_cluster_blob(blob)
        meta = self.meta(cluster_id)
        if len(columns) != meta.n_nodes:
            raise StorageError(
                f"cluster {cluster_id} decodes to {len(columns)} nodes, "
                f"directory claims {meta.n_nodes}"
            )
        return columns

    def row_digests(self) -> np.ndarray:
        """Every row's CRC32 (``<u4``), in run order, read from the
        directory's digest region: ``fsck``'s read, never ``open``'s."""
        return np.frombuffer(
            _read_span(self.segment, *self.directory.spans()), _DIGEST
        )

    def problems(self, skip: AbstractSet[int] = frozenset()) -> list[str]:
        """Every fault of the run layout, reported, not raised.

        Each run must lie inside the segment past the directory pages,
        not overlap another, and fill its pages exactly (``ceil``
        packing, as :func:`build_cluster_runs` writes); a run that
        passes is read through :meth:`decode`, which checks the
        directory's record count, and each row must match its digest —
        a record rewritten under re-sealed page checksums is named by
        the node id it now holds — and the run its content hash.  Runs
        touching a page in ``skip`` (the crc scan's findings) are not
        read, nor is any run when a directory page is in ``skip``: one
        corrupt page is one fault.
        """
        problems: list[str] = []
        payload = self.segment.payload_size
        first_run = -(-self.directory.spans()[1] // payload)
        digests = (
            self.row_digests() if skip.isdisjoint(range(first_run)) else None
        )
        at = 0
        spans: list[tuple[int, int, int]] = []
        for cid, meta in enumerate(self.directory.clusters):
            start, end = meta.start_page, meta.start_page + meta.n_pages
            want = None if digests is None else digests[at:at + meta.n_nodes]
            at += meta.n_nodes
            if (
                meta.n_pages < 1 or start < first_run
                or end > self.segment.n_pages
            ):
                problems.append(
                    f"cluster {cid} run [{start}, {end}) outside segment "
                    f"pages [{first_run}, {self.segment.n_pages})"
                )
            elif not 0 < meta.n_bytes - (meta.n_pages - 1) * payload <= payload:
                problems.append(
                    f"cluster {cid} directory claims {meta.n_bytes} bytes in "
                    f"{meta.n_pages} run pages"
                )
            else:
                spans.append((start, end, cid))
                if want is not None and skip.isdisjoint(range(start, end)):
                    problems.extend(self._row_problems(cid, want))
        spans.sort()
        for (_, prev_end, prev), (start, _, cid) in zip(spans, spans[1:]):
            if start < prev_end:
                problems.append(f"cluster {cid} run overlaps cluster {prev}")
        return problems

    def _row_problems(self, cluster_id: int, want: np.ndarray) -> list[str]:
        """Decode one run and check each row against its digest in
        ``want``, then (rows clean) the run against its content hash."""
        try:
            blob = self.read_blob(cluster_id)
            columns = self.decode(cluster_id, blob)
        except StorageError as exc:
            return [f"cluster {cluster_id} blob does not decode ({exc})"]
        if len(want) != len(columns):
            return [
                f"cluster {cluster_id} directory holds {len(want)} row "
                f"digests for {len(columns)} rows"
            ]
        bad = np.frombuffer(_row_digests(columns), _DIGEST) != want
        problems = [
            f"node {node_id}: cluster {cluster_id} record fails its digest"
            for node_id in columns.ids[bad].tolist()
        ]
        content = self.meta(cluster_id).content
        if not problems and _content_hash(blob) != content:
            problems.append(
                f"cluster {cluster_id} run differs from its content hash"
            )
        return problems


# -- build -------------------------------------------------------------------


def _node_columns(
    nodes: Sequence["PMNode"], connections: Mapping[int, list[int]]
) -> DMNodeColumns:
    """``nodes`` and their connection lists as columns, row for row."""
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
    max_lod: float,
    e_cap: float,
    cluster_nodes: int = DEFAULT_CLUSTER_NODES,
) -> ClusterDirectory:
    """Materialise the cluster section for a node set.

    ``boxes[i]`` is ``nodes[i]``'s indexed segment (``e_high`` capped
    at ``e_cap``), and ``connections`` maps node id to its similar-LOD
    connection list (absent ids have none).  Each cluster is one
    :func:`~repro.index.rstar.str_groups` tile of the segments at
    ``cluster_nodes`` (ties keep their order in ``nodes``), its extent
    the union of its members' segments, and its columns are encoded as
    one blob written as a contiguous page run in the segment
    ``segment_name``, after the directory pages (the store meta, the
    table and one digest per row; see the module docstring).  The
    writes ride the pager like every other build write — sealed under
    the v2 page format, WAL-logged inside an ``atomic()`` or
    ``patch()`` scope.

    Returns the directory, as :meth:`ClusterDirectory.read` reads it
    back.
    """
    if cluster_nodes < 1:
        raise StorageError(
            f"cluster_nodes must be >= 1, got {cluster_nodes}"
        )
    segment = database.segment(segment_name)
    if segment.n_pages:
        raise StorageError(
            f"{segment_name} already holds {segment.n_pages} pages"
        )
    payload_size = segment.payload_size
    groups = str_groups(boxes, cluster_nodes)
    columns = [_node_columns([nodes[i] for i in g], connections) for g in groups]
    blobs = [encode_cluster_blob(c) for c in columns]
    start_page = 0  # Shifted past the directory pages below.
    clusters: list[ClusterMeta] = []
    for cluster_id, (group, blob) in enumerate(zip(groups, blobs)):
        n_pages = -(-len(blob) // payload_size)
        box = union_all_boxes([boxes[i] for i in group])
        clusters.append(ClusterMeta(
            cluster_id, start_page, n_pages, len(blob), len(group),
            box.min_x, box.min_y, box.min_e, box.max_x, box.max_y, box.max_e,
            _content_hash(blob),
        ))
        start_page += n_pages
    directory = ClusterDirectory(max_lod, e_cap, cluster_nodes, clusters)
    first_run = -(-directory.spans()[1] // payload_size)
    directory.clusters = [
        replace(c, start_page=c.start_page + first_run) for c in clusters
    ]
    digests = b"".join(_row_digests(c) for c in columns)
    for data in (directory.encode(digests), *blobs):
        for off in range(0, len(data), payload_size):
            piece = data[off:off + payload_size]
            _, buf = segment.allocate()
            buf[:len(piece)] = piece
    return directory
