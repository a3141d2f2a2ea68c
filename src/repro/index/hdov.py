"""The HDoV-tree baseline (Shou, Huang, Tan — ICDE 2003).

A LOD-R-tree extended with per-node *degree of visibility* (DoV).
Following the paper's evaluation setup (Section 6): "The terrain is
partitioned into grids, which serve as the objects in the HDoV tree.
Visibility data is stored using the 'indexed-vertical storage scheme'
... No additional spatial index is used with the HDoV tree."

Structure (after Kofler's LOD-R-tree, which HDoV extends):

* the terrain is cut into a ``G x G`` grid of tiles — the leaf
  objects, each storing its **full-resolution** mesh;
* internal nodes (2 x 2 groupings up to the root) each store one
  *generalised* mesh of their whole region at a LOD tied to their
  height — LOD granularity equals tree height, one of the two
  granularity problems the Direct Mesh paper calls out;
* each stored mesh is a self-contained renderable unit: point records
  **plus an explicit triangle list** (unlike PM/DM, this structure has
  no other way to convey topology), laid out as a contiguous page run
  whose extent is recorded in the tree node — the indexed-vertical
  storage that lets a query read exactly one version;
* every node carries a DoV estimate
  (:mod:`repro.index.visibility`); occluded nodes are skipped and
  low-visibility nodes served at coarser LOD.

A query descends from the root and stops at the first node whose mesh
satisfies the (visibility-adjusted) required LOD, reading that node's
**entire** mesh — the whole-object granularity the Direct Mesh paper
criticises ("entire node needs to be retrieved even if only a small
part of the area covered by the node is needed").

``use_visibility=False`` yields the plain LOD-R-tree
(:class:`LodRTree`), also part of the system inventory.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

from repro.core.reconstruct import mesh_triangles, pack_records
from repro.errors import IndexError_, QueryError, StorageError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.index.visibility import default_viewpoints, tile_visibility
from repro.mesh.progressive import PMNode, ProgressiveMesh
from repro.storage.database import Database, Segment
from repro.storage.record import PM_RECORD_SIZE, decode_pm_node, encode_pm_node
from repro.terrain.gridfield import GridField

__all__ = ["HDoVTree", "HDoVQueryResult", "LodRTree"]

_META_FILE = "hdov_meta.json"

_NODE_FIXED = struct.Struct("<BBHxxd4d")
_CHILD = struct.Struct("<I")
_VERSION = struct.Struct("<dIIII")
_DATA_HEADER = struct.Struct("<H")
_TRIANGLE = struct.Struct("<3i")

#: DoV below which a node is treated as fully occluded.
_OCCLUDED_DOV = 0.02
#: Floor applied when dividing by DoV for LOD relaxation.
_DOV_FLOOR = 0.05


@dataclass
class HDoVQueryResult:
    """Result of an HDoV-tree query.

    Attributes:
        nodes: approximation nodes inside the ROI, keyed by id.
        triangles: triangles of the fetched tile meshes (clipped to
            those with at least one vertex in the ROI).
        versions_read: number of node meshes fetched.
        records_scanned: total point records decoded (the fetched
            granularity; compare with ``len(nodes)`` for waste).
        skipped_occluded: nodes skipped because DoV ~ 0.
    """

    nodes: dict[int, PMNode] = field(default_factory=dict)
    triangles: list[tuple[int, int, int]] = field(default_factory=list)
    versions_read: int = 0
    records_scanned: int = 0
    skipped_occluded: int = 0

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class _Version:
    error: float
    start_page: int
    n_pages: int
    count: int
    n_triangles: int


@dataclass(frozen=True)
class _Node:
    page_no: int
    is_leaf: bool
    height: int
    mbr: Rect
    dov: float
    children: tuple[int, ...]
    version: _Version


class HDoVTree:
    """An HDoV-tree resident in a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        tree_segment: Segment,
        data_segment: Segment,
        root_page: int,
        max_lod: float,
        thresholds: list[float],
        use_visibility: bool = True,
    ) -> None:
        self.database = database
        self._tree = tree_segment
        self._data = data_segment
        self._root = root_page
        self.max_lod = max_lod
        self.thresholds = thresholds
        self.use_visibility = use_visibility

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        pm: ProgressiveMesh,
        field_raster: GridField | None,
        database: Database,
        connections: dict[int, list[int]] | None = None,
        prefix: str = "hdov",
        grid: int = 16,
        level_ratio: float = 4.0,
        use_visibility: bool = True,
    ) -> "HDoVTree":
        """Build the HDoV-tree from a normalised PM.

        Args:
            pm: the progressive mesh.
            field_raster: terrain raster for visibility sampling (may
                be ``None``; DoV defaults to 1.0 everywhere).
            connections: similar-LOD connection lists, used only at
                *build* time to triangulate the per-node meshes (the
                original system builds them during simplification).
                Triangles are omitted when not supplied.
            grid: tiles per side (power of two).
            level_ratio: error ratio between consecutive tree levels.
        """
        if grid < 2 or grid & (grid - 1):
            raise IndexError_(f"grid must be a power of two >= 2, got {grid}")
        if not pm.is_normalized:
            raise QueryError("progressive mesh must be normalised")
        max_lod = pm.max_lod()
        height = int(math.log2(grid))
        # thresholds[h] = LOD of the mesh stored at height h; leaves
        # (h = 0) store full resolution.
        thresholds = [0.0] + [
            max_lod / (level_ratio ** (height - h)) for h in range(1, height + 1)
        ]

        tree_seg = database.segment(f"{prefix}_tree")
        data_seg = database.segment(f"{prefix}_data")
        builder = _Builder(
            pm,
            field_raster if use_visibility else None,
            tree_seg,
            data_seg,
            grid,
            thresholds,
            connections,
        )
        root_page = builder.run()
        meta = {
            "root": root_page,
            "max_lod": max_lod,
            "thresholds": thresholds,
            "use_visibility": use_visibility,
        }
        with open(database.path / f"{prefix}_{_META_FILE}", "w",
                  encoding="ascii") as f:
            json.dump(meta, f)
        database.buffer.flush_dirty()
        return cls(
            database, tree_seg, data_seg, root_page, max_lod, thresholds,
            use_visibility,
        )

    @classmethod
    def open(cls, database: Database, prefix: str = "hdov") -> "HDoVTree":
        """Open a previously built tree."""
        meta_path = database.path / f"{prefix}_{_META_FILE}"
        if not meta_path.exists():
            raise StorageError(f"no HDoV tree at {meta_path}")
        with open(meta_path, "r", encoding="ascii") as f:
            meta = json.load(f)
        return cls(
            database,
            database.segment(f"{prefix}_tree"),
            database.segment(f"{prefix}_data"),
            meta["root"],
            meta["max_lod"],
            meta["thresholds"],
            meta.get("use_visibility", True),
        )

    # -- node access ----------------------------------------------------------

    def _read_node(self, page_no: int) -> _Node:
        buf = self._tree.fetch(page_no)
        (
            is_leaf,
            height,
            n_children,
            dov,
            mx0,
            my0,
            mx1,
            my1,
        ) = _NODE_FIXED.unpack_from(buf, 0)
        offset = _NODE_FIXED.size
        children = []
        for _ in range(n_children):
            (child,) = _CHILD.unpack_from(buf, offset)
            children.append(child)
            offset += _CHILD.size
        error, start, pages, count, n_tris = _VERSION.unpack_from(buf, offset)
        return _Node(
            page_no,
            bool(is_leaf),
            height,
            Rect(mx0, my0, mx1, my1),
            dov,
            tuple(children),
            _Version(error, start, pages, count, n_tris),
        )

    def _read_version(
        self, version: _Version, roi: Rect, result: HDoVQueryResult
    ) -> None:
        """Fetch an entire node mesh (points then triangles)."""
        result.versions_read += 1
        rec_per_page = (self._data.payload_size - _DATA_HEADER.size) // PM_RECORD_SIZE
        point_pages = -(-version.count // rec_per_page) if version.count else 0
        in_roi: set[int] = set()
        for i in range(version.n_pages):
            page_no = version.start_page + i
            buf = self._data.fetch(page_no)
            (count,) = _DATA_HEADER.unpack_from(buf, 0)
            offset = _DATA_HEADER.size
            if i < point_pages:
                for _ in range(count):
                    record = decode_pm_node(
                        bytes(buf[offset : offset + PM_RECORD_SIZE])
                    )
                    offset += PM_RECORD_SIZE
                    result.records_scanned += 1
                    if roi.contains_point(record.x, record.y):
                        result.nodes[record.id] = record
                        in_roi.add(record.id)
            else:
                for _ in range(count):
                    a, b, c = _TRIANGLE.unpack_from(buf, offset)
                    offset += _TRIANGLE.size
                    if a in in_roi or b in in_roi or c in in_roi:
                        result.triangles.append((a, b, c))

    # -- queries -------------------------------------------------------------------

    def uniform_query(self, roi: Rect, lod: float) -> HDoVQueryResult:
        """Viewpoint-independent query: descend until LOD sufficient."""
        result = HDoVQueryResult()
        self._descend(self._root, roi, lambda region: lod, result)
        return result

    def viewdep_query(self, plane: QueryPlane) -> HDoVQueryResult:
        """Viewpoint-dependent query with visibility-based selection."""

        def required(region: Rect) -> float:
            lo, _ = plane.lod_range_over(region)
            return lo

        result = HDoVQueryResult()
        self._descend(self._root, plane.roi, required, result)
        return result

    def _descend(self, page_no: int, roi: Rect, required, result) -> None:
        node = self._read_node(page_no)
        region = node.mbr.intersection(roi)
        if region is None:
            return
        if self.use_visibility and node.dov <= _OCCLUDED_DOV:
            result.skipped_occluded += 1
            return
        req = required(region)
        if self.use_visibility:
            # Low visibility tolerates a coarser mesh.
            req = req / max(node.dov, _DOV_FLOOR)
        if node.version.error <= req or node.is_leaf:
            self._read_version(node.version, roi, result)
            return
        for child in node.children:
            self._descend(child, roi, required, result)


class LodRTree(HDoVTree):
    """The plain LOD-R-tree (Kofler): HDoV without visibility."""

    @classmethod
    def build(cls, pm, field_raster, database, prefix="lodrt", **kwargs):
        kwargs["use_visibility"] = False
        return super().build(pm, None, database, prefix=prefix, **kwargs)


class _RecordView:
    """Adapter giving :func:`pack_records` what it needs from PMNodes."""

    __slots__ = ("x", "y", "connections")

    def __init__(self, node: PMNode, connections: list[int]) -> None:
        self.x = node.x
        self.y = node.y
        self.connections = connections


class _Builder:
    """One-shot HDoV construction state."""

    def __init__(
        self,
        pm: ProgressiveMesh,
        field_raster: GridField | None,
        tree_seg: Segment,
        data_seg: Segment,
        grid: int,
        thresholds: list[float],
        connections: dict[int, list[int]] | None,
    ) -> None:
        self._pm = pm
        self._raster = field_raster
        self._tree = tree_seg
        self._data = data_seg
        self._grid = grid
        self._thresholds = thresholds
        self._bounds = Rect.from_points(n for n in pm.nodes)
        self._records_per_page = (
            data_seg.payload_size - _DATA_HEADER.size
        ) // PM_RECORD_SIZE
        self._tris_per_page = (
            data_seg.payload_size - _DATA_HEADER.size
        ) // _TRIANGLE.size
        # Per level: the cut's node buckets by tile and its triangles
        # bucketed by centroid tile.
        self._buckets: dict[tuple[int, int, int], list[int]] = {}
        self._tri_buckets: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
        for level, threshold in enumerate(thresholds):
            cut = pm.uniform_cut(threshold)
            for node_id in cut:
                node = pm.node(node_id)
                ix, iy = self._tile_of(node.x, node.y)
                self._buckets.setdefault((level, ix, iy), []).append(node_id)
            if connections is not None:
                view = {
                    nid: _RecordView(pm.node(nid), connections.get(nid, []))
                    for nid in cut
                }
                triangles = mesh_triangles(pack_records(view)).tolist()
                for tri in map(tuple, triangles):
                    ax = sum(pm.node(v).x for v in tri) / 3
                    ay = sum(pm.node(v).y for v in tri) / 3
                    ix, iy = self._tile_of(ax, ay)
                    self._tri_buckets.setdefault((level, ix, iy), []).append(tri)
        self._viewpoints = (
            default_viewpoints(self._raster) if self._raster else []
        )

    def _tile_of(self, x: float, y: float) -> tuple[int, int]:
        g = self._grid
        b = self._bounds
        ix = int((x - b.min_x) / (b.width or 1.0) * g)
        iy = int((y - b.min_y) / (b.height or 1.0) * g)
        return (min(max(ix, 0), g - 1), min(max(iy, 0), g - 1))

    def _tile_rect(self, ix: int, iy: int, span: int = 1) -> Rect:
        b = self._bounds
        w = b.width / self._grid
        h = b.height / self._grid
        return Rect(
            b.min_x + ix * w,
            b.min_y + iy * h,
            b.min_x + (ix + span) * w,
            b.min_y + (iy + span) * h,
        )

    def run(self) -> int:
        """Build everything; returns the root page number."""
        if self._data.n_pages == 0:
            self._data.allocate()  # Page 0 stays a null sentinel.
        grid = self._grid
        current: dict[tuple[int, int], int] = {}
        for ix in range(grid):
            for iy in range(grid):
                current[(ix, iy)] = self._write_tile(ix, iy, 0, 1, [])
        height = 1
        span = 2
        while grid > 1:
            next_level: dict[tuple[int, int], int] = {}
            for ix in range(0, grid, 2):
                for iy in range(0, grid, 2):
                    children = [
                        current[(cx, cy)]
                        for cx in (ix, ix + 1)
                        for cy in (iy, iy + 1)
                        if (cx, cy) in current
                    ]
                    next_level[(ix // 2, iy // 2)] = self._write_tile(
                        ix * span // 2,
                        iy * span // 2,
                        height,
                        span,
                        children,
                    )
            current = next_level
            grid //= 2
            span *= 2
            height += 1
        return current[(0, 0)]

    # -- node writers ----------------------------------------------------------

    def _write_tile(
        self, ix: int, iy: int, height: int, span: int, children: list[int]
    ) -> int:
        rect = self._tile_rect(ix, iy, span)
        level = min(len(self._thresholds) - 1, height)
        ids: list[int] = []
        tris: list[tuple[int, int, int]] = []
        for tx in range(ix, ix + span):
            for ty in range(iy, iy + span):
                ids.extend(self._buckets.get((level, tx, ty), []))
                tris.extend(self._tri_buckets.get((level, tx, ty), []))
        version = self._write_version(level, ids, tris)
        dov = self._estimate_dov(rect)
        return self._write_node(not children, height, rect, dov, children, version)

    def _estimate_dov(self, rect: Rect) -> float:
        if self._raster is None:
            return 1.0
        return tile_visibility(self._raster, rect, self._viewpoints)

    def _write_version(
        self, level: int, ids: list[int], tris: list[tuple[int, int, int]]
    ) -> _Version:
        start = self._data.n_pages
        n_pages = 0
        for chunk_start in range(0, len(ids), self._records_per_page):
            chunk = ids[chunk_start : chunk_start + self._records_per_page]
            page_no, buf = self._data.allocate()
            _DATA_HEADER.pack_into(buf, 0, len(chunk))
            offset = _DATA_HEADER.size
            for node_id in chunk:
                payload = encode_pm_node(self._pm.node(node_id))
                buf[offset : offset + PM_RECORD_SIZE] = payload
                offset += PM_RECORD_SIZE
            self._data.mark_dirty(page_no)
            n_pages += 1
        for chunk_start in range(0, len(tris), self._tris_per_page):
            chunk = tris[chunk_start : chunk_start + self._tris_per_page]
            page_no, buf = self._data.allocate()
            _DATA_HEADER.pack_into(buf, 0, len(chunk))
            offset = _DATA_HEADER.size
            for a, b, c in chunk:
                _TRIANGLE.pack_into(buf, offset, a, b, c)
                offset += _TRIANGLE.size
            self._data.mark_dirty(page_no)
            n_pages += 1
        return _Version(
            self._thresholds[level], start, n_pages, len(ids), len(tris)
        )

    def _write_node(
        self,
        is_leaf: bool,
        height: int,
        mbr: Rect,
        dov: float,
        children: list[int],
        version: _Version,
    ) -> int:
        page_no, buf = self._tree.allocate()
        _NODE_FIXED.pack_into(
            buf,
            0,
            1 if is_leaf else 0,
            height,
            len(children),
            dov,
            mbr.min_x,
            mbr.min_y,
            mbr.max_x,
            mbr.max_y,
        )
        offset = _NODE_FIXED.size
        for child in children:
            _CHILD.pack_into(buf, offset, child)
            offset += _CHILD.size
        _VERSION.pack_into(
            buf,
            offset,
            version.error,
            version.start_page,
            version.n_pages,
            version.count,
            version.n_triangles,
        )
        self._tree.mark_dirty(page_no)
        return page_no
