"""The LOD-quadtree (Xu, ADC 2003): a 3D adaptive quadtree.

The strongest pre-existing index for PM data and the paper's main
comparator: PM nodes are indexed as *points* ``(x, y, e)`` — position
plus LOD value — and the selective-refinement query becomes a 3D range
query.  The quadtree is *adaptive* because terrain points are roughly
uniform in ``(x, y)`` but severely skewed in the LOD dimension
(paper Section 3): a node whose point population spans a large
normalised LOD extent splits at the local **median LOD** (a binary,
skew-adapted split), otherwise it splits into four ``(x, y)``
quadrants at the box midpoint.

The known weakness the paper exploits — internal PM nodes are treated
as points rather than footprint boxes, so ancestors lying outside the
query region must be chased with follow-up point queries — is
reproduced faithfully by the PM baseline in
:mod:`repro.baselines.pm_db`.

One tree node per page; page 0 is metadata.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.errors import IndexError_, InvariantError
from repro.geometry.primitives import Box3
from repro.storage.database import Segment

__all__ = ["LodQuadtree"]

_META = struct.Struct("<4sIQ6d")
_MAGIC = b"LQT1"
_HEADER = struct.Struct("<BH")
_POINT = struct.Struct("<3dQ")
_XY_SPLIT = struct.Struct("<2d4I")
_E_SPLIT = struct.Struct("<d2I")

_LEAF = 0
_INTERNAL_XY = 1
_INTERNAL_E = 2
_CHAIN = 3  # Overflow chain for indivisible point populations.

#: A node whose points span more than this fraction of the data-space
#: LOD extent (relative to its larger xy spread) splits on LOD first.
_E_SKEW_RATIO = 1.0


class LodQuadtree:
    """An adaptive ``(x, y, e)`` quadtree stored in one segment.

    Build with :meth:`bulk_load`; query with :meth:`range_search`.
    """

    def __init__(self, segment: Segment) -> None:
        self._segment = segment
        self._leaf_cap = (segment.payload_size - _HEADER.size) // _POINT.size
        if segment.n_pages == 0:
            meta_no, _ = segment.allocate()
            if meta_no != 0:
                raise IndexError_("meta page must be page 0")
            self._root = 0  # No root yet.
            self._count = 0
            self._space: Box3 | None = None
            self._save_meta()
        else:
            self._load_meta()

    # -- metadata ------------------------------------------------------------

    def _load_meta(self) -> None:
        buf = self._segment.fetch(0)
        magic, root, count, x0, y0, e0, x1, y1, e1 = _META.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise IndexError_(
                f"segment {self._segment.name} is not a LOD-quadtree"
            )
        self._root = root
        self._count = count
        self._space = Box3(x0, y0, e0, x1, y1, e1) if count else None

    def _save_meta(self) -> None:
        buf = self._segment.fetch(0)
        space = self._space or Box3(0, 0, 0, 0, 0, 0)
        _META.pack_into(
            buf,
            0,
            _MAGIC,
            self._root,
            self._count,
            space.min_x,
            space.min_y,
            space.min_e,
            space.max_x,
            space.max_y,
            space.max_e,
        )
        self._segment.mark_dirty(0)

    # -- properties ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def data_space(self) -> Box3 | None:
        """MBR of the loaded points."""
        return self._space

    # -- bulk build --------------------------------------------------------------------

    def bulk_load(
        self, points: Sequence[tuple[float, float, float, int]]
    ) -> None:
        """Build the tree from ``(x, y, e, value)`` tuples."""
        if self._count:
            raise IndexError_("bulk_load requires an empty tree")
        if not points:
            return
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        es = [p[2] for p in points]
        self._space = Box3(min(xs), min(ys), min(es), max(xs), max(ys), max(es))
        self._root = self._build(list(points), self._space)
        self._count = len(points)
        self._save_meta()

    def _build(
        self,
        points: list[tuple[float, float, float, int]],
        box: Box3,
    ) -> int:
        if len(points) <= self._leaf_cap:
            return self._write_leaf(points)
        if self._space is None:
            raise InvariantError("quadtree build entered _build with no space box")
        # Normalised extents of the *population*, not the box: this is
        # the adaptivity to LOD skew.
        es = [p[2] for p in points]
        e_extent = (max(es) - min(es)) / (self._space.depth or 1.0)
        x_extent = box.width / (self._space.width or 1.0)
        y_extent = box.height / (self._space.height or 1.0)
        if e_extent >= _E_SKEW_RATIO * max(x_extent, y_extent):
            # Binary split at the median LOD.
            es_sorted = sorted(es)
            ce = es_sorted[len(es_sorted) // 2]
            if ce <= box.min_e or ce >= box.max_e:
                ce = (box.min_e + box.max_e) / 2
            low = [p for p in points if p[2] < ce]
            high = [p for p in points if p[2] >= ce]
            if not low or not high:
                return self._write_leaf_chain(points)
            lo_no = self._build(
                low, Box3(box.min_x, box.min_y, box.min_e, box.max_x, box.max_y, ce)
            )
            hi_no = self._build(
                high, Box3(box.min_x, box.min_y, ce, box.max_x, box.max_y, box.max_e)
            )
            page_no, buf = self._segment.allocate()
            _HEADER.pack_into(buf, 0, _INTERNAL_E, 2)
            _E_SPLIT.pack_into(buf, _HEADER.size, ce, lo_no, hi_no)
            self._segment.mark_dirty(page_no)
            return page_no
        # Quadrant split at the box midpoint.
        cx = (box.min_x + box.max_x) / 2
        cy = (box.min_y + box.max_y) / 2
        quads: list[list[tuple[float, float, float, int]]] = [[], [], [], []]
        for p in points:
            idx = (1 if p[0] >= cx else 0) | (2 if p[1] >= cy else 0)
            quads[idx].append(p)
        if sum(1 for q in quads if q) <= 1:
            return self._write_leaf_chain(points)
        child_boxes = (
            Box3(box.min_x, box.min_y, box.min_e, cx, cy, box.max_e),
            Box3(cx, box.min_y, box.min_e, box.max_x, cy, box.max_e),
            Box3(box.min_x, cy, box.min_e, cx, box.max_y, box.max_e),
            Box3(cx, cy, box.min_e, box.max_x, box.max_y, box.max_e),
        )
        children = [
            self._build(quads[i], child_boxes[i]) if quads[i] else 0
            for i in range(4)
        ]
        page_no, buf = self._segment.allocate()
        _HEADER.pack_into(buf, 0, _INTERNAL_XY, 4)
        _XY_SPLIT.pack_into(buf, _HEADER.size, cx, cy, *children)
        self._segment.mark_dirty(page_no)
        return page_no

    def _write_leaf(
        self, points: Sequence[tuple[float, float, float, int]]
    ) -> int:
        page_no, buf = self._segment.allocate()
        _HEADER.pack_into(buf, 0, _LEAF, len(points))
        offset = _HEADER.size
        for x, y, e, value in points:
            _POINT.pack_into(buf, offset, x, y, e, value)
            offset += _POINT.size
        self._segment.mark_dirty(page_no)
        return page_no

    def _write_leaf_chain(
        self, points: list[tuple[float, float, float, int]]
    ) -> int:
        """Indivisible population (e.g. identical coordinates): spill
        across leaf pages linked by chain nodes.  Chain nodes carry no
        split value — searches must visit both children — because the
        population cannot be partitioned spatially."""
        if len(points) <= self._leaf_cap:
            return self._write_leaf(points)
        head = points[: self._leaf_cap]
        rest = points[self._leaf_cap :]
        left = self._write_leaf(head)
        right = self._write_leaf_chain(rest)
        page_no, buf = self._segment.allocate()
        _HEADER.pack_into(buf, 0, _CHAIN, 2)
        _E_SPLIT.pack_into(buf, _HEADER.size, 0.0, left, right)
        self._segment.mark_dirty(page_no)
        return page_no

    # -- query -------------------------------------------------------------------------

    def range_search(self, query: Box3) -> list[tuple[float, float, float, int]]:
        """All ``(x, y, e, value)`` points inside the closed ``query`` box."""
        if self._count == 0 or self._space is None:
            return []
        results: list[tuple[float, float, float, int]] = []
        stack: list[tuple[int, Box3]] = [(self._root, self._space)]
        while stack:
            page_no, box = stack.pop()
            if not box.intersects(query):
                continue
            buf = self._segment.fetch(page_no)
            node_type, count = _HEADER.unpack_from(buf, 0)
            if node_type == _LEAF:
                offset = _HEADER.size
                for _ in range(count):
                    x, y, e, value = _POINT.unpack_from(buf, offset)
                    offset += _POINT.size
                    if query.contains_point(x, y, e):
                        results.append((x, y, e, value))
            elif node_type == _CHAIN:
                _, lo_no, hi_no = _E_SPLIT.unpack_from(buf, _HEADER.size)
                stack.append((lo_no, box))
                stack.append((hi_no, box))
            elif node_type == _INTERNAL_E:
                ce, lo_no, hi_no = _E_SPLIT.unpack_from(buf, _HEADER.size)
                stack.append(
                    (lo_no, Box3(box.min_x, box.min_y, box.min_e,
                                 box.max_x, box.max_y, ce))
                )
                stack.append(
                    (hi_no, Box3(box.min_x, box.min_y, ce,
                                 box.max_x, box.max_y, box.max_e))
                )
            else:
                cx, cy, c0, c1, c2, c3 = _XY_SPLIT.unpack_from(buf, _HEADER.size)
                child_boxes = (
                    Box3(box.min_x, box.min_y, box.min_e, cx, cy, box.max_e),
                    Box3(cx, box.min_y, box.min_e, box.max_x, cy, box.max_e),
                    Box3(box.min_x, cy, box.min_e, cx, box.max_y, box.max_e),
                    Box3(cx, cy, box.min_e, box.max_x, box.max_y, box.max_e),
                )
                for child, child_box in zip((c0, c1, c2, c3), child_boxes):
                    if child:
                        stack.append((child, child_box))
        return results

    def count_in_range(self, query: Box3) -> int:
        """Number of points inside ``query``."""
        return len(self.range_search(query))
