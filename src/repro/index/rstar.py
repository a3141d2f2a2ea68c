"""Disk-backed R-tree over 3D boxes, STR-packed and read-only.

This is the "general purpose spatial index" the paper builds Direct
Mesh on: DM nodes become vertical segments in ``(x, y, e)`` space.  A
store epoch indexes the extents of its clusters here, one entry per
cluster (:mod:`repro.core.direct_mesh`); the paper-layout baseline
(:mod:`repro.baselines.paper_layout`) indexes one entry per node.
The paper built its R*-tree (Beckmann et al., SIGMOD '90) by repeated
insertion; every tree here is packed once by STR (sort-tile-recursive)
bulk loading, the standard practice for static data [Kamel &
Faloutsos], and never updated in place (DESIGN.md section 2 records
the measured difference).

Every tree node occupies one page of a
:class:`~repro.storage.database.Segment`, so index traversal cost is
measured by the same disk-access counters as table access.

Implemented:

* range search (:meth:`RStarTree.search`);
* STR bulk loading (:meth:`RStarTree.bulk_load`), one tiling shared
  with the cluster runs (:func:`str_groups`);
* the node-extent sums of the paper's I/O cost model
  (:class:`RTreeNodeStats`, formulas (1)-(2));
* a tolerant structure walk (:meth:`RStarTree.problems`), which
  ``fsck`` runs on every store epoch's tree, and
  :meth:`RStarTree.validate`, which raises its first finding.

Page 0 of the segment is a metadata page: root page number, tree
height, entry count, and the data-space MBR.  Page 1 is the empty root
a new segment starts with; ``bulk_load`` writes the packed tree after
it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Container, Iterable, Sequence

from repro.errors import IndexError_
from repro.geometry.primitives import Box3, union_all_boxes
from repro.storage.database import Segment

__all__ = ["RStarTree", "RTreeNodeStats", "str_groups", "str_order"]

_META = struct.Struct("<4sIHQ6d")
_MAGIC = b"RST1"
_NODE_HEADER = struct.Struct("<BH")
_ENTRY = struct.Struct("<6dQ")


@dataclass(frozen=True)
class RTreeNodeStats:
    """Aggregate node-extent sums for the paper's cost model.

    For nodes ``i`` with extents ``(w_i, h_i, d_i)`` *normalised to the
    data space*, the paper's formula (1) expands into eight terms whose
    coefficients are the sums stored here, so one estimate is O(1).
    """

    n_nodes: int
    sum_w: float
    sum_h: float
    sum_d: float
    sum_wh: float
    sum_wd: float
    sum_hd: float
    sum_whd: float
    data_space: Box3

    def estimate_disk_accesses(self, query: Box3) -> float:
        """``DA(R, q) = sum_i (qx + w_i) (qy + h_i) (qz + d_i)``.

        ``query`` is given in data coordinates and normalised here.
        """
        space = self.data_space
        ex = space.width or 1.0
        ey = space.height or 1.0
        ez = space.depth or 1.0
        qx = query.width / ex
        qy = query.height / ey
        qz = query.depth / ez
        return (
            self.n_nodes * qx * qy * qz
            + qy * qz * self.sum_w
            + qx * qz * self.sum_h
            + qx * qy * self.sum_d
            + qz * self.sum_wh
            + qy * self.sum_wd
            + qx * self.sum_hd
            + self.sum_whd
        )


class RStarTree:
    """A 3D R-tree stored in one database segment, packed once by
    :meth:`bulk_load` and only read after that."""

    def __init__(self, segment: Segment) -> None:
        self._segment = segment
        self._capacity = (segment.payload_size - _NODE_HEADER.size) // _ENTRY.size
        if segment.n_pages == 0:
            self._bootstrap()
        else:
            self._load_meta()

    # -- construction -------------------------------------------------------

    def _bootstrap(self) -> None:
        meta_no, _ = self._segment.allocate()
        if meta_no != 0:
            raise IndexError_("meta page must be page 0")
        root_no, root_buf = self._segment.allocate()
        self._write_node(root_no, True, [], buf=root_buf)
        self._root = root_no
        self._height = 1
        self._count = 0
        self._space: Box3 | None = None
        self._save_meta()

    def _load_meta(self) -> None:
        buf = self._segment.fetch(0)
        magic, root, height, count, x0, y0, e0, x1, y1, e1 = _META.unpack_from(
            buf, 0
        )
        if magic != _MAGIC:
            raise IndexError_(f"segment {self._segment.name} is not an R*-tree")
        self._root = root
        self._height = height
        self._count = count
        if count:
            self._space = Box3(x0, y0, e0, x1, y1, e1)
        else:
            self._space = None

    def _save_meta(self) -> None:
        buf = self._segment.fetch(0)
        space = self._space or Box3(0, 0, 0, 0, 0, 0)
        _META.pack_into(
            buf,
            0,
            _MAGIC,
            self._root,
            self._height,
            self._count,
            space.min_x,
            space.min_y,
            space.min_e,
            space.max_x,
            space.max_y,
            space.max_e,
        )
        self._segment.mark_dirty(0)

    # -- node codec -----------------------------------------------------------

    def _read_node(self, page_no: int) -> tuple[bool, list[tuple[Box3, int]]]:
        buf = self._segment.fetch(page_no)
        is_leaf, count = _NODE_HEADER.unpack_from(buf, 0)
        entries: list[tuple[Box3, int]] = []
        offset = _NODE_HEADER.size
        for _ in range(count):
            x0, y0, e0, x1, y1, e1, payload = _ENTRY.unpack_from(buf, offset)
            entries.append((Box3(x0, y0, e0, x1, y1, e1), payload))
            offset += _ENTRY.size
        return bool(is_leaf), entries

    def _write_node(
        self,
        page_no: int,
        is_leaf: bool,
        entries: Sequence[tuple[Box3, int]],
        buf: bytearray,
    ) -> None:
        if len(entries) > self._capacity:
            raise IndexError_(
                f"node overflow: {len(entries)} > {self._capacity}"
            )
        _NODE_HEADER.pack_into(buf, 0, 1 if is_leaf else 0, len(entries))
        offset = _NODE_HEADER.size
        for box, payload in entries:
            _ENTRY.pack_into(
                buf,
                offset,
                box.min_x,
                box.min_y,
                box.min_e,
                box.max_x,
                box.max_y,
                box.max_e,
                payload,
            )
            offset += _ENTRY.size
        self._segment.mark_dirty(page_no)

    # -- properties ---------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum entries per node (one node per page)."""
        return self._capacity

    @property
    def height(self) -> int:
        """Tree height (1 = root is a leaf)."""
        return self._height

    def __len__(self) -> int:
        return self._count

    @property
    def data_space(self) -> Box3 | None:
        """MBR of every entry (cost-model normalisation)."""
        return self._space

    # -- search ----------------------------------------------------------------------

    def search(self, query: Box3) -> list[int]:
        """Payloads of all leaf entries whose box intersects ``query``."""
        results: list[int] = []
        stack = [(self._root, self._height)]
        while stack:
            page_no, level = stack.pop()
            is_leaf, entries = self._read_node(page_no)
            if is_leaf:
                for box, payload in entries:
                    if box.intersects(query):
                        results.append(payload)
            else:
                for box, child in entries:
                    if box.intersects(query):
                        stack.append((child, level - 1))
        return results

    def all_entries(self) -> Iterable[tuple[Box3, int]]:
        """Iterate every leaf entry."""
        stack = [self._root]
        while stack:
            page_no = stack.pop()
            is_leaf, entries = self._read_node(page_no)
            for box, payload in entries:
                if is_leaf:
                    yield (box, payload)
                else:
                    stack.append(payload)

    # -- bulk loading ------------------------------------------------------------------

    def bulk_load(self, entries: Sequence[tuple[Box3, int]]) -> None:
        """Pack ``entries`` into this empty tree by STR.

        Each level's nodes are the :func:`str_groups` tiles of the
        level below at 85 % fill; repeat on the node MBRs until a
        single root remains.  A level that fits one node is the root.
        """
        if self._count:
            raise IndexError_("bulk_load requires an empty tree")
        if not entries:
            return
        fill = max(2, int(self._capacity * 0.85))
        level_entries = list(entries)
        is_leaf = True
        level = 1
        while True:
            next_level: list[tuple[Box3, int]] = []
            boxes = [box for box, _ in level_entries]
            groups = (
                [range(len(boxes))]
                if len(boxes) <= self._capacity
                else str_groups(boxes, fill)
            )
            for indices in groups:
                group = [level_entries[i] for i in indices]
                page_no, buf = self._segment.allocate()
                self._write_node(page_no, is_leaf, group, buf=buf)
                next_level.append(
                    (union_all_boxes([boxes[i] for i in indices]), page_no)
                )
            if len(next_level) == 1:
                self._root = next_level[0][1]
                self._height = level
                break
            level_entries = next_level
            is_leaf = False
            level += 1
        self._count = len(entries)
        self._space = union_all_boxes([b for b, _ in entries])
        self._save_meta()

    # -- validation --------------------------------------------------------------------

    def problems(self, skip: Container[int] = ()) -> list[str]:
        """Every structural fault of the tree, reported, not raised.

        A tolerant walk over raw entry tuples (an inverted box is a
        finding here, where :class:`Box3` would raise).  Each node: in
        range, reached once, its count within capacity, its leaf flag
        matching its level, two entries at least below the root.  Each
        entry: ``min <= max`` on every axis and inside its parent
        entry's box.  Then the meta page's entry count and data space
        against the leaves.  Pages in ``skip`` (the crc scan's
        findings) are not read, and the meta checks, which need every
        leaf, are then left out: one corrupt page is one fault.
        """
        problems: list[str] = []
        leaves: list[tuple[float, ...]] = []
        visited: set[int] = set()
        complete = True
        # (page, level, parent entry box; empty for the root)
        stack: list[tuple[int, int, Sequence[float]]] = [
            (self._root, self._height, ())
        ]
        while stack:
            page_no, level, bound = stack.pop()
            if page_no in visited:
                problems.append(f"node page {page_no} reachable twice (cycle?)")
                continue
            visited.add(page_no)
            if page_no in skip or not 0 < page_no < self._segment.n_pages:
                if page_no not in skip:
                    problems.append(f"child pointer to page {page_no} out of range")
                complete = False
                continue
            buf = self._segment.fetch(page_no)
            is_leaf, count = _NODE_HEADER.unpack_from(buf, 0)
            node = f"node page {page_no}"
            if count > self._capacity:
                problems.append(
                    f"{node} claims {count} entries (capacity {self._capacity})"
                )
                complete = False
                continue
            if bool(is_leaf) != (level == 1):
                problems.append(f"{node} leaf flag {bool(is_leaf)} at level {level}")
            if page_no != self._root and count < 2:
                problems.append(f"underfull node {page_no}")
            end = _NODE_HEADER.size + count * _ENTRY.size
            for *box, child in _ENTRY.iter_unpack(buf[_NODE_HEADER.size : end]):
                if box[0] > box[3] or box[1] > box[4]:
                    problems.append(f"page {page_no} entry has an inverted MBR")
                if box[2] > box[5]:
                    problems.append(
                        f"page {page_no} entry violates "
                        f"e_low <= e_high ({box[2]} > {box[5]})"
                    )
                if bound and not _contains(bound, box):
                    problems.append(f"page {page_no} entry escapes its parent MBR")
                if is_leaf:
                    leaves.append(tuple(box))
                else:
                    stack.append((child, level - 1, box))
        if complete:
            if len(leaves) != self._count:
                problems.append(
                    f"meta page counts {self._count} entries, "
                    f"leaves hold {len(leaves)}"
                )
            axes = list(zip(*leaves))
            space = (*map(min, axes[:3]), *map(max, axes[3:])) if leaves else None
            if space != (self._space.as_tuple() if self._space else None):
                problems.append("meta page data space is not the leaves' MBR")
        return problems

    def validate(self) -> None:
        """Raise :class:`~repro.errors.IndexError_` with the first of
        :meth:`problems`, if there is one."""
        problems = self.problems()
        if problems:
            raise IndexError_(problems[0])


def _contains(outer: Sequence[float], inner: Sequence[float]) -> bool:
    """Whether the raw box ``outer`` contains the raw box ``inner``
    (``(min_x, min_y, min_e, max_x, max_y, max_e)`` each)."""
    return all(o <= i for o, i in zip(outer[:3], inner[:3])) and all(
        i <= o for o, i in zip(outer[3:], inner[3:])
    )


def str_order(boxes: Sequence[Box3], capacity: int | None = None) -> list[int]:
    """The STR packing order of ``boxes`` as an index permutation: the
    flattening of :func:`str_groups`.

    Storing heap records in this order makes the heap *clustered by
    the R-tree*: each leaf node's RIDs land on contiguous pages, so a
    range query's record fetches touch ~``results / records_per_page``
    pages instead of scattering.  ``capacity`` should match the leaf
    fill used by :meth:`RStarTree.bulk_load` (its default when None).
    """
    if capacity is None:
        page = 8192  # DEFAULT_PAGE_SIZE; local to avoid import cycle.
        capacity = max(2, int(((page - _NODE_HEADER.size) // _ENTRY.size) * 0.85))
    return [i for group in str_groups(boxes, capacity) for i in group]


def str_groups(boxes: Sequence[Box3], capacity: int) -> list[list[int]]:
    """Sort-tile-recursive tiling of ``boxes`` into groups of at most
    ``capacity`` indices.

    Sort by x-centre and cut into about ``cbrt(groups)`` slabs, sort
    each slab by y-centre and cut it into runs, sort each run by
    e-centre and cut it into groups (sorts are stable: ties keep their
    order in ``boxes``).  The groups partition ``range(len(boxes))``;
    an empty input has none.  The one STR implementation: the R*-tree's
    :meth:`~RStarTree.bulk_load` nodes, the heap order
    (:func:`str_order`) and the cluster runs all tile with it.
    """
    n = len(boxes)
    if n <= capacity:
        return [list(range(n))] if n else []
    n_groups = math.ceil(n / capacity)
    centers = [box.center for box in boxes]
    # Number of vertical slabs: cube-root tiling over three dims.
    slabs_x = max(1, round(n_groups ** (1 / 3)))
    per_slab_groups = math.ceil(n_groups / slabs_x)
    slab_size = math.ceil(n / slabs_x)
    by_x = sorted(range(n), key=lambda i: centers[i][0])
    groups: list[list[int]] = []
    for sx in range(0, n, slab_size):
        slab = by_x[sx : sx + slab_size]
        runs_y = max(1, round(math.sqrt(per_slab_groups)))
        run_size = math.ceil(len(slab) / runs_y)
        by_y = sorted(slab, key=lambda i: centers[i][1])
        for sy in range(0, len(slab), run_size):
            run = by_y[sy : sy + run_size]
            by_e = sorted(run, key=lambda i: centers[i][2])
            run_groups = [
                by_e[se : se + capacity] for se in range(0, len(run), capacity)
            ]
            # A trailing singleton would violate the min-fill invariant
            # (and R-tree validation); rebalance it from its neighbour.
            if len(run_groups) >= 2 and len(run_groups[-1]) < 2:
                run_groups[-1].insert(0, run_groups[-2].pop())
            groups.extend(run_groups)
    return groups
