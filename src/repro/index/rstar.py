"""Disk-backed R*-tree over 3D boxes (Beckmann et al., SIGMOD '90).

This is the "general purpose spatial index" the paper builds Direct
Mesh on: DM nodes become vertical segments in ``(x, y, e)`` space and
are indexed here; 2D use cases (the LOD-R-tree/HDoV base) pass
degenerate boxes with ``min_e == max_e``.

Every tree node occupies one page of a
:class:`~repro.storage.database.Segment`, so index traversal cost is
measured by the same disk-access counters as table access.

Implemented:

* range search (:meth:`RStarTree.search`);
* dynamic insertion with the R* heuristics — ChooseSubtree with
  minimum overlap enlargement at the leaf level, forced reinsert (30%,
  once per level per insert), and the R* split (choose axis by margin
  sum, distribution by overlap);
* STR (sort-tile-recursive) bulk loading, used by the benchmark
  datasets for build speed — packing is the standard practice for
  static data [Kamel & Faloutsos];
* node-geometry statistics feeding the paper's I/O cost model
  (formulas (1)-(2)).

Page 0 of the segment is a metadata page: root page number, tree
height, entry count, and the data-space MBR used for cost-model
normalisation.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import IndexError_, InvariantError
from repro.geometry.primitives import Box3, union_all_boxes
from repro.storage.database import Segment

__all__ = ["RStarTree", "RTreeNodeStats", "str_groups", "str_order"]

_META = struct.Struct("<4sIHQ6d")
_MAGIC = b"RST1"
_NODE_HEADER = struct.Struct("<BH")
_ENTRY = struct.Struct("<6dQ")

#: Fraction of entries removed by forced reinsert.
_REINSERT_FRACTION = 0.3
#: Minimum node fill fraction.
_MIN_FILL = 0.4


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
    """A 3D R*-tree stored in one database segment."""

    def __init__(self, segment: Segment) -> None:
        self._segment = segment
        self._capacity = (segment.payload_size - _NODE_HEADER.size) // _ENTRY.size
        self._min_entries = max(2, int(self._capacity * _MIN_FILL))
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
        buf: bytearray | None = None,
    ) -> None:
        if len(entries) > self._capacity:
            raise IndexError_(
                f"node overflow: {len(entries)} > {self._capacity}"
            )
        if buf is None:
            buf = self._segment.fetch(page_no)
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
        """MBR of everything ever inserted (cost-model normalisation)."""
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

    def search_with_boxes(self, query: Box3) -> list[tuple[Box3, int]]:
        """Like :meth:`search` but returns ``(box, payload)`` pairs."""
        results: list[tuple[Box3, int]] = []
        stack = [self._root]
        while stack:
            page_no = stack.pop()
            is_leaf, entries = self._read_node(page_no)
            for box, payload in entries:
                if not box.intersects(query):
                    continue
                if is_leaf:
                    results.append((box, payload))
                else:
                    stack.append(payload)
        return results

    def all_entries(self) -> Iterable[tuple[Box3, int]]:
        """Iterate every leaf entry (for tests and rebuilds)."""
        stack = [self._root]
        while stack:
            page_no = stack.pop()
            is_leaf, entries = self._read_node(page_no)
            for box, payload in entries:
                if is_leaf:
                    yield (box, payload)
                else:
                    stack.append(payload)

    # -- insertion ---------------------------------------------------------------------

    def insert(self, box: Box3, value: int) -> None:
        """Insert one ``(box, value)`` pair with the R* heuristics."""
        self._space = box if self._space is None else self._space.union(box)
        self._reinserted_levels: set[int] = set()
        self._insert_entry((box, value), target_level=1)
        self._count += 1
        self._save_meta()

    def _insert_entry(
        self, entry: tuple[Box3, int], target_level: int
    ) -> None:
        """Insert ``entry`` into a node at ``target_level`` (1 = leaf)."""
        path = self._choose_path(entry[0], target_level)
        page_no = path[-1]
        is_leaf, entries = self._read_node(page_no)
        entries.append(entry)
        if len(entries) <= self._capacity:
            self._write_node(page_no, is_leaf, entries)
            self._adjust_path(path)
            return
        self._overflow(path, is_leaf, entries, target_level)

    def _choose_path(self, box: Box3, target_level: int) -> list[int]:
        """Page numbers from the root to the chosen node at
        ``target_level`` (levels count 1 at the leaves)."""
        path = [self._root]
        level = self._height
        while level > target_level:
            page_no = path[-1]
            _, entries = self._read_node(page_no)
            if not entries:
                raise IndexError_("internal node with no entries")
            if level - 1 == 1:
                chosen = self._least_overlap_child(entries, box)
            else:
                chosen = self._least_enlargement_child(entries, box)
            path.append(chosen)
            level -= 1
        return path

    @staticmethod
    def _least_enlargement_child(
        entries: list[tuple[Box3, int]], box: Box3
    ) -> int:
        best = None
        best_key = None
        for child_box, child in entries:
            key = (child_box.enlargement(box), child_box.volume)
            if best_key is None or key < best_key:
                best_key = key
                best = child
        if best is None:
            raise InvariantError("ChooseSubtree saw an empty entry list")
        return best

    @staticmethod
    def _least_overlap_child(
        entries: list[tuple[Box3, int]], box: Box3
    ) -> int:
        """R* ChooseSubtree at the level above the leaves: minimise
        overlap enlargement, tie-break on volume enlargement."""
        best = None
        best_key = None
        for i, (child_box, child) in enumerate(entries):
            grown = child_box.union(box)
            overlap_before = 0.0
            overlap_after = 0.0
            for j, (other_box, _) in enumerate(entries):
                if i == j:
                    continue
                overlap_before += child_box.intersection_volume(other_box)
                overlap_after += grown.intersection_volume(other_box)
            key = (
                overlap_after - overlap_before,
                child_box.enlargement(box),
                child_box.volume,
            )
            if best_key is None or key < best_key:
                best_key = key
                best = child
        if best is None:
            raise InvariantError("ChooseSubtree saw an empty entry list")
        return best

    def _adjust_path(self, path: list[int]) -> None:
        """Recompute parent MBRs bottom-up along ``path``."""
        for depth in range(len(path) - 2, -1, -1):
            parent_no = path[depth]
            child_no = path[depth + 1]
            _, child_entries = self._read_node(child_no)
            child_box = union_all_boxes([b for b, _ in child_entries])
            is_leaf, parent_entries = self._read_node(parent_no)
            changed = False
            for i, (box, payload) in enumerate(parent_entries):
                if payload == child_no:
                    if box.as_tuple() != child_box.as_tuple():
                        parent_entries[i] = (child_box, payload)
                        changed = True
                    break
            if changed:
                self._write_node(parent_no, is_leaf, parent_entries)

    def _overflow(
        self,
        path: list[int],
        is_leaf: bool,
        entries: list[tuple[Box3, int]],
        level: int,
    ) -> None:
        page_no = path[-1]
        is_root = page_no == self._root
        if not is_root and level not in self._reinserted_levels:
            self._reinserted_levels.add(level)
            self._forced_reinsert(path, is_leaf, entries, level)
            return
        self._split(path, is_leaf, entries, level)

    def _forced_reinsert(
        self,
        path: list[int],
        is_leaf: bool,
        entries: list[tuple[Box3, int]],
        level: int,
    ) -> None:
        page_no = path[-1]
        center_box = union_all_boxes([b for b, _ in entries])
        cx, cy, ce = center_box.center
        entries.sort(
            key=lambda ent: _center_distance_sq(ent[0], cx, cy, ce),
            reverse=True,
        )
        k = max(1, int(len(entries) * _REINSERT_FRACTION))
        removed = entries[:k]
        kept = entries[k:]
        self._write_node(page_no, is_leaf, kept)
        self._adjust_path(path)
        # Re-insert far entries (close reinsert: nearest first).
        for entry in reversed(removed):
            self._insert_entry(entry, target_level=level)

    def _split(
        self,
        path: list[int],
        is_leaf: bool,
        entries: list[tuple[Box3, int]],
        level: int,
    ) -> None:
        group_a, group_b = self._rstar_split(entries)
        page_no = path[-1]
        self._write_node(page_no, is_leaf, group_a)
        new_no, new_buf = self._segment.allocate()
        self._write_node(new_no, is_leaf, group_b, buf=new_buf)
        box_a = union_all_boxes([b for b, _ in group_a])
        box_b = union_all_boxes([b for b, _ in group_b])

        if page_no == self._root:
            root_no, root_buf = self._segment.allocate()
            self._write_node(
                root_no,
                False,
                [(box_a, page_no), (box_b, new_no)],
                buf=root_buf,
            )
            self._root = root_no
            self._height += 1
            self._save_meta()
            return

        parent_no = path[-2]
        p_is_leaf, parent_entries = self._read_node(parent_no)
        for i, (box, payload) in enumerate(parent_entries):
            if payload == page_no:
                parent_entries[i] = (box_a, page_no)
                break
        else:
            raise IndexError_("split child missing from parent")
        parent_entries.append((box_b, new_no))
        if len(parent_entries) <= self._capacity:
            self._write_node(parent_no, p_is_leaf, parent_entries)
            self._adjust_path(path[:-1])
            return
        self._overflow(path[:-1], p_is_leaf, parent_entries, level + 1)

    def _rstar_split(
        self, entries: list[tuple[Box3, int]]
    ) -> tuple[list[tuple[Box3, int]], list[tuple[Box3, int]]]:
        """R* split: pick the axis with minimum margin sum, then the
        distribution with minimum overlap (ties: minimum volume)."""
        m = self._min_entries
        best_axis_key = None
        best_axis_dists = None
        for axis in range(3):
            lo = sorted(entries, key=lambda ent: _axis_bounds(ent[0], axis)[0])
            hi = sorted(entries, key=lambda ent: _axis_bounds(ent[0], axis)[1])
            margin_sum = 0.0
            dists = []
            for ordering in (lo, hi):
                for k in range(m, len(entries) - m + 1):
                    left = ordering[:k]
                    right = ordering[k:]
                    box_l = union_all_boxes([b for b, _ in left])
                    box_r = union_all_boxes([b for b, _ in right])
                    margin_sum += box_l.margin + box_r.margin
                    dists.append((left, right, box_l, box_r))
            if best_axis_key is None or margin_sum < best_axis_key:
                best_axis_key = margin_sum
                best_axis_dists = dists
        if best_axis_dists is None:
            raise InvariantError(
                "R* split produced no candidate distributions",
                entries=len(entries),
            )
        best = None
        best_key = None
        for left, right, box_l, box_r in best_axis_dists:
            key = (box_l.intersection_volume(box_r), box_l.volume + box_r.volume)
            if best_key is None or key < best_key:
                best_key = key
                best = (left, right)
        if best is None:
            raise InvariantError("R* split chose no distribution")
        return best

    # -- deletion ----------------------------------------------------------------------

    def delete(self, box: Box3, value: int) -> bool:
        """Remove the leaf entry ``(box, value)``; returns whether it
        was found.

        Standard R-tree deletion with CondenseTree: the entry's leaf
        is located by overlap search; if removal leaves the leaf
        underfull, the leaf is dissolved and its remaining entries
        re-inserted; ancestors' MBRs shrink along the way.
        """
        path = self._find_entry(self._root, [], box, value)
        if path is None:
            return False
        leaf_no = path[-1]
        _, entries = self._read_node(leaf_no)
        entries = [
            (b, v)
            for b, v in entries
            if not (v == value and b.as_tuple() == box.as_tuple())
        ]
        self._count -= 1
        orphans: list[tuple[Box3, int]] = []
        if leaf_no != self._root and len(entries) < self._min_entries:
            # Dissolve the leaf; re-insert survivors afterwards.
            orphans = entries
            self._remove_child(path)
        else:
            self._write_node(leaf_no, True, entries)
            self._adjust_path(path)
        for orphan_box, orphan_value in orphans:
            self._reinserted_levels = set()
            self._insert_entry((orphan_box, orphan_value), target_level=1)
        # Shrink the root if it degenerated to a single internal child.
        self._collapse_root()
        self._space = None if self._count == 0 else self._space
        self._save_meta()
        return True

    def _find_entry(
        self,
        page_no: int,
        path: list[int],
        box: Box3,
        value: int,
    ) -> list[int] | None:
        path = path + [page_no]
        is_leaf, entries = self._read_node(page_no)
        if is_leaf:
            for entry_box, payload in entries:
                if payload == value and entry_box.as_tuple() == box.as_tuple():
                    return path
            return None
        for entry_box, child in entries:
            if entry_box.contains_box(box):
                found = self._find_entry(child, path, box, value)
                if found is not None:
                    return found
        return None

    def _remove_child(self, path: list[int]) -> None:
        """Drop ``path[-1]`` from its parent, condensing upwards."""
        child_no = path[-1]
        parent_no = path[-2]
        p_is_leaf, parent_entries = self._read_node(parent_no)
        parent_entries = [
            (b, c) for b, c in parent_entries if c != child_no
        ]
        if (
            parent_no != self._root
            and len(parent_entries) < 2
            and len(path) >= 3
        ):
            # Parent now too small: dissolve it too, hoisting its
            # remaining child subtree entries via re-insertion.
            for b, c in parent_entries:
                self._reinsert_subtree(c, self._height - (len(path) - 1))
            self._remove_child(path[:-1])
            return
        self._write_node(parent_no, p_is_leaf, parent_entries)
        self._adjust_path(path[:-1])

    def _reinsert_subtree(self, page_no: int, level: int) -> None:
        is_leaf, entries = self._read_node(page_no)
        if is_leaf:
            for box, value in entries:
                self._reinserted_levels = set()
                self._insert_entry((box, value), target_level=1)
        else:
            for _, child in entries:
                self._reinsert_subtree(child, level - 1)

    def _collapse_root(self) -> None:
        while True:
            is_leaf, entries = self._read_node(self._root)
            if is_leaf or len(entries) != 1:
                return
            self._root = entries[0][1]
            self._height -= 1

    # -- bulk loading ------------------------------------------------------------------

    def bulk_load(self, entries: Sequence[tuple[Box3, int]]) -> None:
        """Replace the tree contents by STR packing of ``entries``.

        Each level's nodes are the :func:`str_groups` tiles of the
        level below at 85 % fill; repeat on the node MBRs until a
        single root remains.
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
            for indices in str_groups(boxes, fill):
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

    # -- cost-model statistics ---------------------------------------------------------

    def node_stats(self) -> RTreeNodeStats:
        """Aggregate normalised node extents for the paper's cost model."""
        space = self._space
        if space is None:
            raise IndexError_("empty tree has no node statistics")
        ex = space.width or 1.0
        ey = space.height or 1.0
        ez = space.depth or 1.0
        n = 0
        sw = sh = sd = swh = swd = shd = swhd = 0.0
        stack = [self._root]
        while stack:
            page_no = stack.pop()
            is_leaf, entries = self._read_node(page_no)
            if entries:
                box = union_all_boxes([b for b, _ in entries])
                w = box.width / ex
                h = box.height / ey
                d = box.depth / ez
                n += 1
                sw += w
                sh += h
                sd += d
                swh += w * h
                swd += w * d
                shd += h * d
                swhd += w * h * d
            if not is_leaf:
                stack.extend(child for _, child in entries)
        return RTreeNodeStats(n, sw, sh, sd, swh, swd, shd, swhd, space)

    # -- validation --------------------------------------------------------------------

    def validate(self) -> None:
        """Check MBR containment, fill factors, and uniform leaf depth."""
        leaf_depths: set[int] = set()

        def recurse(page_no: int, depth: int, bound: Box3 | None) -> None:
            is_leaf, entries = self._read_node(page_no)
            if page_no != self._root and len(entries) < 2:
                raise IndexError_(f"underfull node {page_no}")
            for box, payload in entries:
                if bound is not None and not bound.contains_box(box):
                    raise IndexError_(
                        f"entry box escapes parent MBR at page {page_no}"
                    )
                if not is_leaf:
                    recurse(payload, depth + 1, box)
            if is_leaf:
                leaf_depths.add(depth)

        recurse(self._root, 1, None)
        if len(leaf_depths) > 1:
            raise IndexError_(f"leaves at multiple depths: {leaf_depths}")
        if leaf_depths and leaf_depths.pop() != self._height:
            raise IndexError_("height metadata does not match leaf depth")


def _axis_bounds(box: Box3, axis: int) -> tuple[float, float]:
    if axis == 0:
        return (box.min_x, box.max_x)
    if axis == 1:
        return (box.min_y, box.max_y)
    return (box.min_e, box.max_e)


def _center_distance_sq(box: Box3, cx: float, cy: float, ce: float) -> float:
    x, y, e = box.center
    return (x - cx) ** 2 + (y - cy) ** 2 + (e - ce) ** 2


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
