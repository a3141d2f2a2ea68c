"""Disk-backed B+-tree mapping 64-bit keys to 64-bit values.

The reproduction's stand-in for the paper's "B+-tree indexes ... created
wherever necessary for all the tables used": primarily the node-ID to
RID index that the PM baseline uses to fetch parents and children
during selective refinement, which is exactly the per-node retrieval
cost Direct Mesh is designed to avoid.

One node per page.  Page 0 is metadata.  Leaves are chained for range
scans.  Keys are unique.  The tree is packed once from sorted keys
(:meth:`BPlusTree.bulk_load`) and only read after that: the PM
baseline's tables are written once, like every index here.
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence

from repro.errors import IndexError_
from repro.storage.database import Segment

__all__ = ["BPlusTree"]

_META = struct.Struct("<4sIHQ")
_MAGIC = b"BPT1"
_HEADER = struct.Struct("<BHI")  # type, count, next-leaf (leaves only)
_LEAF_ENTRY = struct.Struct("<QQ")
_KEY = struct.Struct("<Q")
_CHILD = struct.Struct("<I")

_LEAF = 0
_INTERNAL = 1
_NO_PAGE = 0xFFFFFFFF


class BPlusTree:
    """A B+-tree stored in one database segment."""

    def __init__(self, segment: Segment) -> None:
        self._segment = segment
        page = segment.payload_size
        self._leaf_cap = (page - _HEADER.size) // _LEAF_ENTRY.size
        self._internal_cap = (page - _HEADER.size - _CHILD.size) // (
            _KEY.size + _CHILD.size
        )
        if segment.n_pages == 0:
            self._bootstrap()
        else:
            self._load_meta()

    # -- metadata ----------------------------------------------------------

    def _bootstrap(self) -> None:
        meta_no, _ = self._segment.allocate()
        if meta_no != 0:
            raise IndexError_("meta page must be page 0")
        root_no, buf = self._segment.allocate()
        self._write_leaf(root_no, [], _NO_PAGE, buf=buf)
        self._root = root_no
        self._height = 1
        self._count = 0
        self._save_meta()

    def _load_meta(self) -> None:
        buf = self._segment.fetch(0)
        magic, root, height, count = _META.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise IndexError_(f"segment {self._segment.name} is not a B+-tree")
        self._root = root
        self._height = height
        self._count = count

    def _save_meta(self) -> None:
        buf = self._segment.fetch(0)
        _META.pack_into(buf, 0, _MAGIC, self._root, self._height, self._count)
        self._segment.mark_dirty(0)

    # -- node codecs ----------------------------------------------------------

    def _read_node(self, page_no: int):
        buf = self._segment.fetch(page_no)
        node_type, count, next_leaf = _HEADER.unpack_from(buf, 0)
        if node_type == _LEAF:
            entries = [
                _LEAF_ENTRY.unpack_from(buf, _HEADER.size + i * _LEAF_ENTRY.size)
                for i in range(count)
            ]
            return _LEAF, entries, next_leaf
        keys = []
        children = []
        offset = _HEADER.size
        (child0,) = _CHILD.unpack_from(buf, offset)
        children.append(child0)
        offset += _CHILD.size
        for _ in range(count):
            (key,) = _KEY.unpack_from(buf, offset)
            offset += _KEY.size
            (child,) = _CHILD.unpack_from(buf, offset)
            offset += _CHILD.size
            keys.append(key)
            children.append(child)
        return _INTERNAL, (keys, children), _NO_PAGE

    def _write_leaf(
        self,
        page_no: int,
        entries: Sequence[tuple[int, int]],
        next_leaf: int,
        buf: bytearray | None = None,
    ) -> None:
        if len(entries) > self._leaf_cap:
            raise IndexError_(f"leaf overflow: {len(entries)}")
        if buf is None:
            buf = self._segment.fetch(page_no)
        _HEADER.pack_into(buf, 0, _LEAF, len(entries), next_leaf)
        offset = _HEADER.size
        for key, value in entries:
            _LEAF_ENTRY.pack_into(buf, offset, key, value)
            offset += _LEAF_ENTRY.size
        self._segment.mark_dirty(page_no)

    def _write_internal(
        self,
        page_no: int,
        keys: Sequence[int],
        children: Sequence[int],
        buf: bytearray,
    ) -> None:
        if len(keys) > self._internal_cap:
            raise IndexError_(f"internal overflow: {len(keys)}")
        if len(children) != len(keys) + 1:
            raise IndexError_("children/keys arity mismatch")
        _HEADER.pack_into(buf, 0, _INTERNAL, len(keys), _NO_PAGE)
        offset = _HEADER.size
        _CHILD.pack_into(buf, offset, children[0])
        offset += _CHILD.size
        for key, child in zip(keys, children[1:]):
            _KEY.pack_into(buf, offset, key)
            offset += _KEY.size
            _CHILD.pack_into(buf, offset, child)
            offset += _CHILD.size
        self._segment.mark_dirty(page_no)

    # -- properties -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Tree height (1 = root is a leaf)."""
        return self._height

    # -- search -----------------------------------------------------------------------

    def _descend(self, key: int) -> int:
        """The leaf page that would hold ``key``."""
        page_no = self._root
        while True:
            node_type, payload, _ = self._read_node(page_no)
            if node_type == _LEAF:
                return page_no
            keys, children = payload
            page_no = children[_upper_bound(keys, key)]

    def get(self, key: int) -> int | None:
        """The value stored for ``key``, or ``None``."""
        leaf_no = self._descend(key)
        _, entries, _ = self._read_node(leaf_no)
        idx = _entry_search(entries, key)
        if idx is not None:
            return entries[idx][1]
        return None

    def range(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(key, value)`` for ``lo <= key <= hi``."""
        leaf_no = self._descend(lo)
        while leaf_no != _NO_PAGE:
            _, entries, next_leaf = self._read_node(leaf_no)
            for key, value in entries:
                if key > hi:
                    return
                if key >= lo:
                    yield (key, value)
            leaf_no = next_leaf

    def items(self) -> Iterator[tuple[int, int]]:
        """Iterate every ``(key, value)`` in key order."""
        yield from self.range(0, (1 << 64) - 1)

    # -- bulk loading ------------------------------------------------------------------

    def bulk_load(self, items: Sequence[tuple[int, int]]) -> None:
        """Replace contents by packing sorted unique ``(key, value)``."""
        if self._count:
            raise IndexError_("bulk_load requires an empty tree")
        if not items:
            return
        for (a, _), (b, _) in zip(items, items[1:]):
            if a >= b:
                raise IndexError_("bulk_load needs strictly sorted keys")
        fill = max(2, int(self._leaf_cap * 0.9))
        # Build leaves.
        leaf_groups = [items[i : i + fill] for i in range(0, len(items), fill)]
        leaf_pages: list[int] = []
        for _ in leaf_groups:
            page_no, _ = self._segment.allocate()
            leaf_pages.append(page_no)
        for i, group in enumerate(leaf_groups):
            nxt = leaf_pages[i + 1] if i + 1 < len(leaf_pages) else _NO_PAGE
            self._write_leaf(leaf_pages[i], group, nxt)
        level_pages = leaf_pages
        level_keys = [group[0][0] for group in leaf_groups]
        height = 1
        ifill = max(2, int(self._internal_cap * 0.9))
        while len(level_pages) > 1:
            next_pages: list[int] = []
            next_keys: list[int] = []
            for i in range(0, len(level_pages), ifill + 1):
                chunk_pages = level_pages[i : i + ifill + 1]
                chunk_keys = level_keys[i + 1 : i + len(chunk_pages)]
                page_no, buf = self._segment.allocate()
                self._write_internal(page_no, chunk_keys, chunk_pages, buf=buf)
                next_pages.append(page_no)
                next_keys.append(level_keys[i])
            level_pages = next_pages
            level_keys = next_keys
            height += 1
        self._root = level_pages[0]
        self._height = height
        self._count = len(items)
        self._save_meta()

    # -- validation --------------------------------------------------------------------

    def validate(self) -> None:
        """Check key ordering and leaf chaining."""
        previous = -1
        seen = 0
        for key, _ in self.items():
            if key <= previous:
                raise IndexError_(f"key order violated at {key}")
            previous = key
            seen += 1
        if seen != self._count:
            raise IndexError_(f"count mismatch: {seen} != {self._count}")


def _upper_bound(keys: Sequence[int], key: int) -> int:
    """First index whose key is strictly greater than ``key``."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _entry_search(entries: Sequence[tuple[int, int]], key: int) -> int | None:
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] < key:
            lo = mid + 1
        elif entries[mid][0] > key:
            hi = mid
        else:
            return mid
    return None
