"""Heap files: sequences of variable-length records with RID access.

A heap file stores records in slotted pages of one segment.  Records
are addressed by **RID** — ``(page number, slot)`` packed into a single
64-bit integer so RIDs fit index payloads directly.

Insertion order is preserved page by page, which is what lets callers
control physical clustering: the paper arranges terrain data "on the
disk in such a way that their (x, y) clustering is preserved", so the
dataset builders sort records spatially before bulk-inserting them.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import StorageError
from repro.storage.database import Segment
from repro.storage.page import SlottedPage

__all__ = ["HeapFile", "pack_rid", "unpack_rid"]


def pack_rid(page_no: int, slot: int) -> int:
    """Pack ``(page_no, slot)`` into one 64-bit RID."""
    if not 0 <= slot < (1 << 16):
        raise StorageError(f"slot {slot} out of 16-bit range")
    if not 0 <= page_no < (1 << 47):
        raise StorageError(f"page {page_no} out of range")
    return (page_no << 16) | slot


def unpack_rid(rid: int) -> tuple[int, int]:
    """Unpack a 64-bit RID into ``(page_no, slot)``."""
    return rid >> 16, rid & 0xFFFF


class HeapFile:
    """Variable-length record storage over one segment."""

    def __init__(self, segment: Segment) -> None:
        self._segment = segment
        self._tail_page = segment.n_pages - 1 if segment.n_pages else None

    @property
    def segment(self) -> Segment:
        """The underlying segment."""
        return self._segment

    @property
    def n_pages(self) -> int:
        """Number of allocated pages."""
        return self._segment.n_pages

    # -- writes ---------------------------------------------------------------

    def insert(self, payload: bytes) -> int:
        """Append a record; returns its RID."""
        if self._tail_page is not None:
            buf = self._segment.fetch(self._tail_page)
            page = SlottedPage(buf, self._segment.payload_size)
            if page.can_fit(len(payload)):
                slot = page.insert(payload)
                self._segment.mark_dirty(self._tail_page)
                return pack_rid(self._tail_page, slot)
        page_no, buf = self._segment.allocate()
        page = SlottedPage.format(buf, self._segment.payload_size)
        if not page.can_fit(len(payload)):
            raise StorageError(
                f"record of {len(payload)} bytes cannot fit on an empty page"
            )
        slot = page.insert(payload)
        self._segment.mark_dirty(page_no)
        self._tail_page = page_no
        return pack_rid(page_no, slot)

    def delete(self, rid: int) -> None:
        """Delete the record at ``rid``."""
        page_no, slot = unpack_rid(rid)
        buf = self._segment.fetch(page_no)
        SlottedPage(buf, self._segment.payload_size).delete(slot)
        self._segment.mark_dirty(page_no)

    # -- reads -------------------------------------------------------------------

    def read(self, rid: int) -> bytes:
        """The record payload at ``rid``."""
        page_no, slot = unpack_rid(rid)
        buf = self._segment.fetch(page_no)
        return SlottedPage(buf, self._segment.payload_size).read(slot)

    def read_many(self, rids: Iterable[int]) -> list[bytes]:
        """Read several records, *sorted by page* to minimise I/O.

        Returns payloads in the order of the input RIDs.
        """
        rid_list = list(rids)
        order = sorted(range(len(rid_list)), key=lambda i: rid_list[i])
        out: list[bytes] = [b""] * len(rid_list)
        for i in order:
            out[i] = self.read(rid_list[i])
        return out

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """Iterate ``(rid, payload)`` over all live records."""
        for page_no in range(self._segment.n_pages):
            buf = self._segment.fetch(page_no)
            page = SlottedPage(buf, self._segment.payload_size)
            for slot, payload in page.records():
                yield pack_rid(page_no, slot), payload

    def count(self) -> int:
        """Number of live records (scans the file)."""
        return sum(1 for _ in self.scan())
