"""Fixed-size pages and the slotted-page record layout.

Pages are ``bytearray`` buffers of :data:`DEFAULT_PAGE_SIZE` bytes
(8 KiB, Oracle's common block size).  :class:`SlottedPage` implements
the classic slotted layout used by heap files:

* bytes ``0..2``  — ``u16`` slot count
* bytes ``2..4``  — ``u16`` free-space offset (start of unused area)
* record payloads grow *forward* from byte 4
* the slot directory grows *backward* from the page end; each slot is
  ``(u16 offset, u16 length)`` with length ``0xFFFF`` marking a
  deleted slot.

The page format (v2, the only one) additionally reserves the **last 4
bytes** of every page for a ``zlib.crc32`` trailer over the preceding
``page_size - 4`` bytes (:data:`CHECKSUM_SIZE`).  Layout code never
sees the trailer: the pager hands consumers a *payload size* of
``page_size - CHECKSUM_SIZE`` and :class:`SlottedPage` (like the index
node layouts) operates on that logical size while the buffer stays
``page_size`` bytes.  :func:`seal_page` stamps the trailer before a
page hits disk; :func:`verify_page` checks it on the way back in.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import PageError

__all__ = [
    "CHECKSUM_SIZE",
    "DEFAULT_PAGE_SIZE",
    "PAGE_FORMAT_V2",
    "SlottedPage",
    "page_checksums",
    "seal_page",
    "verify_page",
]

DEFAULT_PAGE_SIZE = 8192

#: Bytes reserved at the page tail for the CRC trailer.
CHECKSUM_SIZE = 4

#: The page format ``storage_meta.json`` records: crc32 trailer in the
#: last 4 bytes of every page.
PAGE_FORMAT_V2 = 2

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
_CRC = struct.Struct("<I")
_HEADER_SIZE = _HEADER.size
_SLOT_SIZE = _SLOT.size
_DELETED = 0xFFFF


def seal_page(buffer: bytearray) -> None:
    """Stamp the CRC trailer into ``buffer`` in place.

    Idempotent: the checksum covers only the payload bytes (everything
    before the trailer), so re-sealing a sealed page is a no-op.
    """
    if len(buffer) <= CHECKSUM_SIZE:
        raise PageError(f"page of {len(buffer)} bytes has no payload to seal")
    crc = zlib.crc32(memoryview(buffer)[: -CHECKSUM_SIZE])
    _CRC.pack_into(buffer, len(buffer) - CHECKSUM_SIZE, crc)


def page_checksums(buffer: bytes | bytearray) -> tuple[int, int]:
    """``(stored, computed)`` checksums of a page buffer."""
    if len(buffer) <= CHECKSUM_SIZE:
        raise PageError(f"page of {len(buffer)} bytes has no trailer")
    (stored,) = _CRC.unpack_from(buffer, len(buffer) - CHECKSUM_SIZE)
    computed = zlib.crc32(memoryview(buffer)[: -CHECKSUM_SIZE])
    return stored, computed


def verify_page(buffer: bytes | bytearray) -> bool:
    """True when a page's trailer matches its payload."""
    stored, computed = page_checksums(buffer)
    return stored == computed


class SlottedPage:
    """A view over one page buffer providing slotted-record access.

    The class mutates the underlying buffer in place; callers are
    responsible for marking the page dirty in the buffer pool.
    """

    def __init__(self, buffer: bytearray, page_size: int | None = None) -> None:
        self._buf = buffer
        self._size = page_size if page_size is not None else len(buffer)
        if len(buffer) < self._size:
            raise PageError(
                f"buffer of {len(buffer)} bytes smaller than page size {self._size}"
            )

    @classmethod
    def format(cls, buffer: bytearray, page_size: int | None = None) -> "SlottedPage":
        """Initialise an empty slotted page in ``buffer``."""
        page = cls(buffer, page_size)
        _HEADER.pack_into(buffer, 0, 0, _HEADER_SIZE)
        return page

    # -- header ------------------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of slots, including deleted ones."""
        count, _ = _HEADER.unpack_from(self._buf, 0)
        return count

    @property
    def _free_offset(self) -> int:
        _, offset = _HEADER.unpack_from(self._buf, 0)
        return offset

    def _set_header(self, count: int, free_offset: int) -> None:
        _HEADER.pack_into(self._buf, 0, count, free_offset)

    # -- capacity ------------------------------------------------------------

    def free_space(self) -> int:
        """Bytes available for a new record *including* its slot entry."""
        dir_start = self._size - self.slot_count * _SLOT_SIZE
        return max(0, dir_start - self._free_offset)

    def can_fit(self, length: int) -> bool:
        """True if a record of ``length`` bytes fits on this page."""
        return self.free_space() >= length + _SLOT_SIZE

    # -- record operations ------------------------------------------------------

    def insert(self, payload: bytes) -> int:
        """Append ``payload`` and return its slot number."""
        if not self.can_fit(len(payload)):
            raise PageError(
                f"page overflow: {len(payload)} bytes into {self.free_space()} free"
            )
        if len(payload) >= _DELETED:
            raise PageError(f"record of {len(payload)} bytes exceeds slot limit")
        count = self.slot_count
        offset = self._free_offset
        self._buf[offset : offset + len(payload)] = payload
        slot_pos = self._size - (count + 1) * _SLOT_SIZE
        _SLOT.pack_into(self._buf, slot_pos, offset, len(payload))
        self._set_header(count + 1, offset + len(payload))
        return count

    def read(self, slot: int) -> bytes:
        """The payload stored in ``slot``."""
        offset, length = self._slot(slot)
        if length == _DELETED:
            raise PageError(f"slot {slot} is deleted")
        return bytes(self._buf[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Mark ``slot`` deleted (space is not reclaimed)."""
        offset, length = self._slot(slot)
        if length == _DELETED:
            raise PageError(f"slot {slot} already deleted")
        slot_pos = self._size - (slot + 1) * _SLOT_SIZE
        _SLOT.pack_into(self._buf, slot_pos, offset, _DELETED)

    def is_deleted(self, slot: int) -> bool:
        """True if ``slot`` was deleted."""
        _, length = self._slot(slot)
        return length == _DELETED

    def records(self) -> list[tuple[int, bytes]]:
        """All live ``(slot, payload)`` pairs on the page."""
        result = []
        for slot in range(self.slot_count):
            offset, length = self._slot(slot)
            if length == _DELETED:
                continue
            result.append((slot, bytes(self._buf[offset : offset + length])))
        return result

    def _slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise PageError(f"slot {slot} out of range 0..{self.slot_count - 1}")
        slot_pos = self._size - (slot + 1) * _SLOT_SIZE
        return _SLOT.unpack_from(self._buf, slot_pos)
