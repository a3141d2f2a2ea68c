"""Write-ahead logging for crash-safe store builds and live patches.

Building a Direct Mesh store writes thousands of pages across several
segments; a crash mid-build leaves the database directory in a state
the readers cannot use.  :class:`WriteAheadLog` wraps a build (or any
multi-segment mutation) in a simple physical-logging protocol:

* :meth:`log_page` appends full page images to ``wal.log`` *before*
  the pager writes them in place (the buffer-pool write-back path
  calls this automatically when a WAL is attached);
* :meth:`commit` fsyncs the log and writes a commit record;
* :meth:`recover` (run automatically when a database with a WAL file
  is opened) replays a committed log into the segments, or discards
  an uncommitted one — so a torn build either completes or vanishes.

The log format is deliberately simple — length-prefixed records with a
CRC each — and the protocol is redo-only (no undo needed because the
database is quiesced during builds).  This is not a concurrency
mechanism; it exists so an interrupted ``python -m repro build`` never
leaves a half-written database behind.

Record layout (little endian)::

    u32 crc | u32 kind | u32 len | body
    kind 1 = page image   (body: name | u64 page_no | page bytes,
                           len = name length)
    kind 2 = commit       (no body, len = 0)
    kind 3 = patch begin  (body: JSON patch header, len = body length)
    kind 4 = patch commit (body: JSON echo of prefix/to_epoch)

**The patch-record family** (kinds 3/4) wraps a *live mutation*: a
patch transaction stages replacement segments for the next store
epoch, logging every page like a build, bracketed by a typed header
record and a typed commit marker.  The header carries the store
prefix, the ``from``/``to`` epochs, the patched region, and the staged
segment names; recovery of a *committed* patch log replays the page
images and then re-applies the epoch flip through the
``on_patch_commit`` callback (idempotent — the flip may already have
happened before the crash).  An uncommitted patch log is discarded
exactly like a torn build: the staged segments it was filling become
*orphans* for ``fsck`` to quarantine, and the committed epoch in
``storage_meta.json`` never moved, so readers still see the pre-patch
snapshot.

**Kill hooks.**  :attr:`kill_hook`, when set, is invoked with a short
event label at every record boundary (before and after each append,
and around the commit fsync).  The crash matrix drives it with a
callable that raises at the N-th event, simulating a process death at
every point of the protocol; production code never sets it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.database import Segment

__all__ = ["WriteAheadLog", "PATCH_HEADER_KEYS"]

_HEADER = struct.Struct("<III")
_PAGE_NO = struct.Struct("<Q")
_KIND_PAGE = 1
_KIND_COMMIT = 2
_KIND_PATCH_BEGIN = 3
_KIND_PATCH_COMMIT = 4

WAL_FILENAME = "wal.log"

#: Keys every patch header must carry (validated by
#: :meth:`WriteAheadLog.begin_patch`): the logical store prefix, the
#: epoch the patch starts from, the epoch it commits to, the patched
#: ``(min_x, min_y, max_x, max_y)`` region, and the staged segment
#: names.
PATCH_HEADER_KEYS = ("prefix", "from_epoch", "to_epoch", "region", "segments")


class WriteAheadLog:
    """A redo-only physical log over a database directory."""

    def __init__(self, directory: str | Path, page_size: int) -> None:
        self.path = Path(directory) / WAL_FILENAME
        self._page_size = page_size
        self._fd: int | None = None
        #: Test-only crash injection: called with an event label at
        #: every record boundary (``None`` in production).  Raising
        #: from the hook simulates a process death at that point.
        self.kill_hook: Callable[[str], None] | None = None

    def _kill_point(self, event: str) -> None:
        if self.kill_hook is not None:
            self.kill_hook(event)

    # -- writing ------------------------------------------------------------

    def begin(self) -> None:
        """Open a fresh log (truncating any stale one)."""
        self._fd = os.open(
            self.path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644
        )

    def begin_patch(self, header: dict) -> None:
        """Open a fresh log headed by a typed patch record.

        ``header`` describes the patch transaction (see
        :data:`PATCH_HEADER_KEYS`) and is what recovery needs to
        re-apply the epoch flip of a committed-but-interrupted patch.
        """
        missing = [key for key in PATCH_HEADER_KEYS if key not in header]
        if missing:
            raise StorageError(
                f"patch header is missing keys {missing}",
                header=sorted(header),
            )
        self.begin()
        self._kill_point("patch_begin:pre")
        self._append_json(_KIND_PATCH_BEGIN, header)
        self._kill_point("patch_begin:post")

    def log_page(self, segment: str, page_no: int, data: bytes) -> None:
        """Append a page image; must be called before the in-place write."""
        if self._fd is None:
            raise StorageError("WAL not begun")
        if len(data) != self._page_size:
            raise StorageError(
                f"WAL page image is {len(data)} bytes, "
                f"expected {self._page_size}"
            )
        name = segment.encode("utf-8")
        body = (
            struct.pack("<II", _KIND_PAGE, len(name))
            + name
            + _PAGE_NO.pack(page_no)
            + bytes(data)
        )
        crc = zlib.crc32(body)
        self._kill_point("page:pre")
        os.write(self._fd, struct.pack("<I", crc) + body)
        self._kill_point("page:post")

    def commit(self) -> None:
        """Seal the log: everything before this point is durable."""
        if self._fd is None:
            raise StorageError("WAL not begun")
        body = struct.pack("<II", _KIND_COMMIT, 0)
        self._kill_point("commit:pre")
        os.write(self._fd, struct.pack("<I", zlib.crc32(body)) + body)
        self._kill_point("commit:post")
        os.fsync(self._fd)
        self._kill_point("commit:durable")

    def commit_patch(self, header: dict) -> None:
        """Seal a patch log with the typed patch-commit marker.

        The marker echoes the flip target so a human inspecting a
        crashed directory can see what was about to happen; recovery
        itself trusts the begin header (the two are written by the
        same transaction and parsed together).
        """
        if self._fd is None:
            raise StorageError("WAL not begun")
        echo = {
            "prefix": header["prefix"],
            "to_epoch": header["to_epoch"],
        }
        self._kill_point("commit:pre")
        self._append_json(_KIND_PATCH_COMMIT, echo)
        self._kill_point("commit:post")
        os.fsync(self._fd)
        self._kill_point("commit:durable")

    def _append_json(self, kind: int, payload: dict) -> None:
        if self._fd is None:
            raise StorageError("WAL not begun")
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        body = struct.pack("<II", kind, len(blob)) + blob
        os.write(self._fd, struct.pack("<I", zlib.crc32(body)) + body)

    def close(self, discard: bool = True) -> None:
        """Close (and by default remove) the log after a clean finish."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if discard and self.path.exists():
            self.path.unlink()

    # -- recovery ------------------------------------------------------------

    @classmethod
    def needs_recovery(cls, directory: str | Path) -> bool:
        """True when a WAL file is present (clean shutdowns remove it)."""
        return (Path(directory) / WAL_FILENAME).exists()

    def recover(
        self,
        open_segment: "Callable[[str], Segment]",
        on_patch_commit: Callable[[dict], None] | None = None,
    ) -> str:
        """Replay a committed log or discard an uncommitted one.

        Args:
            open_segment: callable ``name -> Segment`` used to apply
                page images (typically ``database.segment``).
            on_patch_commit: called with the patch header after a
                *committed patch* log's pages are applied, before the
                log is removed — the database re-applies the epoch
                flip here.  Must be idempotent: the crash may have
                happened after the flip but before the log unlink.

        Returns:
            ``"replayed"`` if a committed log was applied,
            ``"discarded"`` if the log had no commit record (the torn
            build's pages may be garbage, but no reader ever saw them
            because the store metadata is written last).
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return "discarded"
        records, committed, patch = self._parse(raw)
        if not committed:
            self.path.unlink()
            return "discarded"
        for segment_name, page_no, data in records:
            segment = open_segment(segment_name)
            while segment.n_pages <= page_no:
                segment.allocate()
            # Write-only application: a crash mid-write may have left
            # the target page torn, so fetching it first could fail
            # checksum verification — exactly the state the log is
            # here to repair.  The image goes straight through the
            # pager, displacing any cached frame.
            segment.write_page_image(page_no, data)
        if patch is not None and on_patch_commit is not None:
            on_patch_commit(patch)
        self.path.unlink()
        return "replayed"

    def committed_records(self) -> list[tuple[str, int, bytes]] | None:
        """Page images of a committed log, without applying them.

        Returns ``None`` when no log file exists or the log carries no
        (intact) commit record — in either case there is nothing a
        repair may legally replay.  Used by ``fsck --repair`` to
        restore individual corrupt pages.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return None
        records, committed, _ = self._parse(raw)
        return records if committed else None

    def _parse(
        self, raw: bytes
    ) -> tuple[list[tuple[str, int, bytes]], bool, dict | None]:
        """Decode ``(page records, committed, patch header)``.

        Parsing stops at the first torn or corrupt record; ``committed``
        is true only when an intact commit marker (plain or patch) was
        seen, and ``patch`` is the decoded begin header of a patch log
        (present whether or not the log committed).
        """
        records: list[tuple[str, int, bytes]] = []
        offset = 0
        committed = False
        patch: dict | None = None
        while offset + 12 <= len(raw):
            (crc,) = struct.unpack_from("<I", raw, offset)
            kind, body_len = struct.unpack_from("<II", raw, offset + 4)
            if kind == _KIND_COMMIT:
                body = raw[offset + 4 : offset + 12]
                if zlib.crc32(body) != crc:
                    break  # Torn commit: treat as uncommitted.
                committed = True
                offset += 12
                continue
            if kind in (_KIND_PATCH_BEGIN, _KIND_PATCH_COMMIT):
                total = 12 + body_len
                if offset + total > len(raw):
                    break  # Torn header/marker.
                body = raw[offset + 4 : offset + total]
                if zlib.crc32(body) != crc:
                    break
                try:
                    payload = json.loads(raw[offset + 12 : offset + total])
                except ValueError:
                    break  # CRC passed but the JSON is not usable.
                if kind == _KIND_PATCH_BEGIN:
                    patch = payload
                else:
                    # A patch-commit marker without its begin header is
                    # not a state recovery knows how to apply.
                    if patch is None:
                        break
                    committed = True
                offset += total
                continue
            if kind != _KIND_PAGE:
                break  # Corrupt tail.
            total = 12 + body_len + 8 + self._page_size
            if offset + total > len(raw):
                break  # Torn record.
            body = raw[offset + 4 : offset + total]
            if zlib.crc32(body) != crc:
                break
            name = raw[offset + 12 : offset + 12 + body_len].decode("utf-8")
            (page_no,) = _PAGE_NO.unpack_from(raw, offset + 12 + body_len)
            data = raw[offset + 12 + body_len + 8 : offset + total]
            records.append((name, page_no, data))
            offset += total
        return records, committed, patch
