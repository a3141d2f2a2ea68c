"""Storage scrub, repair and quarantine (``python -m repro fsck``).

The paper's whole premise is that the multiresolution terrain model
lives *on disk*; a silently rotten page therefore poisons every query
whose interval touches it.  This module is the operational answer:

* :func:`scrub_database` reads **every page of every segment** through
  the pager (verifying v2 crc trailers on the way), walks the
  R*-tree segments structurally — child MBRs contained in their parent
  entry, segment endpoints ``e_low <= e_high`` — and cross-checks
  every cluster-run directory against its segment (runs in bounds and
  non-overlapping, blobs decoding to the directory's record counts),
  producing a machine-readable :class:`FsckReport`;
* :func:`repair_database` restores corrupt pages from a committed
  write-ahead log (see :meth:`WriteAheadLog.committed_records`) and
  quarantines whatever the log cannot restore into a
  ``quarantine.json`` sidecar;
* :func:`archive_pages` snapshots a healthy database's pages into a
  committed WAL — the repair source for scrub drills and operators
  who want a restore point before risky maintenance;
* :func:`inject_corruption` deliberately damages on-disk pages
  (bitflip / torn / zero, seeded) for drills and the CI integrity
  gate;
* :class:`PageQuarantine` is the bounded, thread-safe set of known-bad
  pages the query engine consults while serving degraded.

This module is one of the three sanctioned homes of raw page I/O
(reprolint rule R7): the corruption injector must write damaged bytes
*around* the pager, which would refuse to produce them.
"""

from __future__ import annotations

import json
import os
import random
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import PageCorruptionError, StorageError
from repro.obs.lockwatch import watched_lock
from repro.storage.database import parse_epoch_segment
from repro.storage.faults import CORRUPTION_KINDS, corrupt_buffer
from repro.storage.page import DEFAULT_PAGE_SIZE, verify_page
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.database import Database

__all__ = [
    "FsckReport",
    "OrphanSegment",
    "PageFault",
    "PageQuarantine",
    "QUARANTINE_FILENAME",
    "archive_pages",
    "inject_corruption",
    "load_quarantine",
    "repair_database",
    "scrub_database",
]

#: Sidecar listing pages repair could not restore.
QUARANTINE_FILENAME = "quarantine.json"

# R*-tree on-disk layout (mirrors repro.index.rstar; the scrub parses
# node pages tolerantly instead of instantiating the index, which
# would raise on the first bad page).
_RSTAR_META = struct.Struct("<4sIHQ6d")
_RSTAR_MAGIC = b"RST1"
_RSTAR_NODE_HEADER = struct.Struct("<BH")
_RSTAR_ENTRY = struct.Struct("<6dQ")


class PageQuarantine:
    """A bounded, thread-safe set of ``(segment, page)`` ids known bad.

    The query engine adds a page here when a read fails checksum
    verification; the bound keeps a corruption storm from growing the
    set without limit (oldest entries fall off first — if corruption
    is that widespread, serving degraded per-page bookkeeping no
    longer matters and ``fsck`` is the tool).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise StorageError(
                f"quarantine capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._lock = watched_lock("PageQuarantine._lock")
        self._pages: OrderedDict[tuple[str, int], None] = OrderedDict()

    def add(self, segment: str, page: int) -> bool:
        """Record a bad page; returns True when it is newly seen."""
        key = (segment, page)
        with self._lock:
            if key in self._pages:
                self._pages.move_to_end(key)
                return False
            while len(self._pages) >= self._capacity:
                self._pages.popitem(last=False)
            self._pages[key] = None
            return True

    def __contains__(self, key: tuple[str, int]) -> bool:
        with self._lock:
            return key in self._pages

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)

    @property
    def capacity(self) -> int:
        """Maximum number of tracked pages."""
        return self._capacity

    def snapshot(self) -> list[tuple[str, int]]:
        """The quarantined pages, oldest first."""
        with self._lock:
            return list(self._pages)

    def clear(self) -> None:
        """Forget every quarantined page (call after a repair)."""
        with self._lock:
            self._pages.clear()


@dataclass
class PageFault:
    """One page that failed checksum verification."""

    segment: str
    page: int
    expected: int | None = None
    actual: int | None = None
    repaired: bool = False
    quarantined: bool = False

    def to_json(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {
            "segment": self.segment,
            "page": self.page,
            "expected": self.expected,
            "actual": self.actual,
            "repaired": self.repaired,
            "quarantined": self.quarantined,
        }


@dataclass
class OrphanSegment:
    """One staged shadow segment whose epoch was never committed.

    An aborted patch (crash before the WAL commit marker) leaves its
    ``{prefix}@{epoch}_*`` segments on disk with the store's committed
    epoch still below ``epoch``.  These pages are *garbage, not
    corruption*: the store never referenced them, every reader is
    consistent without them, and ``fsck`` reports them separately so a
    crashed patch does not read as data rot.
    """

    segment: str
    prefix: str
    epoch: int
    committed_epoch: int
    pages: int = 0
    removed: bool = False

    def to_json(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {
            "segment": self.segment,
            "prefix": self.prefix,
            "epoch": self.epoch,
            "committed_epoch": self.committed_epoch,
            "pages": self.pages,
            "removed": self.removed,
        }


@dataclass
class FsckReport:
    """Outcome of a scrub (and optional repair) pass."""

    path: str
    segments_scanned: int = 0
    pages_scanned: int = 0
    corrupt: list[PageFault] = field(default_factory=list)
    structural: list[str] = field(default_factory=list)
    orphans: list[OrphanSegment] = field(default_factory=list)
    repair_attempted: bool = False

    @property
    def corrupt_pages(self) -> int:
        """Number of pages that failed checksum verification."""
        return len(self.corrupt)

    @property
    def repaired_pages(self) -> int:
        """Pages restored from the write-ahead log."""
        return sum(1 for fault in self.corrupt if fault.repaired)

    @property
    def quarantined_pages(self) -> int:
        """Pages repair could not restore."""
        return sum(1 for fault in self.corrupt if fault.quarantined)

    @property
    def orphan_segments(self) -> int:
        """Staged shadow segments from aborted patches."""
        return len(self.orphans)

    @property
    def ok(self) -> bool:
        """True when the database is (now) fully intact.

        Orphaned staged segments do not flip this: the committed data
        is whole, and the leftovers are reclaimable garbage, not rot.
        """
        return not self.structural and all(
            fault.repaired for fault in self.corrupt
        )

    def to_json(self) -> dict[str, object]:
        """Machine-readable summary (the ``fsck --json`` payload)."""
        return {
            "path": self.path,
            "ok": self.ok,
            "segments_scanned": self.segments_scanned,
            "pages_scanned": self.pages_scanned,
            "corrupt_pages": self.corrupt_pages,
            "repaired_pages": self.repaired_pages,
            "quarantined_pages": self.quarantined_pages,
            "repair_attempted": self.repair_attempted,
            "orphan_segments": self.orphan_segments,
            "corrupt": [fault.to_json() for fault in self.corrupt],
            "structural": list(self.structural),
            "orphans": [orphan.to_json() for orphan in self.orphans],
        }

    def to_text(self) -> str:
        """A printable report."""
        lines = [
            f"fsck {self.path}: " + ("OK" if self.ok else "PROBLEMS FOUND"),
            f"  segments scanned: {self.segments_scanned}",
            f"  pages scanned: {self.pages_scanned}",
            f"  corrupt pages: {self.corrupt_pages}",
        ]
        if self.repair_attempted:
            lines.append(f"  repaired from WAL: {self.repaired_pages}")
            lines.append(f"  quarantined: {self.quarantined_pages}")
        for fault in self.corrupt[:50]:
            state = (
                "repaired"
                if fault.repaired
                else "quarantined"
                if fault.quarantined
                else "corrupt"
            )
            lines.append(f"  !! {fault.segment} page {fault.page}: {state}")
        if len(self.corrupt) > 50:
            lines.append(f"  ... and {len(self.corrupt) - 50} more")
        for problem in self.structural[:50]:
            lines.append(f"  !! structure: {problem}")
        if len(self.structural) > 50:
            lines.append(
                f"  ... and {len(self.structural) - 50} more structural"
            )
        if self.orphans:
            lines.append(
                f"  orphaned staged segments: {self.orphan_segments} "
                "(aborted patch leftovers, not corruption)"
            )
        for orphan in self.orphans[:50]:
            state = "removed" if orphan.removed else "reclaimable"
            lines.append(
                f"  ?? orphan: {orphan.segment} (staged epoch "
                f"{orphan.epoch}, committed {orphan.committed_epoch}, "
                f"{orphan.pages} pages, {state})"
            )
        if len(self.orphans) > 50:
            lines.append(
                f"  ... and {len(self.orphans) - 50} more orphans"
            )
        return "\n".join(lines)


def scrub_database(
    database: "Database", registry: "MetricsRegistry | None" = None
) -> FsckReport:
    """Verify every page of every segment, plus R*-tree structure.

    Pages are read through :meth:`Segment.read_raw` — straight from
    disk, bypassing the buffer pool — so the scrub sees exactly what a
    cold restart would.
    """
    report = FsckReport(path=str(database.path))
    orphan_names = _find_orphans(database, report)
    for name in database.segment_names():
        if name in orphan_names:
            # An aborted patch's staged pages may legitimately be torn
            # (the crash interrupted their writes); scanning them would
            # misreport garbage as corruption.
            continue
        segment = database.segment(name)
        report.segments_scanned += 1
        for page_no in range(segment.n_pages):
            report.pages_scanned += 1
            try:
                segment.read_raw(page_no)
            except PageCorruptionError as exc:
                expected = exc.context.get("expected")
                actual = exc.context.get("actual")
                report.corrupt.append(
                    PageFault(
                        name,
                        page_no,
                        expected=expected
                        if isinstance(expected, int)
                        else None,
                        actual=actual if isinstance(actual, int) else None,
                    )
                )
    corrupt_keys = {(fault.segment, fault.page) for fault in report.corrupt}
    for name in database.segment_names():
        if name in orphan_names:
            continue
        _scrub_rtree(database, name, corrupt_keys, report.structural)
    _scrub_clusters(database, corrupt_keys, report.structural, orphan_names)
    if registry is not None:
        registry.counter("fsck.pages_scanned").inc(report.pages_scanned)
        registry.counter("fsck.pages_corrupt").inc(report.corrupt_pages)
        registry.counter("fsck.orphan_segments").inc(report.orphan_segments)
    return report


def _find_orphans(database: "Database", report: FsckReport) -> set[str]:
    """Record staged segments whose epoch exceeds the committed one.

    A shadow segment ``{prefix}@{N}_*`` is an orphan exactly when the
    store's committed epoch for ``prefix`` is below ``N``: only a
    patch that reached its commit marker flips the epoch, so anything
    above it was abandoned mid-flight.  Segments *at or below* the
    committed epoch are live history (pinned readers may still hold
    them) and are scrubbed normally.
    """
    orphan_names: set[str] = set()
    for name in database.segment_names():
        parsed = parse_epoch_segment(name)
        if parsed is None:
            continue
        prefix, epoch = parsed
        committed = database.store_epoch(prefix)
        if epoch <= committed:
            continue
        report.orphans.append(
            OrphanSegment(
                name,
                prefix,
                epoch,
                committed,
                pages=database.segment(name).n_pages,
            )
        )
        orphan_names.add(name)
    return orphan_names


def _read_page_tolerant(
    database: "Database", name: str, page_no: int
) -> bytes | None:
    """A page's bytes, or ``None`` when it cannot be read intact."""
    try:
        return bytes(database.segment(name).read_raw(page_no))
    except (PageCorruptionError, StorageError):
        return None


def _scrub_rtree(
    database: "Database",
    name: str,
    corrupt_keys: set[tuple[str, int]],
    problems: list[str],
) -> None:
    """Structural invariants of one R*-tree segment (no-op otherwise).

    Tolerant by design: the index class raises on the first bad page,
    but a scrub must keep walking and report everything it can reach.
    Checks, per reachable node entry: well-formed boxes
    (``min <= max`` on every axis, in particular ``e_low <= e_high``)
    and child-MBR containment in the parent entry's box.
    """
    segment = database.segment(name)
    if segment.n_pages == 0 or (name, 0) in corrupt_keys:
        return
    meta_raw = _read_page_tolerant(database, name, 0)
    if meta_raw is None or len(meta_raw) < _RSTAR_META.size:
        return
    magic, root, height, _count, *_space = _RSTAR_META.unpack_from(
        meta_raw, 0
    )
    if magic != _RSTAR_MAGIC:
        return  # Not an R*-tree segment.
    payload = segment.payload_size
    max_entries = (payload - _RSTAR_NODE_HEADER.size) // _RSTAR_ENTRY.size
    visited: set[int] = set()
    # (page_no, expected level, parent entry box or None for the root)
    stack: list[tuple[int, int, tuple[float, ...] | None]] = [
        (root, height, None)
    ]
    while stack:
        page_no, level, parent_box = stack.pop()
        if page_no in visited:
            problems.append(
                f"{name}: node page {page_no} reachable twice (cycle?)"
            )
            continue
        visited.add(page_no)
        if not 0 < page_no < segment.n_pages:
            problems.append(
                f"{name}: child pointer to page {page_no} out of range"
            )
            continue
        if (name, page_no) in corrupt_keys:
            continue  # Already reported by the crc scan.
        raw = _read_page_tolerant(database, name, page_no)
        if raw is None:
            problems.append(f"{name}: node page {page_no} unreadable")
            continue
        is_leaf, count = _RSTAR_NODE_HEADER.unpack_from(raw, 0)
        if count > max_entries:
            problems.append(
                f"{name}: node page {page_no} claims {count} entries "
                f"(capacity {max_entries})"
            )
            continue
        if bool(is_leaf) != (level == 1):
            problems.append(
                f"{name}: node page {page_no} leaf flag {bool(is_leaf)} "
                f"at level {level}"
            )
        offset = _RSTAR_NODE_HEADER.size
        for _ in range(count):
            x0, y0, e0, x1, y1, e1, payload_val = _RSTAR_ENTRY.unpack_from(
                raw, offset
            )
            offset += _RSTAR_ENTRY.size
            if x0 > x1 or y0 > y1:
                problems.append(
                    f"{name}: page {page_no} entry has an inverted MBR"
                )
            if e0 > e1:
                problems.append(
                    f"{name}: page {page_no} entry violates "
                    f"e_low <= e_high ({e0} > {e1})"
                )
            if parent_box is not None:
                px0, py0, pe0, px1, py1, pe1 = parent_box
                contained = (
                    px0 <= x0
                    and py0 <= y0
                    and pe0 <= e0
                    and x1 <= px1
                    and y1 <= py1
                    and e1 <= pe1
                )
                if not contained:
                    problems.append(
                        f"{name}: page {page_no} entry escapes its "
                        f"parent MBR"
                    )
            if not is_leaf:
                stack.append(
                    (payload_val, level - 1, (x0, y0, e0, x1, y1, e1))
                )


def _scrub_clusters(
    database: "Database",
    corrupt_keys: set[tuple[str, int]],
    problems: list[str],
    orphan_names: set[str] | None = None,
) -> None:
    """Cluster-run and directory consistency of every committed store.

    Every ``{prefix}_dm_meta.json`` must have its
    ``{prefix}_clusters.json`` directory; the directory's run segment
    must exist, each cluster's page run must lie inside it, runs must
    not overlap, the byte count must fit its page count exactly
    (``ceil`` packing, like the builder writes), and the run's blob
    must decode to the directory's record count.  Runs touching pages
    the crc scan already flagged are skipped — one corrupt page is one
    fault, not two.
    """
    # Local import: the cluster layer lives above storage.
    from repro.core.clusters import (
        ClusterDirectory,
        cluster_directory_path,
        decode_cluster_blob,
    )

    suffix = "_dm_meta.json"
    for meta_path in sorted(Path(database.path).glob(f"*{suffix}")):
        prefix = meta_path.name[: -len(suffix)]
        path = cluster_directory_path(database, prefix)
        base, sep, tag = prefix.rpartition("@")
        if (
            sep
            and tag.isdigit()
            and int(tag) > database.store_epoch(base)
        ):
            continue  # Sidecar of an aborted patch: orphan, not rot.
        try:
            directory = ClusterDirectory.load(database, prefix)
        except StorageError as exc:
            problems.append(
                f"{path.name}: unreadable cluster directory ({exc})"
            )
            continue
        name = directory.segment
        if orphan_names and name in orphan_names:
            continue
        if name not in database.segment_names():
            problems.append(
                f"{path.name}: cluster run segment {name} missing"
            )
            continue
        segment = database.segment(name)
        payload = segment.payload_size
        spans: list[tuple[int, int, int]] = []
        for meta in directory.clusters:
            label = f"{name}: cluster {meta.cluster_id}"
            end = meta.start_page + meta.n_pages
            if (
                meta.n_pages < 1
                or meta.start_page < 0
                or end > segment.n_pages
            ):
                problems.append(
                    f"{label} run [{meta.start_page}, {end}) outside "
                    f"segment ({segment.n_pages} pages)"
                )
                continue
            if (
                meta.n_bytes > meta.n_pages * payload
                or meta.n_bytes <= (meta.n_pages - 1) * payload
            ):
                problems.append(
                    f"{label} directory claims {meta.n_bytes} bytes in "
                    f"{meta.n_pages} run pages"
                )
                continue
            spans.append((meta.start_page, end, meta.cluster_id))
            if any(
                (name, page_no) in corrupt_keys
                for page_no in range(meta.start_page, end)
            ):
                continue  # The crc scan already reported these pages.
            try:
                blob = segment.read_run(meta.start_page, meta.n_pages)
                records = decode_cluster_blob(blob[: meta.n_bytes])
            except PageCorruptionError:
                continue  # Raced a concurrent writer; crc scan owns it.
            except StorageError as exc:
                problems.append(f"{label} blob does not decode ({exc})")
                continue
            if len(records) != meta.n_nodes:
                problems.append(
                    f"{label} blob holds {len(records)} records, "
                    f"directory says {meta.n_nodes}"
                )
        spans.sort()
        for (_, prev_end, prev_id), (start, _, cid) in zip(spans, spans[1:]):
            if start < prev_end:
                problems.append(
                    f"{name}: cluster {cid} run overlaps cluster {prev_id}"
                )


def repair_database(database: "Database", report: FsckReport) -> FsckReport:
    """Restore corrupt pages from a committed WAL; quarantine the rest.

    Each fault in ``report.corrupt`` is looked up in the committed
    write-ahead log (the crash-recovery log, or an operator snapshot
    from :func:`archive_pages`).  A found image is written straight
    through the pager — displacing any cached frame — and re-verified;
    pages with no recoverable image are recorded in
    ``quarantine.json``.  Orphaned staged segments (aborted patches,
    see :class:`OrphanSegment`) are reclaimed outright — segment plus
    stale sidecars — since no committed state references them.
    Mutates and returns ``report``.
    """
    report.repair_attempted = True
    for orphan in report.orphans:
        database.remove_segment(orphan.segment)
        orphan.removed = True
    for prefix in {
        f"{orphan.prefix}@{orphan.epoch}" for orphan in report.orphans
    }:
        for sidecar in ("dm_meta.json", "clusters.json"):
            stale = Path(database.path) / f"{prefix}_{sidecar}"
            if stale.exists():
                stale.unlink()
    wal = WriteAheadLog(database.path, database.page_size)
    records = wal.committed_records()
    images: dict[tuple[str, int], bytes] = {}
    if records is not None:
        for seg_name, page_no, data in records:
            images[(seg_name, page_no)] = data  # Last write wins.
    for fault in report.corrupt:
        image = images.get((fault.segment, fault.page))
        if image is None:
            fault.quarantined = True
            continue
        segment = database.segment(fault.segment)
        while segment.n_pages <= fault.page:
            segment.allocate()
        segment.write_page_image(fault.page, image)
        try:
            segment.read_raw(fault.page)
        except PageCorruptionError:
            fault.quarantined = True  # The log image itself was bad.
        else:
            fault.repaired = True
    quarantined = [fault for fault in report.corrupt if fault.quarantined]
    if quarantined:
        quarantine_path = Path(database.path) / QUARANTINE_FILENAME
        quarantine_path.write_text(
            json.dumps(
                {
                    "quarantined": [
                        {"segment": fault.segment, "page": fault.page}
                        for fault in quarantined
                    ]
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
    return report


def load_quarantine(directory: str | Path) -> list[tuple[str, int]]:
    """The ``(segment, page)`` pairs quarantined by a past repair."""
    path = Path(directory) / QUARANTINE_FILENAME
    if not path.exists():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    return [
        (str(entry["segment"]), int(entry["page"]))
        for entry in payload.get("quarantined", [])
    ]


def archive_pages(database: "Database") -> Path:
    """Snapshot every page of every segment into a committed WAL.

    The snapshot uses the crash-recovery log format, so it doubles as
    a repair source for ``fsck --repair`` — and a subsequent normal
    :class:`Database` open will replay it (a no-op restore of the same
    images) and remove it.  Take the snapshot while the database is
    quiesced and healthy; a corrupt page fails the snapshot rather
    than poisoning it.
    """
    wal = WriteAheadLog(database.path, database.page_size)
    wal.begin()
    try:
        for name in database.segment_names():
            segment = database.segment(name)
            for page_no in range(segment.n_pages):
                wal.log_page(
                    name, page_no, bytes(segment.read_raw(page_no))
                )
        wal.commit()
    finally:
        wal.close(discard=False)
    return wal.path


def inject_corruption(
    directory: str | Path,
    n_pages: int,
    seed: int = 0,
    kinds: tuple[str, ...] = CORRUPTION_KINDS,
    page_size: int = DEFAULT_PAGE_SIZE,
    segments: "tuple[str, ...] | None" = None,
) -> list[tuple[str, int, str]]:
    """Corrupt ``n_pages`` distinct on-disk pages (a scrub drill).

    Picks pages uniformly at random (seeded) across every segment file
    and damages each with a random kind from ``kinds``.  Works on the
    raw files — the database must be closed — and guarantees each
    damaged page fails v2 verification.  ``segments`` restricts the
    candidate pool to the named segments (the crash matrix uses it to
    damage only a patch's staged shadow segments, leaving committed
    state intact).  Returns ``(segment, page, kind)`` for every page
    hit, so drills can assert the scrub finds *exactly* the injected
    set.
    """
    directory = Path(directory)
    if n_pages < 1:
        raise StorageError(f"n_pages must be >= 1, got {n_pages}")
    if not kinds or not set(kinds) <= set(CORRUPTION_KINDS):
        raise StorageError(
            f"kinds must be a non-empty subset of {CORRUPTION_KINDS}, "
            f"got {kinds}"
        )
    pages: list[tuple[Path, int]] = []
    for seg_path in sorted(directory.glob("*.seg")):
        if segments is not None and seg_path.stem not in segments:
            continue
        count = seg_path.stat().st_size // page_size
        pages.extend((seg_path, page_no) for page_no in range(count))
    if n_pages > len(pages):
        raise StorageError(
            f"cannot corrupt {n_pages} pages: only {len(pages)} exist",
            path=str(directory),
        )
    rng = random.Random(seed)
    targets = rng.sample(pages, n_pages)
    injected: list[tuple[str, int, str]] = []
    for seg_path, page_no in targets:
        kind = kinds[rng.randrange(len(kinds))]
        fd = os.open(seg_path, os.O_RDWR)
        try:
            buffer = bytearray(os.pread(fd, page_size, page_no * page_size))
            corrupt_buffer(buffer, kind, rng)
            if verify_page(buffer):  # pragma: no cover - corrupt_buffer
                buffer[0] ^= 0xFF  # guarantees invalidity already
            os.pwrite(fd, bytes(buffer), page_no * page_size)
        finally:
            os.close(fd)
        injected.append((seg_path.stem, page_no, kind))
    return injected
