"""Page-based storage substrate (the reproduction's "Oracle").

Layers, bottom up:

* :class:`~repro.storage.pager.Pager` — raw page I/O over one file,
  recording physical reads/writes;
* :class:`~repro.storage.buffer.BufferPool` — shared LRU cache with
  write-back; flushing it before a query reproduces the paper's cold
  measurement methodology;
* :class:`~repro.storage.database.Database` /
  :class:`~repro.storage.database.Segment` — the directory-of-segments
  facade used by heap files and indexes;
* :class:`~repro.storage.heapfile.HeapFile` — variable-length records
  with RID addressing on slotted pages;
* :mod:`repro.storage.record` — PM / DM node codecs;
* :class:`~repro.storage.stats.DiskStats` — the disk-access counters
  standing in for Oracle's performance statistics report;
* :mod:`repro.storage.integrity` — page checksum scrub / repair /
  quarantine (``python -m repro fsck``).
"""

from repro.storage.buffer import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.database import Database, Segment
from repro.storage.faults import FaultInjector
from repro.storage.heapfile import HeapFile, pack_rid, unpack_rid
from repro.storage.integrity import (
    FsckReport,
    OrphanSegment,
    PageFault,
    PageQuarantine,
    archive_pages,
    inject_corruption,
    repair_database,
    scrub_database,
)
from repro.storage.page import (
    CHECKSUM_SIZE,
    DEFAULT_PAGE_SIZE,
    PAGE_FORMAT_V2,
    SlottedPage,
    seal_page,
    verify_page,
)
from repro.storage.pager import Pager
from repro.storage.record import (
    DMNodeRecord,
    PM_RECORD_SIZE,
    decode_dm_node,
    decode_pm_node,
    dm_record_size,
    encode_dm_node,
    encode_pm_node,
)
from repro.storage.stats import DiskStats, StatsSnapshot
from repro.storage.trace import IOTrace, IOTracer
from repro.storage.varint import decode_id_list, encode_id_list
from repro.storage.wal import WriteAheadLog

__all__ = [
    "BufferPool",
    "CHECKSUM_SIZE",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_POOL_PAGES",
    "DMNodeRecord",
    "Database",
    "DiskStats",
    "FaultInjector",
    "FsckReport",
    "HeapFile",
    "IOTrace",
    "IOTracer",
    "OrphanSegment",
    "PAGE_FORMAT_V2",
    "PM_RECORD_SIZE",
    "PageFault",
    "PageQuarantine",
    "Pager",
    "Segment",
    "SlottedPage",
    "StatsSnapshot",
    "WriteAheadLog",
    "archive_pages",
    "decode_dm_node",
    "decode_id_list",
    "decode_pm_node",
    "dm_record_size",
    "encode_id_list",
    "encode_dm_node",
    "encode_pm_node",
    "inject_corruption",
    "pack_rid",
    "repair_database",
    "scrub_database",
    "seal_page",
    "unpack_rid",
    "verify_page",
]
