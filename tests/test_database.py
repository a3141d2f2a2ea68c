"""Tests for the Database facade and failure injection."""

import pytest

from repro.errors import PageError, StorageError
from repro.storage.database import Database
from repro.storage.heapfile import HeapFile
from repro.storage.page import SlottedPage


class TestDatabase:
    def test_segment_creation(self, tmp_path):
        with Database(tmp_path / "db") as db:
            seg = db.segment("table_a")
            assert seg.name == "table_a"
            assert db.segment_names() == ["table_a"]  # Created on open.
            seg.allocate()
        with Database(tmp_path / "db") as db:
            assert db.segment_names() == ["table_a"]

    def test_same_segment_shared(self, tmp_path):
        with Database(tmp_path / "db") as db:
            a = db.segment("x")
            b = db.segment("x")
            page_no, buf = a.allocate()
            buf[0] = 0x5A
            a.mark_dirty(page_no)
            assert b.fetch(page_no)[0] == 0x5A

    def test_overwrite_clears(self, tmp_path):
        path = tmp_path / "db"
        with Database(path) as db:
            db.segment("x").allocate()
        with Database(path, overwrite=True) as db:
            assert db.segment_names() == []

    def test_closed_database_raises(self, tmp_path):
        db = Database(tmp_path / "db")
        db.close()
        with pytest.raises(StorageError):
            db.segment("x")
        db.close()  # Idempotent.

    def test_begin_measured_query_flushes(self, tmp_path):
        with Database(tmp_path / "db", pool_pages=16) as db:
            seg = db.segment("x")
            page_no, _ = seg.allocate()
            seg.fetch(page_no)
            db.begin_measured_query()
            assert db.disk_accesses == 0
            seg.fetch(page_no)
            assert db.disk_accesses == 1  # Cold again after flush.

    def test_durability_through_buffer(self, tmp_path):
        path = tmp_path / "db"
        with Database(path, pool_pages=4) as db:
            hf = HeapFile(db.segment("t"))
            rids = [hf.insert(f"r{i}".encode() * 50) for i in range(200)]
        # Reopen: every record must have reached disk via eviction or
        # the close-time flush.
        with Database(path, pool_pages=4) as db:
            hf = HeapFile(db.segment("t"))
            for i, rid in enumerate(rids):
                assert hf.read(rid) == f"r{i}".encode() * 50


class TestFailureInjection:
    def test_truncated_segment_detected(self, tmp_path):
        path = tmp_path / "db"
        with Database(path) as db:
            db.segment("t").allocate()
        # Corrupt: truncate the file to a non-page-multiple size.
        seg_file = path / "t.seg"
        data = seg_file.read_bytes()
        seg_file.write_bytes(data[: len(data) - 100])
        with Database(path) as db:
            with pytest.raises(StorageError):
                db.segment("t")

    def test_corrupt_slot_directory(self, tmp_path):
        with Database(tmp_path / "db") as db:
            hf = HeapFile(db.segment("t"))
            rid = hf.insert(b"victim")
            # Scribble over the slot directory in the buffered page.
            # (It ends at payload_size: under the v2 format the last 4
            # bytes of the raw page are the crc trailer, not the
            # directory.)
            seg = db.segment("t")
            buf = seg.fetch(0)
            buf[seg.payload_size - 4 : seg.payload_size] = b"\xff\xff\xff\xff"
            db.segment("t").mark_dirty(0)
            with pytest.raises(PageError):
                hf.read(rid)

    def test_page_view_rejects_short_buffer(self):
        with pytest.raises(PageError):
            SlottedPage(bytearray(10), page_size=8192)

    def test_reading_foreign_format_fails_cleanly(self, tmp_path):
        from repro.errors import IndexError_, RecordError
        from repro.index.rstar import RStarTree
        from repro.storage.record import decode_pm_node

        with Database(tmp_path / "db") as db:
            hf = HeapFile(db.segment("t"))
            rid = hf.insert(b"not a PM record")
            with pytest.raises(RecordError):
                decode_pm_node(hf.read(rid))
            with pytest.raises(IndexError_):
                RStarTree(db.segment("t"))
