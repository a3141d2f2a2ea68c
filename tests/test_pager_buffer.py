"""Tests for the pager, buffer pool, and disk statistics."""

import pytest

from repro.errors import BufferPoolError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.stats import DiskStats


@pytest.fixture
def stats():
    return DiskStats()


@pytest.fixture
def pager(tmp_path, stats):
    p = Pager(tmp_path / "seg.dat", stats, name="seg", page_size=512)
    yield p
    p.close()


class TestPager:
    def test_allocate_and_rw(self, pager, stats):
        page_no = pager.allocate()
        assert page_no == 0
        data = bytearray(b"\xab" * 512)
        pager.write_page(page_no, data)
        # The last CHECKSUM_SIZE bytes are the pager's crc trailer.
        payload = pager.payload_size
        assert pager.read_page(page_no)[:payload] == data[:payload]
        assert stats.physical_reads == 1
        assert stats.physical_writes == 2  # Allocation zero-fill + write.

    def test_out_of_range(self, pager):
        with pytest.raises(StorageError):
            pager.read_page(0)
        pager.allocate()
        with pytest.raises(StorageError):
            pager.read_page(1)

    def test_wrong_size_write(self, pager):
        pager.allocate()
        with pytest.raises(StorageError):
            pager.write_page(0, b"short")

    def test_persistence_across_reopen(self, tmp_path, stats):
        path = tmp_path / "p.dat"
        p1 = Pager(path, stats, page_size=256)
        p1.allocate()
        p1.write_page(0, b"\x11" * 256)
        p1.close()
        p2 = Pager(path, stats, page_size=256)
        assert p2.n_pages == 1
        assert p2.read_page(0)[: p2.payload_size] == b"\x11" * p2.payload_size
        p2.close()

    def test_closed_pager_raises(self, tmp_path, stats):
        p = Pager(tmp_path / "c.dat", stats, page_size=256)
        p.close()
        with pytest.raises(StorageError):
            p.allocate()

    def test_bad_file_size(self, tmp_path, stats):
        path = tmp_path / "bad.dat"
        path.write_bytes(b"x" * 100)  # Not a multiple of the page size.
        with pytest.raises(StorageError):
            Pager(path, stats, page_size=256)


class TestBufferPool:
    def test_miss_then_hit(self, pager, stats):
        pool = BufferPool(stats, capacity=4)
        page_no = pager.allocate()
        pager.write_page(page_no, b"\x01" * 512)
        stats.reset()
        pool.fetch(pager, page_no)
        assert stats.physical_reads == 1
        pool.fetch(pager, page_no)
        assert stats.physical_reads == 1  # Hit.
        assert stats.logical_reads == 2

    def test_eviction_writes_dirty(self, pager, stats):
        pool = BufferPool(stats, capacity=2)
        pages = [pager.allocate() for _ in range(3)]
        buf = pool.fetch(pager, pages[0])
        buf[0] = 0x77
        pool.mark_dirty(pager, pages[0])
        pool.fetch(pager, pages[1])
        pool.fetch(pager, pages[2])  # Evicts page 0, writing it back.
        assert pager.read_page(pages[0])[0] == 0x77

    def test_flush_makes_cold(self, pager, stats):
        pool = BufferPool(stats, capacity=8)
        page_no = pager.allocate()
        pool.fetch(pager, page_no)
        pool.flush()
        stats.reset()
        pool.fetch(pager, page_no)
        assert stats.physical_reads == 1

    def test_flush_dirty_keeps_warm(self, pager, stats):
        pool = BufferPool(stats, capacity=8)
        page_no = pager.allocate()
        buf = pool.fetch(pager, page_no)
        buf[1] = 0x42
        pool.mark_dirty(pager, page_no)
        pool.flush_dirty()
        assert pager.read_page(page_no)[1] == 0x42
        stats.reset()
        pool.fetch(pager, page_no)
        assert stats.physical_reads == 0  # Still resident.

    def test_mark_dirty_nonresident_raises(self, pager, stats):
        pool = BufferPool(stats, capacity=2)
        pager.allocate()
        with pytest.raises(BufferPoolError):
            pool.mark_dirty(pager, 0)

    def test_invalid_capacity(self, stats):
        with pytest.raises(BufferPoolError):
            BufferPool(stats, capacity=0)

    def test_lru_order(self, pager, stats):
        pool = BufferPool(stats, capacity=2)
        p0, p1, p2 = (pager.allocate() for _ in range(3))
        pool.fetch(pager, p0)
        pool.fetch(pager, p1)
        pool.fetch(pager, p0)  # p0 most recent; p1 is LRU.
        pool.fetch(pager, p2)  # Evicts p1.
        stats.reset()
        pool.fetch(pager, p0)
        assert stats.physical_reads == 0
        pool.fetch(pager, p1)
        assert stats.physical_reads == 1


class TestStats:
    def test_snapshot_delta(self, stats):
        stats.record_physical_read("a", 3)
        before = stats.snapshot()
        stats.record_physical_read("a", 2)
        stats.record_logical_read("b")
        delta = stats.snapshot().delta(before)
        assert delta.physical_reads == 2
        assert delta.logical_reads == 1
        assert delta.by_segment["a"]["physical_reads"] == 2
        assert "b" in delta.by_segment

    def test_measure_context(self, stats):
        with stats.measure() as m:
            stats.record_physical_read("x")
        assert m.result is not None
        assert m.result.disk_accesses == 1

    def test_report_format(self, stats):
        stats.record_physical_read("tbl", 5)
        report = stats.snapshot().report()
        assert "physical reads : 5" in report
        assert "tbl" in report

    def test_reset(self, stats):
        stats.record_physical_write("x")
        stats.reset()
        assert stats.physical_writes == 0
        assert stats.snapshot().by_segment == {}
