"""End-to-end storage integrity: checksummed pages, scrub, repair.

Covers the page format (crc32 trailer, ``storage_meta.json`` flag,
retired layouts refused), the pager's corruption and error paths, the
scrub/repair machinery behind ``python -m repro fsck``, the bounded
:class:`PageQuarantine`, and the fsck CLI's exit codes.
"""

import json
import os
import random
import struct
import threading

import pytest

from repro.cli import main as cli_main
from repro.core import DirectMeshStore
from repro.errors import PageCorruptionError, PageError, StorageError
from repro.obs.metrics import MetricsRegistry
from repro.storage import (
    CHECKSUM_SIZE,
    Database,
    DiskStats,
    HeapFile,
    PAGE_FORMAT_V2,
    PageQuarantine,
    Pager,
    archive_pages,
    inject_corruption,
    repair_database,
    scrub_database,
    seal_page,
    verify_page,
)
from repro.storage.database import STORAGE_META_FILENAME
from repro.storage.faults import CORRUPTION_KINDS
from repro.storage.integrity import (
    QUARANTINE_FILENAME,
    _RSTAR_META,
    _RSTAR_NODE_HEADER,
    load_quarantine,
)
from repro.storage.page import page_checksums
from repro.storage.wal import WAL_FILENAME


def _flip_byte(path, offset: int) -> None:
    """Corrupt one on-disk byte without going through the pager."""
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestPageSeal:
    def test_seal_verify_roundtrip(self):
        buf = bytearray(random.Random(1).randbytes(512))
        seal_page(buf)
        assert verify_page(buf)
        stored, computed = page_checksums(buf)
        assert stored == computed

    def test_mutation_is_detected(self):
        buf = bytearray(random.Random(2).randbytes(512))
        seal_page(buf)
        buf[100] ^= 0x01
        assert not verify_page(buf)

    def test_seal_is_idempotent(self):
        # The crc covers only payload bytes, so re-sealing a sealed
        # page is a no-op — WAL images can be sealed again on replay.
        buf = bytearray(random.Random(3).randbytes(512))
        seal_page(buf)
        once = bytes(buf)
        seal_page(buf)
        assert bytes(buf) == once

    def test_tiny_buffer_rejected(self):
        with pytest.raises(PageError):
            seal_page(bytearray(CHECKSUM_SIZE))


class TestFormatFlag:
    def test_new_database_defaults_to_v2(self, tmp_path):
        path = tmp_path / "db"
        with Database(path) as db:
            assert db.payload_size == db.page_size - CHECKSUM_SIZE
            hf = HeapFile(db.segment("t"))
            rid = hf.insert(b"sealed payload")
        meta = json.loads(
            (path / STORAGE_META_FILENAME).read_text(encoding="utf-8")
        )
        assert meta["page_format"] == PAGE_FORMAT_V2
        with Database(path) as db:
            assert HeapFile(db.segment("t")).read(rid) == b"sealed payload"

    def test_legacy_cannot_be_opened_as_v2(self, tmp_path, capsys):
        """Segments with no format flag are a retired layout: opening
        says to rebuild, and fsck reports structural damage."""
        path = tmp_path / "db"
        with Database(path) as db:
            db.segment("t").allocate()
        (path / STORAGE_META_FILENAME).unlink()
        with pytest.raises(StorageError, match="rebuild"):
            Database(path)
        assert cli_main(["fsck", str(path)]) == 1
        assert "!! structure:" in capsys.readouterr().out

    def test_page_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "db"
        with Database(path, page_size=8192):
            pass
        with pytest.raises(StorageError):
            Database(path, page_size=4096)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "db"
        with Database(path):
            pass
        meta_path = path / STORAGE_META_FILENAME
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        for page_format in (1, 3):  # The retired layout, and a future one.
            meta["page_format"] = page_format
            meta_path.write_text(json.dumps(meta), encoding="utf-8")
            with pytest.raises(StorageError, match="rebuild"):
                Database(path)


class TestCorruptReadPath:
    def test_on_disk_corruption_raises_with_context(self, tmp_path):
        path = tmp_path / "db"
        db = Database(path, pool_pages=8)
        hf = HeapFile(db.segment("t"))
        hf.insert(b"victim record")
        db.flush()
        _flip_byte(path / "t.seg", 64)
        with pytest.raises(PageCorruptionError) as excinfo:
            db.segment("t").fetch(0)
        context = excinfo.value.context
        assert context["segment"] == "t"
        assert context["page"] == 0
        assert context["expected"] != context["actual"]
        assert db.crc_failures == 1
        db.close()

    def test_corrupt_read_is_never_cached(self, tmp_path):
        path = tmp_path / "db"
        db = Database(path, pool_pages=8)
        hf = HeapFile(db.segment("t"))
        rid = hf.insert(b"survivor")
        db.flush()
        seg_file = path / "t.seg"
        pristine = seg_file.read_bytes()
        _flip_byte(seg_file, 64)
        with pytest.raises(PageCorruptionError):
            db.segment("t").fetch(0)
        # Undo the damage: the next fetch must re-read from disk (a
        # cached corrupt frame would still fail — or worse, serve rot).
        seg_file.write_bytes(pristine)
        assert HeapFile(db.segment("t")).read(rid) == b"survivor"
        db.close()

    def test_crc_failures_reach_the_metrics_registry(self, tmp_path):
        """The database counts; a registry reads it there (the source
        a serving engine registers)."""
        path = tmp_path / "db"
        db = Database(path, pool_pages=8)
        registry = MetricsRegistry()
        registry.add_source(
            lambda: {"storage.crc_failures": db.crc_failures}
        )
        db.segment("t").allocate()
        db.flush()
        assert registry.counters()["storage.crc_failures"] == 0
        _flip_byte(path / "t.seg", 10)
        with pytest.raises(PageCorruptionError):
            db.segment("t").fetch(0)
        assert registry.counters()["storage.crc_failures"] == 1
        db.close()


class TestPagerErrorPaths:
    def test_init_failure_does_not_leak_fd(self, tmp_path):
        bad = tmp_path / "bad.seg"
        bad.write_bytes(b"x" * 100)  # Not a multiple of the page size.
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with pytest.raises(StorageError):
                Pager(bad, DiskStats(), page_size=512)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_open_failure_is_wrapped(self, tmp_path):
        # Opening a directory as a segment file fails at os.open.
        with pytest.raises(StorageError) as excinfo:
            Pager(tmp_path, DiskStats(), page_size=512)
        assert excinfo.value.context["path"] == str(tmp_path)

    def test_io_errors_are_wrapped_with_context(self, tmp_path):
        pager = Pager(
            tmp_path / "s.seg", DiskStats(), name="s", page_size=512
        )
        page_no = pager.allocate()
        os.close(pager._fd)  # Rip the descriptor out from under it.
        try:
            for operation in (
                lambda: pager.read_page(page_no),
                lambda: pager.write_page(page_no, bytes(512)),
                lambda: pager.sync(),
            ):
                with pytest.raises(StorageError) as excinfo:
                    operation()
                assert not isinstance(excinfo.value, PageCorruptionError)
                assert excinfo.value.context["path"] == str(
                    tmp_path / "s.seg"
                )
        finally:
            pager._closed = True  # The fd is already gone.

    def test_short_read_detected(self, tmp_path):
        path = tmp_path / "s.seg"
        pager = Pager(path, DiskStats(), name="s", page_size=512)
        pager.allocate()
        pager.allocate()
        with open(path, "r+b") as handle:
            handle.truncate(512 + 100)
        with pytest.raises(StorageError, match="short read"):
            pager.read_page(1)
        pager.close()


class TestScrubRepair:
    @pytest.fixture
    def populated_db(self, tmp_path):
        path = tmp_path / "db"
        db = Database(path, pool_pages=16)
        hf = HeapFile(db.segment("t"))
        rows = {}
        for i in range(150):
            payload = f"row {i} ".encode() * 60
            rows[hf.insert(payload)] = payload
        db.flush()
        yield path, db, rows
        db.close()

    def test_clean_database_scrubs_ok(self, populated_db):
        path, db, _ = populated_db
        registry = MetricsRegistry()
        report = scrub_database(db, registry)
        assert report.ok
        assert report.corrupt_pages == 0
        total = sum(db.segment_pages(n) for n in db.segment_names())
        assert report.pages_scanned == total
        assert registry.counters()["fsck.pages_scanned"] == total

    def test_scrub_finds_exactly_the_injected_set(self, populated_db):
        path, db, _ = populated_db
        hits = inject_corruption(path, 4, seed=11)
        report = scrub_database(db)
        assert {(f.segment, f.page) for f in report.corrupt} == {
            (segment, page) for segment, page, _ in hits
        }
        assert not report.ok

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_every_kind_is_detected(self, populated_db, kind):
        path, db, _ = populated_db
        hits = inject_corruption(path, 2, seed=3, kinds=(kind,))
        assert all(k == kind for _, _, k in hits)
        report = scrub_database(db)
        assert report.corrupt_pages == 2

    def test_archive_then_repair_restores_everything(self, populated_db):
        path, db, rows = populated_db
        archive_pages(db)
        assert (path / WAL_FILENAME).exists()
        inject_corruption(path, 5, seed=7)
        report = scrub_database(db)
        assert report.corrupt_pages == 5
        repair_database(db, report)
        assert report.ok
        assert report.repaired_pages == 5
        assert report.quarantined_pages == 0
        db.flush()
        hf = HeapFile(db.segment("t"))
        for rid, payload in rows.items():
            assert hf.read(rid) == payload
        assert scrub_database(db).ok

    def test_repair_without_wal_quarantines(self, populated_db):
        path, db, _ = populated_db
        inject_corruption(path, 3, seed=5)
        report = scrub_database(db)
        repair_database(db, report)
        assert not report.ok
        assert report.repaired_pages == 0
        assert report.quarantined_pages == 3
        assert (path / QUARANTINE_FILENAME).exists()
        assert set(load_quarantine(path)) == {
            (fault.segment, fault.page) for fault in report.corrupt
        }

    def test_injector_validation(self, populated_db):
        path, _, _ = populated_db
        with pytest.raises(StorageError):
            inject_corruption(path, 0)
        with pytest.raises(StorageError):
            inject_corruption(path, 10_000)
        with pytest.raises(StorageError):
            inject_corruption(path, 1, kinds=("bogus",))


class TestRepairRestoresQueries:
    def test_node_identical_results_after_repair(
        self, tmp_path, wavy_pm, wavy_connections
    ):
        db = Database(tmp_path / "db", pool_pages=64)
        store = DirectMeshStore.build(wavy_pm, db, wavy_connections)
        extent = store.rtree.data_space.rect
        reference = store.uniform_query(extent, 0.4 * store.max_lod)
        db.flush()
        archive_pages(db)
        inject_corruption(db.path, 4, seed=13)
        report = scrub_database(db)
        assert report.corrupt_pages == 4
        repair_database(db, report)
        assert report.ok
        db.flush()
        repaired = store.uniform_query(extent, 0.4 * store.max_lod)
        assert repaired.nodes == reference.nodes
        db.close()


class TestStructuralScrub:
    def test_invalid_interval_is_reported(
        self, tmp_path, wavy_pm, wavy_connections
    ):
        db = Database(tmp_path / "db", pool_pages=64)
        DirectMeshStore.build(wavy_pm, db, wavy_connections)
        db.flush()
        segment = db.segment("dm_rtree")
        meta = bytes(segment.read_raw(0))
        _, root, _height, _count, *_space = _RSTAR_META.unpack_from(meta, 0)
        # Invert the first root entry's interval: e_low > e_high.  The
        # page is re-sealed on write, so only the *structural* walk —
        # not the crc scan — can catch this.
        node = bytearray(segment.read_raw(root))
        entry = struct.Struct("<6dQ")
        values = list(
            entry.unpack_from(node, _RSTAR_NODE_HEADER.size)
        )
        values[2], values[5] = values[5] + 10.0, values[2]
        entry.pack_into(node, _RSTAR_NODE_HEADER.size, *values)
        segment.write_page_image(root, node)
        report = scrub_database(db)
        assert report.corrupt_pages == 0  # The crc is valid...
        assert not report.ok  # ...but the structure is not.
        assert any("e_low <= e_high" in p for p in report.structural)
        db.close()

    def test_missing_cluster_directory_is_reported(
        self, tmp_path, wavy_pm, wavy_connections
    ):
        path = tmp_path / "db"
        with Database(path, pool_pages=64) as db:
            DirectMeshStore.build(wavy_pm, db, wavy_connections)
        assert cli_main(["fsck", str(path)]) == 0
        (path / "dm_clusters.json").unlink()
        with Database(path) as db:
            report = scrub_database(db)
        assert report.corrupt_pages == 0
        assert any("cluster directory" in p for p in report.structural)
        assert cli_main(["fsck", str(path)]) == 1


class TestPageQuarantine:
    def test_bounded_fifo(self):
        quarantine = PageQuarantine(capacity=4)
        for page in range(6):
            assert quarantine.add("seg", page)
        assert len(quarantine) == 4
        assert ("seg", 0) not in quarantine  # Oldest fell off.
        assert ("seg", 5) in quarantine

    def test_duplicates_are_not_re_added(self):
        quarantine = PageQuarantine(capacity=4)
        assert quarantine.add("seg", 1)
        assert not quarantine.add("seg", 1)
        assert len(quarantine) == 1

    def test_snapshot_and_clear(self):
        quarantine = PageQuarantine(capacity=8)
        quarantine.add("a", 1)
        quarantine.add("b", 2)
        assert quarantine.snapshot() == [("a", 1), ("b", 2)]
        quarantine.clear()
        assert len(quarantine) == 0

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            PageQuarantine(capacity=0)

    def test_concurrent_adds_stay_bounded(self):
        quarantine = PageQuarantine(capacity=32)
        barrier = threading.Barrier(8)

        def hammer(ident: int) -> None:
            barrier.wait()
            for page in range(100):
                quarantine.add(f"seg{ident}", page)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(quarantine) == 32


class TestFsckCli:
    @pytest.fixture
    def small_db(self, tmp_path):
        path = tmp_path / "db"
        with Database(path, pool_pages=16) as db:
            hf = HeapFile(db.segment("t"))
            for i in range(40):
                hf.insert(f"record {i} ".encode() * 30)
        return path

    def test_clean_database_exits_zero(self, small_db, capsys):
        assert cli_main(["fsck", str(small_db)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_path_exits_one(self, tmp_path):
        assert cli_main(["fsck", str(tmp_path / "nope")]) == 1

    def test_drill_detects_then_repairs(self, small_db, capsys):
        assert cli_main(["fsck", str(small_db), "--archive"]) == 0
        capsys.readouterr()
        rc = cli_main(
            ["fsck", str(small_db), "--inject", "2", "--seed", "5", "--json"]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt_pages"] == 2
        assert not payload["ok"]
        assert cli_main(["fsck", str(small_db), "--repair"]) == 0
        assert cli_main(["fsck", str(small_db)]) == 0

    def test_kind_restricted_injection(self, small_db, capsys):
        rc = cli_main(
            [
                "fsck",
                str(small_db),
                "--inject",
                "1",
                "--kind",
                "zero",
                "--json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt_pages"] == 1
