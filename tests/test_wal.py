"""Tests for write-ahead logging and crash recovery."""

import pytest

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.heapfile import HeapFile
from repro.storage.wal import WAL_FILENAME, WriteAheadLog


def crash(db: Database) -> None:
    """Simulate a process death: drop the buffer (losing dirty pages)
    and close the file descriptors without flushing."""
    db.buffer._frames.clear()
    for pager in db._pagers.values():
        pager.close()
    db._pagers.clear()
    db._closed = True


class TestCleanPath:
    def test_atomic_success_removes_log(self, tmp_path):
        with Database(tmp_path / "db") as db:
            with db.atomic():
                hf = HeapFile(db.segment("t"))
                rid = hf.insert(b"durable")
            assert not (tmp_path / "db" / WAL_FILENAME).exists()
        with Database(tmp_path / "db") as db:
            assert HeapFile(db.segment("t")).read(rid) == b"durable"

    def test_atomic_does_not_nest(self, tmp_path):
        with Database(tmp_path / "db") as db:
            with db.atomic():
                with pytest.raises(StorageError):
                    with db.atomic():
                        pass

    def test_exception_leaves_uncommitted_log(self, tmp_path):
        path = tmp_path / "db"
        with Database(path) as db:
            with pytest.raises(RuntimeError):
                with db.atomic():
                    hf = HeapFile(db.segment("t"))
                    hf.insert(b"x" * 4000)
                    db.buffer.flush_dirty()  # Force logged writes.
                    raise RuntimeError("boom")
            # Log file left behind for the next open to inspect.
            assert (path / WAL_FILENAME).exists()
            db._wal = None  # Already reset by atomic(); be explicit.
        # Reopen: the torn log is discarded.
        with Database(path) as db:
            assert not (path / WAL_FILENAME).exists()


class TestCrashRecovery:
    def test_uncommitted_crash_discards(self, tmp_path):
        path = tmp_path / "db"
        db = Database(path)
        try:
            with pytest.raises(RuntimeError):
                with db.atomic():
                    hf = HeapFile(db.segment("t"))
                    for _ in range(50):
                        hf.insert(b"y" * 3000)
                    db.buffer.flush_dirty()
                    raise RuntimeError("power cut")
        finally:
            crash(db)
        assert (path / WAL_FILENAME).exists()
        with Database(path) as db2:
            assert not (path / WAL_FILENAME).exists()

    def test_committed_crash_replays(self, tmp_path):
        path = tmp_path / "db"
        db = Database(path)
        hf = HeapFile(db.segment("t"))
        rid_before = hf.insert(b"pre-existing")
        db.buffer.flush_dirty()

        # Write new pages through the WAL and commit, then crash
        # BEFORE the dirty pages reach the segment files: recovery
        # must replay them from the log.
        wal = WriteAheadLog(path, db.page_size)
        wal.begin()
        db._wal = wal
        for pager in db._pagers.values():
            pager.wal = wal
        rids = [hf.insert(f"record-{i}".encode() * 30) for i in range(120)]
        # Log the dirty buffered pages manually (as flush would), but
        # do NOT write them in place.
        for (name, page_no), frame in db.buffer._frames.items():
            if frame.dirty:
                wal.log_page(name, page_no, bytes(frame.data))
        wal.commit()
        wal.close(discard=False)
        crash(db)

        with Database(path) as db2:
            assert not (path / WAL_FILENAME).exists()
            hf2 = HeapFile(db2.segment("t"))
            assert hf2.read(rid_before) == b"pre-existing"
            for i, rid in enumerate(rids):
                assert hf2.read(rid) == f"record-{i}".encode() * 30

    def test_torn_log_record_discarded(self, tmp_path):
        path = tmp_path / "db"
        with Database(path) as db:
            db.segment("t").allocate()
        # Fabricate a log with a truncated page record and no commit.
        wal = WriteAheadLog(path, 8192)
        wal.begin()
        wal.log_page("t", 0, b"\xab" * 8192)
        wal.close(discard=False)
        log = path / WAL_FILENAME
        data = log.read_bytes()
        log.write_bytes(data[: len(data) // 2])
        with Database(path) as db:
            assert not log.exists()
            # Original page untouched.
            assert bytes(db.segment("t").fetch(0)) != b"\xab" * 8192

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = tmp_path / "db"
        with Database(path) as db:
            db.segment("t").allocate()
        wal = WriteAheadLog(path, 8192)
        wal.begin()
        wal.log_page("t", 0, b"\xcd" * 8192)
        wal.commit()
        wal.close(discard=False)
        log = path / WAL_FILENAME
        raw = bytearray(log.read_bytes())
        raw[40] ^= 0xFF  # Flip a bit inside the page image.
        log.write_bytes(bytes(raw))
        with Database(path) as db:
            # CRC failure truncates the log before the commit record,
            # so nothing is replayed.
            assert bytes(db.segment("t").fetch(0)) != b"\xcd" * 8192


class TestCrashMatrix:
    """Atomicity under every torn-log shape.

    A committed three-record log is truncated at every record boundary
    and mid-record, and corrupted inside every record (and the commit
    record): recovery must either fully replay all three images or
    fully discard them — never apply a prefix.
    """

    PAGE_SIZE = 8192
    N_RECORDS = 3
    # crc(4) + kind(4) + name_len(4) + name("t") + page_no(8) + page.
    RECORD = 12 + 1 + 8 + PAGE_SIZE
    COMMIT = 12
    FULL = N_RECORDS * RECORD + COMMIT

    def _prepare(self, tmp_path) -> tuple:
        path = tmp_path / "db"
        with Database(path) as db:
            seg = db.segment("t")
            for _ in range(self.N_RECORDS):
                seg.allocate()
        wal = WriteAheadLog(path, self.PAGE_SIZE)
        wal.begin()
        for page_no in range(self.N_RECORDS):
            image = bytearray(self.PAGE_SIZE)
            image[:4] = bytes([page_no + 1] * 4)
            wal.log_page("t", page_no, bytes(image))
        wal.commit()
        wal.close(discard=False)
        return path, (path / WAL_FILENAME).read_bytes()

    def _recover_and_classify(self, path, raw: bytes) -> str:
        (path / WAL_FILENAME).write_bytes(raw)
        with Database(path) as db:
            assert not (path / WAL_FILENAME).exists()
            seg = db.segment("t")
            heads = [
                bytes(seg.fetch(p)[:4]) for p in range(self.N_RECORDS)
            ]
        applied = [
            heads[p] == bytes([p + 1] * 4) for p in range(self.N_RECORDS)
        ]
        untouched = [head == b"\x00" * 4 for head in heads]
        assert all(applied) or all(untouched), (
            f"partial replay: {applied}"
        )
        return "replayed" if all(applied) else "discarded"

    @pytest.mark.parametrize(
        "cut",
        [0, RECORD, 2 * RECORD, 3 * RECORD, FULL]
        + [100, RECORD + 100, 2 * RECORD + 100, 3 * RECORD + 6],
        ids=lambda c: f"cut-{c}",
    )
    def test_truncation_never_half_applies(self, tmp_path, cut):
        path, raw = self._prepare(tmp_path)
        assert len(raw) == self.FULL
        expected = "replayed" if cut == self.FULL else "discarded"
        assert self._recover_and_classify(path, raw[:cut]) == expected

    @pytest.mark.parametrize(
        "record", range(N_RECORDS + 1), ids=lambda r: f"record-{r}"
    )
    def test_corruption_never_half_applies(self, tmp_path, record):
        # A flipped byte inside record N (or, for the last index, the
        # commit record) breaks its crc; the parse stops there and the
        # commit record is never reached, so nothing may be applied.
        path, raw = self._prepare(tmp_path)
        damaged = bytearray(raw)
        offset = 40 if record < self.N_RECORDS else 6
        damaged[record * self.RECORD + offset] ^= 0xFF
        outcome = self._recover_and_classify(path, bytes(damaged))
        assert outcome == "discarded"


class TestWalUnit:
    def test_log_requires_begin(self, tmp_path):
        wal = WriteAheadLog(tmp_path, 512)
        with pytest.raises(StorageError):
            wal.log_page("t", 0, b"\x00" * 512)
        with pytest.raises(StorageError):
            wal.commit()

    def test_wrong_page_size_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path, 512)
        wal.begin()
        try:
            with pytest.raises(StorageError):
                wal.log_page("t", 0, b"\x00" * 100)
        finally:
            wal.close()

    def test_build_inside_atomic(self, tmp_path, wavy_pm, wavy_connections):
        from repro.core.direct_mesh import DirectMeshStore
        from repro.storage.integrity import scrub_database

        with Database(tmp_path / "db") as db:
            with db.atomic():
                DirectMeshStore.build(wavy_pm, db, wavy_connections)
        with Database(tmp_path / "db") as db:
            store = DirectMeshStore.open(db)
            assert scrub_database(db).ok


class TestPatchCrashMatrix:
    """Atomicity of the typed patch-record family (kinds 3/4).

    A committed patch log — begin header, three staged page images,
    patch-commit marker — is truncated at every record boundary and
    mid-record, and corrupted inside every record.  Recovery must land
    on exactly one of the two snapshots: fully replayed (pages applied
    AND the store epoch flipped) or fully discarded (pages untouched
    AND the epoch still at 0).  A half-state — pages without the flip,
    or the flip without the pages — is the bug this family exists to
    make impossible.
    """

    PAGE_SIZE = 8192
    N_PAGES = 3
    SEGMENT = "t@1_nodes"

    def _prepare(self, tmp_path) -> tuple:
        path = tmp_path / "db"
        with Database(path) as db:
            seg = db.segment(self.SEGMENT)
            for _ in range(self.N_PAGES):
                seg.allocate()
        header = {
            "prefix": "t",
            "from_epoch": 0,
            "to_epoch": 1,
            "region": [0.0, 0.0, 4.0, 4.0],
            "segments": [self.SEGMENT],
        }
        wal = WriteAheadLog(path, self.PAGE_SIZE)
        boundaries = []
        wal.begin_patch(header)
        boundaries.append(wal.path.stat().st_size)
        for page_no in range(self.N_PAGES):
            image = bytearray(self.PAGE_SIZE)
            image[:4] = bytes([page_no + 1] * 4)
            wal.log_page(self.SEGMENT, page_no, bytes(image))
            boundaries.append(wal.path.stat().st_size)
        wal.commit_patch(header)
        boundaries.append(wal.path.stat().st_size)
        wal.close(discard=False)
        return path, (path / WAL_FILENAME).read_bytes(), boundaries

    def _recover_and_classify(self, path, raw: bytes) -> str:
        (path / WAL_FILENAME).write_bytes(raw)
        with Database(path) as db:
            assert not (path / WAL_FILENAME).exists()
            epoch = db.store_epoch("t")
            seg = db.segment(self.SEGMENT)
            heads = [bytes(seg.fetch(p)[:4]) for p in range(self.N_PAGES)]
        applied = [
            heads[p] == bytes([p + 1] * 4) for p in range(self.N_PAGES)
        ]
        untouched = [head == b"\x00" * 4 for head in heads]
        assert all(applied) or all(untouched), f"partial replay: {applied}"
        if all(applied):
            assert epoch == 1, "pages replayed but epoch never flipped"
            return "replayed"
        assert epoch == 0, "epoch flipped without the pages"
        return "discarded"

    def test_full_log_replays_and_flips(self, tmp_path):
        path, raw, boundaries = self._prepare(tmp_path)
        assert len(raw) == boundaries[-1]
        assert self._recover_and_classify(path, raw) == "replayed"

    @pytest.mark.parametrize("boundary", range(5), ids=lambda b: f"after-{b}")
    def test_truncation_at_record_boundaries(self, tmp_path, boundary):
        # Cutting after the begin header, or after any staged page,
        # leaves no commit marker: everything must be discarded.  Only
        # boundary 4 (the full log) may replay — covered above.
        path, raw, boundaries = self._prepare(tmp_path)
        cut = boundaries[boundary]
        if cut == len(raw):
            return
        outcome = self._recover_and_classify(path, raw[:cut])
        assert outcome == "discarded"

    @pytest.mark.parametrize("record", range(5), ids=lambda r: f"record-{r}")
    def test_mid_record_truncation(self, tmp_path, record):
        path, raw, boundaries = self._prepare(tmp_path)
        start = 0 if record == 0 else boundaries[record - 1]
        end = boundaries[record]
        cut = start + (end - start) // 2
        outcome = self._recover_and_classify(path, raw[:cut])
        assert outcome == "discarded"

    @pytest.mark.parametrize("record", range(5), ids=lambda r: f"record-{r}")
    def test_corruption_inside_any_record_discards(self, tmp_path, record):
        # A flipped byte breaks that record's crc; the parse stops
        # there, never reaches the commit marker, and recovery must
        # discard — including a flip inside the commit marker itself.
        path, raw, boundaries = self._prepare(tmp_path)
        start = 0 if record == 0 else boundaries[record - 1]
        damaged = bytearray(raw)
        damaged[start + 13] ^= 0xFF
        outcome = self._recover_and_classify(path, bytes(damaged))
        assert outcome == "discarded"

    def test_uncommitted_patch_leaves_orphan_segments(self, tmp_path):
        # The discarded branch leaves the staged segment on disk with
        # the committed epoch below its tag — exactly what fsck
        # reports as an orphan, distinct from corruption.
        from repro.storage.integrity import scrub_database

        path, raw, boundaries = self._prepare(tmp_path)
        assert self._recover_and_classify(path, raw[: boundaries[2]]) == (
            "discarded"
        )
        with Database(path) as db:
            report = scrub_database(db)
        assert report.ok
        assert report.orphan_segments == 1
        assert report.orphans[0].segment == self.SEGMENT
        assert report.orphans[0].epoch == 1
        assert report.orphans[0].committed_epoch == 0


def logged_patch_header(wal: WriteAheadLog) -> dict | None:
    """The patch header ``wal``'s log carries, committed or not (the
    header recovery reads to re-apply a committed flip)."""
    if not wal.path.exists():
        return None
    return wal._parse(wal.path.read_bytes())[2]


class TestPatchWalUnit:
    def test_begin_patch_validates_header(self, tmp_path):
        wal = WriteAheadLog(tmp_path, 512)
        with pytest.raises(StorageError):
            wal.begin_patch({"prefix": "t", "to_epoch": 1})

    def test_patch_header_readable_before_commit(self, tmp_path):
        header = {
            "prefix": "t",
            "from_epoch": 0,
            "to_epoch": 1,
            "region": [0.0, 0.0, 1.0, 1.0],
            "segments": ["t@1_nodes"],
        }
        wal = WriteAheadLog(tmp_path, 512)
        wal.begin_patch(header)
        wal.close(discard=False)
        inspect = WriteAheadLog(tmp_path, 512)
        assert logged_patch_header(inspect) == header
        assert inspect.committed_records() is None

    def test_commit_marker_without_begin_header_discards(self, tmp_path):
        # A kind-4 marker in a log that never carried the kind-3
        # header is structurally invalid: the parse must refuse to
        # treat it as committed (recovery would have no flip target).
        wal = WriteAheadLog(tmp_path, 512)
        wal.begin()
        wal.log_page("t", 0, b"\x00" * 512)
        wal._append_json(4, {"prefix": "t", "to_epoch": 1})
        wal.close(discard=False)
        inspect = WriteAheadLog(tmp_path, 512)
        assert inspect.committed_records() is None

    def test_plain_commit_does_not_carry_patch_header(self, tmp_path):
        wal = WriteAheadLog(tmp_path, 512)
        wal.begin()
        wal.log_page("t", 0, b"\x01" * 512)
        wal.commit()
        wal.close(discard=False)
        inspect = WriteAheadLog(tmp_path, 512)
        assert logged_patch_header(inspect) is None
        records = inspect.committed_records()
        assert records is not None and len(records) == 1
