"""Tests for the I/O tracer and access-pattern analysis."""

import pytest

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.heapfile import HeapFile
from repro.storage.trace import IOTrace, IOTracer


class TestIOTrace:
    def test_empty(self):
        trace = IOTrace()
        assert len(trace) == 0
        assert trace.runs() == []
        assert trace.sequentiality == 0.0

    def test_fully_sequential(self):
        trace = IOTrace([("a", 0), ("a", 1), ("a", 2), ("a", 3)])
        assert trace.runs() == [4]
        assert trace.sequentiality == 1.0

    def test_fully_random(self):
        trace = IOTrace([("a", 9), ("a", 2), ("a", 7), ("a", 0)])
        assert trace.runs() == [1, 1, 1, 1]
        assert trace.sequentiality == 0.0

    def test_mixed_runs(self):
        trace = IOTrace(
            [("a", 0), ("a", 1), ("b", 5), ("b", 6), ("b", 7), ("a", 3)]
        )
        assert trace.runs() == [2, 3, 1]
        assert trace.sequentiality == pytest.approx(3 / 5)

    def test_segment_switch_breaks_run(self):
        trace = IOTrace([("a", 0), ("b", 1)])
        assert trace.runs() == [1, 1]

    def test_by_segment_and_summary(self):
        trace = IOTrace([("a", 0), ("b", 0), ("a", 1)])
        assert trace.by_segment() == {"a": 2, "b": 1}

class TestIOTracer:
    def test_records_real_reads(self, tmp_path):
        with Database(tmp_path / "db", pool_pages=4) as db:
            hf = HeapFile(db.segment("t"))
            rids = [hf.insert(b"x" * 2000) for _ in range(40)]
            db.begin_measured_query()
            tracer = IOTracer.attach(db.stats)
            for rid in rids[:12]:
                hf.read(rid)
            trace = tracer.detach()
            assert len(trace) == db.disk_accesses
            assert all(seg == "t" for seg, _ in trace.reads)
            # Sequential RIDs over a freshly written heap: high
            # sequentiality.
            assert trace.sequentiality > 0.5

    def test_double_attach_rejected(self, tmp_path):
        with Database(tmp_path / "db") as db:
            tracer = IOTracer.attach(db.stats)
            with pytest.raises(StorageError):
                IOTracer.attach(db.stats)
            tracer.detach()

    def test_detach_without_attach(self, tmp_path):
        with Database(tmp_path / "db") as db:
            tracer = IOTracer(db.stats)
            with pytest.raises(StorageError):
                tracer.detach()

    def test_context_manager(self, tmp_path):
        with Database(tmp_path / "db") as db:
            hf = HeapFile(db.segment("t"))
            rid = hf.insert(b"hello")
            db.begin_measured_query()
            with IOTracer.attach(db.stats) as tracer:
                hf.read(rid)
            assert db.stats.trace_hook is None
            assert len(tracer.trace) == 1

    def test_method_access_patterns_differ(self, session_db, hills_dataset):
        """DM/PM/HDoV have distinct I/O signatures (texture behind the
        paper's single DA number)."""
        db = session_db["db"]
        ds = hills_dataset
        roi = ds.bounds().scaled(0.4)
        lod = ds.pm.average_lod()

        def traced(run):
            db.begin_measured_query()
            tracer = IOTracer.attach(db.stats)
            run()
            return tracer.detach()

        dm_trace = traced(lambda: session_db["dm"].uniform_query(roi, lod))
        pm_trace = traced(lambda: session_db["pm"].uniform_query(roi, lod))
        hdov_trace = traced(
            lambda: session_db["hdov"].uniform_query(roi, lod)
        )
        # DM reads whole cluster runs and HDoV whole versions: both
        # more sequential than PM's per-node fetches.  On this small
        # store DM's runs are the most sequential (on the 2M-point
        # benchmark store HDoV leads, see abl_access_pattern).
        assert dm_trace.sequentiality >= hdov_trace.sequentiality
        assert dm_trace.sequentiality > pm_trace.sequentiality
        assert hdov_trace.sequentiality > pm_trace.sequentiality
        # PM touches the most pages.
        assert len(pm_trace) > len(dm_trace)
