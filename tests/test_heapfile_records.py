"""Tests for heap files, RIDs, and record codecs."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import RecordError, StorageError
from repro.geometry.primitives import Rect
from repro.mesh.progressive import LOD_INFINITY, NULL_ID, PMNode
from repro.storage.database import Database
from repro.storage.heapfile import HeapFile, pack_rid, unpack_rid
from repro.storage.record import (
    PM_RECORD_SIZE,
    decode_dm_node,
    decode_pm_node,
    dm_record_size,
    encode_dm_node,
    encode_pm_node,
)


class TestRid:
    def test_roundtrip(self):
        rid = pack_rid(12345, 678)
        assert unpack_rid(rid) == (12345, 678)

    def test_zero(self):
        assert unpack_rid(pack_rid(0, 0)) == (0, 0)

    def test_slot_out_of_range(self):
        with pytest.raises(StorageError):
            pack_rid(0, 1 << 16)
        with pytest.raises(StorageError):
            pack_rid(-1, 0)

    @given(st.integers(0, (1 << 40)), st.integers(0, (1 << 16) - 1))
    def test_roundtrip_property(self, page, slot):
        assert unpack_rid(pack_rid(page, slot)) == (page, slot)


class TestHeapFile:
    def test_insert_read(self, fresh_db):
        hf = HeapFile(fresh_db.segment("t"))
        rid = hf.insert(b"payload")
        assert hf.read(rid) == b"payload"

    def test_many_pages(self, fresh_db):
        hf = HeapFile(fresh_db.segment("t"))
        rids = [hf.insert(f"row-{i}".encode() * 20) for i in range(2000)]
        assert hf.n_pages > 1
        assert hf.read(rids[1500]) == b"row-1500" * 20
        assert hf.count() == 2000

    def test_scan_order(self, fresh_db):
        hf = HeapFile(fresh_db.segment("t"))
        rids = [hf.insert(bytes([i])) for i in range(50)]
        scanned = [rid for rid, _ in hf.scan()]
        assert scanned == rids

    def test_read_many_preserves_input_order(self, fresh_db):
        hf = HeapFile(fresh_db.segment("t"))
        rids = [hf.insert(f"{i}".encode()) for i in range(100)]
        shuffled = rids[::-1]
        payloads = hf.read_many(shuffled)
        assert payloads == [f"{99 - i}".encode() for i in range(100)]

    def test_delete(self, fresh_db):
        hf = HeapFile(fresh_db.segment("t"))
        rid = hf.insert(b"bye")
        hf.delete(rid)
        assert hf.count() == 0

    def test_oversized_record(self, fresh_db):
        hf = HeapFile(fresh_db.segment("t"))
        with pytest.raises(StorageError):
            hf.insert(b"x" * 9000)

    def test_persistence(self, tmp_path):
        with Database(tmp_path / "db") as db:
            hf = HeapFile(db.segment("t"))
            rid = hf.insert(b"durable")
        with Database(tmp_path / "db") as db:
            hf = HeapFile(db.segment("t"))
            assert hf.read(rid) == b"durable"


def make_node(**overrides):
    defaults = dict(
        id=7,
        x=1.5,
        y=-2.5,
        z=88.25,
        error=0.75,
        parent=9,
        child1=3,
        child2=4,
        wing1=5,
        wing2=NULL_ID,
    )
    defaults.update(overrides)
    node = PMNode(**defaults)
    node.e = defaults["error"]
    node.e_high = 2.0
    node.footprint = Rect(0, -3, 2, 0)
    return node


class TestPMRecord:
    def test_roundtrip(self):
        node = make_node()
        payload = encode_pm_node(node)
        assert len(payload) == PM_RECORD_SIZE
        back = decode_pm_node(payload)
        assert back.id == node.id
        assert back.x == node.x
        assert back.e == node.e
        assert back.e_high == node.e_high
        assert back.parent == node.parent
        assert back.wings() == node.wings()
        assert back.footprint.as_tuple() == node.footprint.as_tuple()

    def test_infinity_roundtrip(self):
        node = make_node(parent=NULL_ID)
        node.e_high = LOD_INFINITY
        back = decode_pm_node(encode_pm_node(node))
        assert back.e_high == LOD_INFINITY
        assert math.isinf(back.e_high)

    def test_requires_footprint(self):
        node = make_node()
        node.footprint = None
        with pytest.raises(RecordError):
            encode_pm_node(node)

    def test_wrong_size_rejected(self):
        with pytest.raises(RecordError):
            decode_pm_node(b"\x00" * 10)


class TestDMRecord:
    def test_roundtrip_with_connections(self):
        node = make_node()
        conn = [1, 2, 8, 15]
        payload = encode_dm_node(node, conn)
        assert len(payload) == dm_record_size(4)
        back = decode_dm_node(payload)
        assert back.id == node.id
        assert back.connections == conn
        assert back.e_low == node.e
        assert back.e_high == node.e_high
        assert (back.child1, back.child2) == (3, 4)

    def test_empty_connections(self):
        back = decode_dm_node(encode_dm_node(make_node(), []))
        assert back.connections == []

    def test_interval_semantics(self):
        back = decode_dm_node(encode_dm_node(make_node(), []))
        assert back.interval_contains(0.75)
        assert back.interval_contains(1.99)
        assert not back.interval_contains(2.0)  # Half-open top.
        assert not back.interval_contains(0.74)

    def test_is_leaf(self):
        leaf = make_node(child1=NULL_ID, child2=NULL_ID)
        assert decode_dm_node(encode_dm_node(leaf, [])).is_leaf

    def test_truncated_rejected(self):
        payload = encode_dm_node(make_node(), [1, 2, 3])
        with pytest.raises(RecordError):
            decode_dm_node(payload[:-2])
        with pytest.raises(RecordError):
            decode_dm_node(payload[: dm_record_size(0) - 1])

    @given(st.lists(st.integers(0, 2**31 - 1), max_size=64))
    def test_connection_list_roundtrip(self, conn):
        back = decode_dm_node(encode_dm_node(make_node(), conn))
        assert back.connections == conn
