"""Tests for the disk-backed B+-tree."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import IndexError_
from repro.index.btree import BPlusTree
from repro.storage.database import Database


@pytest.fixture
def tree(fresh_db):
    return BPlusTree(fresh_db.segment("bt"))


def loaded(tree, model):
    """Pack ``model``'s items into ``tree`` in key order."""
    tree.bulk_load(sorted(model.items()))
    return tree


class TestBasics:
    def test_empty_get(self, tree):
        assert tree.get(42) is None
        assert len(tree) == 0

    def test_insert_get(self, tree):
        loaded(tree, {5: 100})
        assert tree.get(5) == 100
        assert tree.get(4) is None
        assert len(tree) == 1

    def test_overwrite(self, tree):
        # No key is written twice: a repeated key is refused, and the
        # tree stays empty.
        with pytest.raises(IndexError_):
            tree.bulk_load([(5, 100), (5, 200)])
        assert tree.get(5) is None
        assert len(tree) == 0

    def test_many_random(self, tree):
        rng = random.Random(0)
        keys = rng.sample(range(10**7), 5000)
        loaded(tree, {k: k + 1 for k in keys})
        assert tree.height >= 2  # More than one leaf.
        for k in rng.sample(keys, 500):
            assert tree.get(k) == k + 1
        assert tree.get(10**7 + 1) is None
        tree.validate()

    def test_sequential_inserts(self, tree):
        loaded(tree, {k: k * 2 for k in range(3000)})
        tree.validate()
        assert tree.get(2999) == 5998

    def test_reverse_sequential(self, tree):
        loaded(tree, {k: k for k in range(2000, 0, -1)})
        tree.validate()
        assert [k for k, _ in tree.range(1, 10)] == list(range(1, 11))


class TestRange:
    def test_range_inclusive(self, tree):
        loaded(tree, {k: k for k in range(0, 100, 2)})
        assert [k for k, _ in tree.range(10, 20)] == [10, 12, 14, 16, 18, 20]

    def test_range_across_leaves(self, tree):
        loaded(tree, {k: k for k in range(4000)})
        got = [k for k, _ in tree.range(500, 1500)]
        assert got == list(range(500, 1501))

    def test_range_empty(self, tree):
        loaded(tree, {1: 1})
        assert list(tree.range(5, 10)) == []

    def test_items_in_order(self, tree):
        keys = [9, 1, 7, 3, 5]
        loaded(tree, {k: k for k in keys})
        assert [k for k, _ in tree.items()] == sorted(keys)


class TestBulkLoad:
    def test_bulk_equals_inserted(self, fresh_db):
        items = [(k * 3, k) for k in range(5000)]
        bulk = BPlusTree(fresh_db.segment("bulk"))
        bulk.bulk_load(items)
        bulk.validate()
        assert len(bulk) == 5000
        for k, v in items[::97]:
            assert bulk.get(k) == v
        assert bulk.get(1) is None

    def test_bulk_requires_sorted_unique(self, tree):
        with pytest.raises(IndexError_):
            tree.bulk_load([(2, 0), (1, 0)])
        with pytest.raises(IndexError_):
            tree.bulk_load([(1, 0), (1, 1)])

    def test_bulk_requires_empty(self, tree):
        loaded(tree, {1: 1})
        with pytest.raises(IndexError_):
            tree.bulk_load([(2, 2)])
        assert list(tree.items()) == [(1, 1)]


class TestPersistence:
    def test_reopen(self, tmp_path):
        with Database(tmp_path / "db") as db:
            loaded(BPlusTree(db.segment("bt")), {k: k * 7 for k in range(1000)})
        with Database(tmp_path / "db") as db:
            t = BPlusTree(db.segment("bt"))
            assert len(t) == 1000
            assert t.get(123) == 861

    def test_wrong_magic(self, tmp_path):
        from repro.storage.heapfile import HeapFile

        with Database(tmp_path / "db") as db:
            HeapFile(db.segment("notbt")).insert(b"x")
            with pytest.raises(IndexError_):
                BPlusTree(db.segment("notbt"))


class TestModel:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.dictionaries(st.integers(0, 500), st.integers(0, 10**6), max_size=200),
        st.integers(0, 500),
        st.integers(0, 100),
    )
    def test_matches_dict_model(self, fresh_db, model, lo, span):
        import uuid

        tree = BPlusTree(fresh_db.segment(f"m{uuid.uuid4().hex[:8]}"))
        loaded(tree, model)
        tree.validate()
        assert len(tree) == len(model)
        for key in range(501):
            assert tree.get(key) == model.get(key)
        assert list(tree.items()) == sorted(model.items())
        assert [k for k, _ in tree.range(lo, lo + span)] == sorted(
            k for k in model if lo <= k <= lo + span
        )
