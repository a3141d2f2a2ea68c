"""Tests for the disk-backed R*-tree."""

import hashlib
import random
import re
import uuid

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import IndexError_
from repro.geometry.primitives import Box3
from repro.index.rstar import (
    _ENTRY,
    _META,
    _NODE_HEADER,
    RStarTree,
    str_groups,
    str_order,
)
from repro.storage.database import Database


def random_boxes(n, seed=0, span=100.0):
    rng = random.Random(seed)
    boxes = []
    for _ in range(n):
        x, y, e = (rng.uniform(0, span) for _ in range(3))
        boxes.append(
            Box3(
                x,
                y,
                e,
                x + rng.uniform(0, 2),
                y + rng.uniform(0, 2),
                e + rng.uniform(0, 2),
            )
        )
    return boxes


def brute_force(boxes, query):
    return sorted(i for i, b in enumerate(boxes) if b.intersects(query))


@pytest.fixture
def tree(fresh_db):
    return RStarTree(fresh_db.segment("rt"))


def bulk(tree, boxes):
    """STR-pack ``boxes`` into ``tree`` with their indices as payloads."""
    tree.bulk_load([(b, i) for i, b in enumerate(boxes)])
    return tree


class TestInsertSearch:
    """Search equals brute force over every tree ``bulk_load`` packs."""

    def test_empty_search(self, tree):
        assert tree.search(Box3(0, 0, 0, 1, 1, 1)) == []
        bulk(tree, [])
        assert tree.search(Box3(0, 0, 0, 1, 1, 1)) == []
        assert len(tree) == 0
        tree.validate()

    def test_single(self, tree):
        bulk(tree, [Box3(1, 1, 1, 2, 2, 2)])
        tree.validate()
        assert tree.search(Box3(0, 0, 0, 3, 3, 3)) == [0]
        assert tree.search(Box3(5, 5, 5, 6, 6, 6)) == []

    def test_matches_brute_force(self, tree):
        boxes = random_boxes(800, seed=1)
        bulk(tree, boxes)
        tree.validate()
        for qseed in range(5):
            rng = random.Random(qseed + 100)
            x, y, e = (rng.uniform(0, 80) for _ in range(3))
            q = Box3(x, y, e, x + 25, y + 25, e + 25)
            assert sorted(tree.search(q)) == brute_force(boxes, q)

    def test_degenerate_segments(self, tree):
        # Vertical segments (the DM shape): zero x/y extent.
        segs = [
            Box3.vertical_segment(i * 1.0, i * 2.0, 0.0, i * 0.5 + 0.1)
            for i in range(300)
        ]
        bulk(tree, segs)
        tree.validate()
        plane = Box3(0, 0, 5.0, 300, 600, 5.0)
        got = sorted(tree.search(plane))
        want = brute_force(segs, plane)
        assert got == want

    def test_duplicate_boxes(self, tree):
        b = Box3(0, 0, 0, 1, 1, 1)
        bulk(tree, [b] * 200)
        tree.validate()
        assert sorted(tree.search(b)) == list(range(200))


class TestBulkLoad:
    def test_matches_brute_force(self, fresh_db):
        boxes = random_boxes(2000, seed=2)
        tree = RStarTree(fresh_db.segment("bulk"))
        tree.bulk_load([(b, i) for i, b in enumerate(boxes)])
        tree.validate()
        q = Box3(10, 10, 10, 50, 40, 30)
        assert sorted(tree.search(q)) == brute_force(boxes, q)
        assert len(tree) == 2000

    def test_bulk_requires_empty(self, tree):
        tree.bulk_load([(Box3(0, 0, 0, 1, 1, 1), 0)])
        with pytest.raises(IndexError_):
            tree.bulk_load([(Box3(0, 0, 0, 1, 1, 1), 1)])
        assert tree.search(Box3(0, 0, 0, 1, 1, 1)) == [0]

    @pytest.mark.parametrize(
        "field, message", [(3, "meta page counts"), (9, "data space")]
    )
    def test_validate_checks_meta_against_leaves(self, fresh_db, field, message):
        segment = fresh_db.segment(f"meta{field}")
        bulk(RStarTree(segment), random_boxes(300, seed=12))
        buf = segment.fetch(0)
        fields = list(_META.unpack_from(buf, 0))
        fields[field] += 1  # the entry count, or the data space's max_e
        _META.pack_into(buf, 0, *fields)
        with pytest.raises(IndexError_, match=message):
            RStarTree(segment).validate()

    def test_all_entries(self, fresh_db):
        tree = RStarTree(fresh_db.segment("ae"))
        boxes = random_boxes(100, seed=4)
        tree.bulk_load([(b, i) for i, b in enumerate(boxes)])
        assert sorted(v for _, v in tree.all_entries()) == list(range(100))


def _set(field, value):
    """A node edit setting field ``field`` of the node's first entry."""

    def edit(is_leaf, entries):
        entries[0][field] = value
        return is_leaf, entries, len(entries)

    return edit


class TestProblems:
    """``problems()`` reports each fault class a scrub must see, and
    ``validate()`` raises the first; the tree is a root over leaves."""

    @pytest.mark.parametrize(
        "page, edit, message",
        [
            ("leaf", _set(0, 1e9), "inverted MBR"),
            ("leaf", _set(2, 1e9), "violates e_low <= e_high"),
            ("leaf", lambda f, e: (f, e, 10_000), "entries (capacity"),
            ("root", lambda f, e: (1, e, len(e)), "leaf flag"),
            ("root", lambda f, e: (f, [e[0], *e], len(e)), "reachable twice"),
            ("root", _set(6, 9_999), "out of range"),
            ("leaf", lambda f, e: (f, e, 1), "underfull node"),
            ("leaf", _set(3, 1e9), "escapes its parent MBR"),
            ("meta", 3, "meta page counts"),
            ("meta", 9, "data space"),
        ],
    )
    def test_each_fault_class_is_reported(self, fresh_db, page, edit, message):
        segment = fresh_db.segment("rt")
        tree = bulk(RStarTree(segment), random_boxes(300, seed=12))
        assert tree.height == 2 and tree.problems() == []
        if page == "meta":
            fields = list(_META.unpack_from(segment.fetch(0), 0))
            fields[edit] += 1
            _META.pack_into(segment.fetch(0), 0, *fields)
        else:
            page_no = tree._root
            if page == "leaf":
                page_no = tree._read_node(page_no)[1][0][1]
            buf = segment.fetch(page_no)
            is_leaf, count = _NODE_HEADER.unpack_from(buf, 0)
            entries = [
                list(_ENTRY.unpack_from(buf, _NODE_HEADER.size + i * _ENTRY.size))
                for i in range(count)
            ]
            is_leaf, entries, count = edit(is_leaf, entries)
            _NODE_HEADER.pack_into(buf, 0, is_leaf, count)
            for i, entry in enumerate(entries):
                _ENTRY.pack_into(buf, _NODE_HEADER.size + i * _ENTRY.size, *entry)
        problems = RStarTree(segment).problems()
        assert any(message in p for p in problems), problems
        with pytest.raises(IndexError_, match=re.escape(problems[0])):
            RStarTree(segment).validate()


class TestStrOrder:
    def test_permutation(self):
        boxes = random_boxes(500, seed=6)
        order = str_order(boxes)
        assert sorted(order) == list(range(500))

    def test_groups_are_spatially_local(self):
        boxes = random_boxes(1000, seed=7)
        order = str_order(boxes, capacity=50)
        # Consecutive chunks of 50 should have small extents relative
        # to the whole space.
        for start in range(0, 1000, 200):
            chunk = [boxes[i] for i in order[start : start + 50]]
            min_x = min(b.min_x for b in chunk)
            max_x = max(b.max_x for b in chunk)
            assert max_x - min_x < 110  # Not the whole 100-space + box.


class TestStrGroups:
    """One STR implementation: the heap order is the flattening of the
    groups, and the R*-tree's bulk-loaded leaves are the groups."""

    def test_str_order_is_the_flattening_of_str_groups(self):
        boxes = random_boxes(1000, seed=7)
        for capacity in (50, 128):
            groups = str_groups(boxes, capacity)
            flat = [i for group in groups for i in group]
            assert str_order(boxes, capacity) == flat
            assert sorted(flat) == list(range(len(boxes)))
            assert all(2 <= len(group) <= capacity for group in groups)
        assert str_order(boxes) == [
            i for group in str_groups(boxes, 124) for i in group
        ]
        assert str_groups(boxes[:3], 10) == [[0, 1, 2]]
        assert str_groups([], 10) == []

    def test_bulk_load_leaves_are_the_str_groups(self, fresh_db):
        boxes = random_boxes(2000, seed=2)
        tree = RStarTree(fresh_db.segment("leaves"))
        tree.bulk_load([(b, i) for i, b in enumerate(boxes)])
        groups = str_groups(boxes, int(tree.capacity * 0.85))
        # Pages 0 and 1 are the meta page and the empty bootstrap root;
        # the leaf level is written next, one page per group.
        leaves = [tree._read_node(2 + k) for k in range(len(groups))]
        assert all(is_leaf for is_leaf, _ in leaves)
        assert [[i for _, i in entries] for _, entries in leaves] == groups

    def test_bulk_load_pages_are_pinned(self, fresh_db):
        """The bytes of every page STR bulk loading writes for a seeded
        box set, pinned: the digest the tiling had before it was
        shared with the heap order and the cluster runs."""
        segment = fresh_db.segment("pinned")
        tree = RStarTree(segment)
        boxes = random_boxes(3000, seed=11)
        tree.bulk_load([(b, i) for i, b in enumerate(boxes)])
        pages = b"".join(
            bytes(segment.fetch(p)) for p in range(segment.n_pages)
        )
        assert (segment.n_pages, tree.height) == (30, 2)
        assert hashlib.sha256(pages).hexdigest() == (
            "e93b0576263dfd307280d925df3b67c84d570a258dff6fffacaef0d5f6732327"
        )


class TestPersistence:
    def test_reopen(self, tmp_path):
        boxes = random_boxes(400, seed=8)
        with Database(tmp_path / "db") as db:
            tree = RStarTree(db.segment("rt"))
            tree.bulk_load([(b, i) for i, b in enumerate(boxes)])
        with Database(tmp_path / "db") as db:
            tree = RStarTree(db.segment("rt"))
            q = Box3(20, 20, 20, 40, 40, 40)
            assert sorted(tree.search(q)) == brute_force(boxes, q)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(0, 10**6))
    def test_random_queries_after_reload(self, tmp_path, qseed):
        # Bulk-load, reopen and query, once per example in a unique
        # directory.
        boxes = random_boxes(150, seed=9)
        path = tmp_path / uuid.uuid4().hex
        with Database(path) as db:
            bulk(RStarTree(db.segment("rt")), boxes)
        with Database(path) as db:
            tree = RStarTree(db.segment("rt"))
            tree.validate()
            rng = random.Random(qseed)
            x, y, e = (rng.uniform(0, 90) for _ in range(3))
            q = Box3(x, y, e, x + rng.uniform(1, 30), y + rng.uniform(1, 30),
                     e + rng.uniform(1, 30))
            assert sorted(tree.search(q)) == brute_force(boxes, q)
