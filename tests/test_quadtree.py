"""Tests for the LOD-quadtree."""

import random

import pytest

from repro.errors import IndexError_
from repro.geometry.primitives import Box3
from repro.index.quadtree import LodQuadtree
from repro.storage.database import Database


def skewed_points(n, seed=0):
    """Uniform in (x, y), exponentially skewed in e — the LOD shape."""
    rng = random.Random(seed)
    return [
        (rng.uniform(0, 100), rng.uniform(0, 100), rng.expovariate(2.0), i)
        for i in range(n)
    ]


def brute_force(points, query):
    return sorted(
        v for x, y, e, v in points if query.contains_point(x, y, e)
    )


@pytest.fixture
def tree(fresh_db):
    return LodQuadtree(fresh_db.segment("qt"))


class TestQueries:
    def test_empty(self, tree):
        assert tree.range_search(Box3(0, 0, 0, 1, 1, 1)) == []
        assert len(tree) == 0

    def test_small_set(self, tree):
        pts = [(1.0, 1.0, 0.5, 10), (5.0, 5.0, 2.0, 20), (5.0, 1.0, 0.1, 30)]
        tree.bulk_load(pts)
        q = Box3(0, 0, 0, 6, 6, 1)
        assert sorted(v for *_, v in tree.range_search(q)) == [10, 30]

    def test_matches_brute_force(self, tree):
        pts = skewed_points(8000, seed=1)
        tree.bulk_load(pts)
        for qseed in range(6):
            rng = random.Random(qseed)
            x, y = rng.uniform(0, 70), rng.uniform(0, 70)
            lo = rng.uniform(0, 1)
            q = Box3(x, y, lo, x + 25, y + 25, lo + rng.uniform(0.1, 3))
            got = sorted(v for *_, v in tree.range_search(q))
            assert got == brute_force(pts, q)

    def test_boundary_inclusive(self, tree):
        pts = [(5.0, 5.0, 1.0, 1)]
        tree.bulk_load(pts)
        assert len(tree.range_search(Box3(5, 5, 1, 6, 6, 2))) == 1
        assert len(tree.range_search(Box3(0, 0, 0, 5, 5, 1))) == 1

    def test_tall_cube_like_pm_query(self, tree):
        # The PM baseline's cube: full LOD range above a floor.
        pts = skewed_points(5000, seed=2)
        tree.bulk_load(pts)
        q = Box3(20, 20, 0.5, 50, 50, 100.0)
        assert sorted(
            v for *_, v in tree.range_search(q)
        ) == brute_force(pts, q)


class TestStructure:
    def test_bulk_requires_empty(self, tree):
        tree.bulk_load([(0.0, 0.0, 0.0, 1)])
        with pytest.raises(IndexError_):
            tree.bulk_load([(1.0, 1.0, 1.0, 2)])

    def test_duplicate_coordinates_spill(self, tree):
        # More identical points than fit one leaf page.
        pts = [(1.0, 1.0, 0.0, i) for i in range(600)]
        tree.bulk_load(pts)
        q = Box3(0, 0, 0, 2, 2, 1)
        assert len(tree.range_search(q)) == 600

    def test_adaptive_e_split_used(self, fresh_db):
        # Strong LOD skew in a tiny (x, y) area forces e-splits; the
        # tree must still answer correctly.
        rng = random.Random(3)
        pts = [
            (
                50 + rng.uniform(-0.5, 0.5),
                50 + rng.uniform(-0.5, 0.5),
                rng.expovariate(0.5),
                i,
            )
            for i in range(2000)
        ]
        tree = LodQuadtree(fresh_db.segment("skew"))
        tree.bulk_load(pts)
        q = Box3(49, 49, 1.0, 51, 51, 3.0)
        assert sorted(
            v for *_, v in tree.range_search(q)
        ) == brute_force(pts, q)

    def test_persistence(self, tmp_path):
        pts = skewed_points(2000, seed=4)
        with Database(tmp_path / "db") as db:
            LodQuadtree(db.segment("qt")).bulk_load(pts)
        with Database(tmp_path / "db") as db:
            tree = LodQuadtree(db.segment("qt"))
            assert len(tree) == 2000
            q = Box3(10, 10, 0, 60, 60, 1)
            assert sorted(
                v for *_, v in tree.range_search(q)
            ) == brute_force(pts, q)

    def test_wrong_magic(self, fresh_db):
        from repro.index.btree import BPlusTree

        BPlusTree(fresh_db.segment("bt"))
        with pytest.raises(IndexError_):
            LodQuadtree(fresh_db.segment("bt"))
