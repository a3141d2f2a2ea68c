"""Regression tests for bugs found during development.

Each test pins a specific defect class so it cannot silently return:
the quadtree duplicate-coordinate chain corruption, STR singleton
tails, orient2d underflow, and endpoint-placement duplicate positions.
"""

import random

import pytest

from repro.geometry.primitives import Box3
from repro.index.quadtree import LodQuadtree
from repro.index.rstar import RStarTree


class TestQuadtreeChainRegression:
    """Crater dataset, schema v7: PM parents placed exactly on a child
    endpoint produced identical (x, y) populations whose spill chains
    stored a bogus e-split value, corrupting descent boxes
    ('inverted box' GeometryError on range_search)."""

    def test_identical_xy_distinct_e(self, fresh_db):
        tree = LodQuadtree(fresh_db.segment("qt"))
        # 600 points at the same (x, y) with increasing e: more than
        # two leaf pages, so the chain has depth > 1.
        pts = [(10.0, 10.0, float(i), i) for i in range(600)]
        # And regular points around them.
        rng = random.Random(1)
        pts += [
            (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 5),
             1000 + i)
            for i in range(500)
        ]
        tree.bulk_load(pts)
        # The failing query shape: a box whose e-range is far from the
        # chain's first point's e.
        q = Box3(5, 5, 100.0, 15, 15, 400.0)
        got = sorted(v for *_, v in tree.range_search(q))
        want = sorted(
            v for x, y, e, v in pts if q.contains_point(x, y, e)
        )
        assert got == want

    def test_identical_everything(self, fresh_db):
        tree = LodQuadtree(fresh_db.segment("qt"))
        pts = [(1.0, 2.0, 3.0, i) for i in range(700)]
        tree.bulk_load(pts)
        assert tree.count_in_range(Box3(0, 0, 0, 5, 5, 5)) == 700
        assert tree.count_in_range(Box3(0, 0, 4, 5, 5, 5)) == 0


class TestStrSingletonRegression:
    """STR packing could emit a trailing 1-entry node, violating the
    R-tree minimum-fill invariant and failing validate() after later
    inserts."""

    @pytest.mark.parametrize("count", [125, 249, 373, 497])
    def test_awkward_counts_validate(self, fresh_db, count):
        rng = random.Random(count)
        tree = RStarTree(fresh_db.segment(f"rt{count}"))
        entries = []
        for i in range(count):
            x, y, e = (rng.uniform(0, 100) for _ in range(3))
            entries.append((Box3(x, y, e, x + 1, y + 1, e + 1), i))
        tree.bulk_load(entries)
        tree.validate()


class TestOrient2dUnderflowRegression:
    """Subnormal-scale coordinates made one evaluation order return 0
    while another returned the correct sign (hypothesis found it)."""

    def test_known_case(self):
        from repro.geometry.predicates import orient2d

        ax, ay = 4.716257917594479e-256, 2.220209278194716e-180
        bx, by = 4.716257917594479e-256, 0.0
        cx, cy = 0.0, 1.0
        first = orient2d(ax, ay, bx, by, cx, cy)
        second = orient2d(bx, by, cx, cy, ax, ay)
        assert first == second != 0


class TestDuplicatePositionNodes:
    """QEM endpoint placement can give a parent exactly its child's
    (x, y): stores and indexes must tolerate coincident positions."""

    def test_store_with_coincident_nodes(self, tmp_path):
        from repro.core.connectivity import build_connection_lists
        from repro.core.direct_mesh import DirectMeshStore
        from repro.core.verify_store import verify_store
        from repro.mesh.selective import uniform_query_ref
        from repro.mesh.simplify import simplify_to_pm
        from repro.storage.database import Database
        from tests.conftest import make_wavy_grid_mesh

        mesh = make_wavy_grid_mesh(side=14, seed=3)
        # Endpoint duplicates come from the optimal placement's
        # fallback chain.
        pm = simplify_to_pm(mesh)
        pm.normalize_lod()
        conn = build_connection_lists(pm)
        coincident = 0
        positions = {}
        for node in pm.nodes:
            key = (node.x, node.y)
            coincident += key in positions
            positions[key] = node.id
        with Database(tmp_path / "db") as db:
            store = DirectMeshStore.build(pm, db, conn)
            assert verify_store(store).ok
            roi = mesh.bounds().scaled(0.6)
            lod = pm.average_lod()
            assert set(store.uniform_query(roi, lod).nodes) == (
                uniform_query_ref(pm, roi, lod)
            )


class TestHalfOpenIntervalBoundary:
    """Interval tops are exclusive: a query at exactly a parent's e
    must return the parent, not the children."""

    def test_boundary_lod_query(self, session_db, hills_dataset):
        ds = hills_dataset
        store = session_db["dm"]
        # Pick an internal node's exact normalised error as the LOD.
        node = next(
            n for n in ds.pm.internal_nodes if n.e > 0 and n.parent != -1
        )
        roi = ds.bounds()
        result = store.uniform_query(roi, node.e)
        assert node.id in result.nodes
        child = ds.pm.node(node.child1)
        # The child's interval ends exactly at node.e: excluded.
        assert child.id not in result.nodes
