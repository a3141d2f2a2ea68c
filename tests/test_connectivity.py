"""Tests for the Direct Mesh connection-point computation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.connectivity import (
    build_connection_lists,
    connection_statistics,
    total_connection_counts,
)
from repro.errors import MeshError
from repro.mesh.simplify import simplify_to_pm
from tests.conftest import make_wavy_grid_mesh


@pytest.fixture(scope="module")
def pm_and_conn():
    mesh = make_wavy_grid_mesh(side=16, seed=4)
    pm = simplify_to_pm(mesh)
    pm.normalize_lod()
    return pm, build_connection_lists(pm)


class TestBasics:
    def test_requires_normalisation(self):
        mesh = make_wavy_grid_mesh(side=8, seed=1)
        pm = simplify_to_pm(mesh)
        with pytest.raises(MeshError):
            build_connection_lists(pm)

    def test_symmetry(self, pm_and_conn):
        pm, conn = pm_and_conn
        for node_id, others in conn.items():
            for other in others:
                assert node_id in conn[other]

    def test_no_self_connections(self, pm_and_conn):
        _, conn = pm_and_conn
        for node_id, others in conn.items():
            assert node_id not in others

    def test_base_edges_included(self, pm_and_conn):
        pm, conn = pm_and_conn
        for a, b in pm.base_edges:
            assert b in conn[a]
            assert a in conn[b]

    def test_no_parent_child_pairs(self, pm_and_conn):
        # Parent and child cannot coexist in any approximation, so they
        # are never connection points of each other (paper Section 4).
        pm, conn = pm_and_conn
        for node in pm.nodes[pm.n_leaves:]:
            assert node.child1 not in conn[node.id]
            assert node.child2 not in conn[node.id]

    def test_intervals_touch_or_overlap(self, pm_and_conn):
        # Every recorded pair coexisted in some replay state, so their
        # LOD intervals intersect (possibly degenerately on ties).
        pm, conn = pm_and_conn
        for node_id, others in conn.items():
            node = pm.node(node_id)
            for other_id in others:
                other = pm.node(other_id)
                assert node.e <= other.e_high and other.e <= node.e_high


class TestExactness:
    """The core Direct Mesh claim: connection lists reconstruct the
    exact adjacency of every uniform approximation."""

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0, 1.2, allow_nan=False))
    def test_cut_neighbors_form_planar_mesh(self, pm_and_conn, fraction):
        pm, conn = pm_and_conn
        lod = pm.max_lod() * fraction
        cut = set(pm.uniform_cut(lod))
        edges = {
            (a, b)
            for a in cut
            for b in conn[a]
            if b in cut and a < b
        }
        v = len(cut)
        e = len(edges)
        if v >= 3:
            # Planar triangulation bound: E <= 3V - 6.
            assert e <= 3 * v - 6
            # Connected terrain cut: E >= V - 1.
            assert e >= v - 1

    def test_finest_cut_reproduces_base_mesh(self, pm_and_conn):
        pm, conn = pm_and_conn
        cut = set(pm.uniform_cut(0.0))
        # Leaves that survive (not absorbed by zero-error collapses).
        surviving_leaves = {i for i in cut if i < pm.n_leaves}
        edges_at_zero = {
            (a, b) for a in cut for b in conn[a] if b in cut and a < b
        }
        for a, b in pm.base_edges:
            if a in surviving_leaves and b in surviving_leaves:
                key = (a, b) if a < b else (b, a)
                assert key in edges_at_zero

    def test_coarsest_cut_connected(self, pm_and_conn):
        pm, conn = pm_and_conn
        lod = pm.max_lod() * 0.5
        cut = set(pm.uniform_cut(lod))
        if len(cut) <= 1:
            return
        # BFS over cut-restricted connections.
        start = next(iter(cut))
        seen = {start}
        frontier = [start]
        while frontier:
            nid = frontier.pop()
            for other in conn[nid]:
                if other in cut and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        assert seen == cut


class TestStatistics:
    def test_similar_vs_total(self, pm_and_conn):
        pm, conn = pm_and_conn
        stats = connection_statistics(pm, conn, include_totals=True)
        # The paper's Section 4 comparison: similar-LOD lists are much
        # smaller than the total connection sets.
        assert stats["avg_similar"] < stats["avg_total"]
        assert 4 <= stats["avg_similar"] <= 30
        assert stats["max_similar"] >= stats["avg_similar"]

    def test_totals_dominate_pointwise(self, pm_and_conn):
        pm, conn = pm_and_conn
        totals = total_connection_counts(pm, conn)
        for node_id, others in conn.items():
            own_ancestors = {a.id for a in pm.ancestors(node_id)}
            eligible = [o for o in others if o not in own_ancestors]
            assert totals[node_id] >= len(eligible)

    def test_totals_grow_with_dataset(self):
        small_mesh = make_wavy_grid_mesh(side=8, seed=2)
        big_mesh = make_wavy_grid_mesh(side=20, seed=2)
        results = []
        for mesh in (small_mesh, big_mesh):
            pm = simplify_to_pm(mesh)
            pm.normalize_lod()
            stats = connection_statistics(pm, include_totals=True)
            results.append(stats)
        # Similar-LOD list size is roughly scale-free; totals grow.
        assert results[1]["avg_total"] > results[0]["avg_total"]
        assert results[1]["avg_similar"] < results[0]["avg_similar"] * 2.5
