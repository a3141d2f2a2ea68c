"""Tests for the PM tree structure, LOD normalisation, and cuts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MeshError
from repro.mesh.progressive import (
    LOD_INFINITY,
    NULL_ID,
    PMNode,
    ProgressiveMesh,
)


def make_manual_pm():
    """A tiny handmade forest:

        4 (e raw 1.0)      roots: 4, 5
       / \\
      0   1        5 (e raw 0.2 -- smaller than a child would force
     (leaves)     / \\            normalisation if it had deep children)
                 2   3
    """
    nodes = [
        PMNode(0, 0, 0, 0, 0.0, parent=4),
        PMNode(1, 1, 0, 0, 0.0, parent=4),
        PMNode(2, 0, 1, 0, 0.0, parent=5),
        PMNode(3, 1, 1, 0, 0.0, parent=5),
        PMNode(4, 0.5, 0, 0, 1.0, child1=0, child2=1),
        PMNode(5, 0.5, 1, 0, 0.2, child1=2, child2=3),
    ]
    edges = {(0, 1), (2, 3), (0, 2), (1, 3)}
    return ProgressiveMesh(nodes, 4, edges)


class TestNormalisation:
    def test_leaf_lod_zero(self):
        pm = make_manual_pm()
        pm.normalize_lod()
        for i in range(4):
            assert pm.node(i).e == 0.0

    def test_parent_dominates_children(self, wavy_pm):
        for node in wavy_pm.nodes[wavy_pm.n_leaves:]:
            assert node.e >= wavy_pm.node(node.child1).e
            assert node.e >= wavy_pm.node(node.child2).e
            assert node.e >= node.error  # max() includes the raw error.

    def test_root_interval_unbounded(self, wavy_pm):
        for root_id in wavy_pm.roots:
            assert wavy_pm.node(root_id).e_high == LOD_INFINITY

    def test_interval_chain(self, wavy_pm):
        for node in wavy_pm.nodes:
            if node.parent != NULL_ID:
                assert node.e_high == wavy_pm.node(node.parent).e

    def test_idempotent(self):
        pm = make_manual_pm()
        pm.normalize_lod()
        before = [(n.e, n.e_high) for n in pm.nodes]
        pm.normalize_lod()
        assert [(n.e, n.e_high) for n in pm.nodes] == before

    def test_requires_normalisation(self):
        pm = make_manual_pm()
        with pytest.raises(MeshError):
            pm.uniform_cut(0.5)
        with pytest.raises(MeshError):
            pm.max_lod()


class TestFootprints:
    def test_footprint_contains_descendants(self, wavy_pm):
        for node in wavy_pm.nodes[wavy_pm.n_leaves:]:
            fp = node.footprint
            assert fp is not None
            for desc in wavy_pm.descendants(node.id):
                assert fp.contains_point(desc.x, desc.y)

    def test_leaf_footprint_is_point(self, wavy_pm):
        leaf = wavy_pm.node(0)
        assert leaf.footprint is not None
        assert leaf.footprint.area == 0.0


class TestCuts:
    def test_cut_at_zero_matches_finest(self):
        pm = make_manual_pm()
        pm.normalize_lod()
        assert set(pm.uniform_cut(0.0)) == {0, 1, 2, 3}

    def test_cut_above_max_is_roots(self, wavy_pm):
        cut = set(wavy_pm.uniform_cut(wavy_pm.max_lod() + 1))
        assert cut == set(wavy_pm.roots)

    def test_manual_cut_midway(self):
        pm = make_manual_pm()
        pm.normalize_lod()
        # e(4) = 1.0, e(5) = 0.2; at 0.5 node 4 is still split (its
        # children show) while node 5 has collapsed.
        assert set(pm.uniform_cut(0.5)) == {0, 1, 5}

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0, 1, allow_nan=False))
    def test_cut_always_partitions(self, wavy_pm, fraction):
        lod = wavy_pm.max_lod() * fraction
        cut = wavy_pm.uniform_cut(lod)
        assert wavy_pm.cut_is_partition(cut)

    def test_cut_monotone_in_lod(self, wavy_pm):
        sizes = [
            len(wavy_pm.uniform_cut(wavy_pm.max_lod() * f))
            for f in (0.0, 0.1, 0.3, 0.7, 1.1)
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestNavigation:
    def test_ancestors(self, wavy_pm):
        leaf = wavy_pm.node(0)
        chain = list(wavy_pm.ancestors(0))
        assert chain[0].id == leaf.parent
        assert chain[-1].parent == NULL_ID
        for a, b in zip(chain, chain[1:]):
            assert a.parent == b.id

    def test_depth(self, wavy_pm):
        assert wavy_pm.depth(wavy_pm.roots[0]) == 0
        assert wavy_pm.depth(0) == len(list(wavy_pm.ancestors(0)))

    def test_descendants_count(self):
        pm = make_manual_pm()
        assert {d.id for d in pm.descendants(4)} == {0, 1}

    def test_statistics(self, wavy_pm):
        assert 0 < wavy_pm.average_lod() < wavy_pm.max_lod()
        p10 = wavy_pm.lod_percentile(0.1)
        p90 = wavy_pm.lod_percentile(0.9)
        assert p10 <= p90 <= wavy_pm.max_lod()


class TestValidate:
    def test_catches_bad_positional_id(self):
        pm = make_manual_pm()
        pm.nodes[2].id = 99
        with pytest.raises(MeshError):
            pm.validate()

    def test_catches_child_after_parent(self):
        nodes = [
            PMNode(0, 0, 0, 0, 0.0, parent=2),
            PMNode(1, 1, 0, 0, 0.0, parent=2),
            PMNode(2, 0, 0, 0, 1.0, child1=0, child2=1),
        ]
        pm = ProgressiveMesh(nodes, 2, set())
        pm.validate()  # Fine.
        nodes[2].child1 = 2  # Self-reference.
        with pytest.raises(MeshError):
            pm.validate()

    def test_catches_broken_backlink(self):
        pm = make_manual_pm()
        pm.nodes[0].parent = 5  # Node 5 does not list 0 as a child.
        with pytest.raises(MeshError):
            pm.validate()
