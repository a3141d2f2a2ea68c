"""Tests for edge-collapse PM construction."""

import pytest

from repro.errors import SimplificationError
from repro.mesh.progressive import NULL_ID
from repro.mesh.simplify import SimplifyConfig, simplify_to_pm
from repro.mesh.trimesh import TriMesh
from tests.conftest import make_wavy_grid_mesh


class TestConfig:
    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            SimplifyConfig(error_measure="hausdorff")


class TestStructure:
    def test_empty_mesh_rejected(self):
        with pytest.raises(SimplificationError):
            simplify_to_pm(TriMesh([(0, 0, 0)], []))

    def test_leaves_are_original_vertices(self, wavy_mesh, wavy_pm):
        assert wavy_pm.n_leaves == wavy_mesh.n_vertices
        for i in range(wavy_pm.n_leaves):
            node = wavy_pm.node(i)
            assert node.is_leaf
            assert (node.x, node.y, node.z) == wavy_mesh.vertices[i]

    def test_collapses_to_single_root(self, wavy_pm):
        # A connected terrain should collapse to one root (or very few
        # if boundary constraints block late collapses).
        assert len(wavy_pm.roots) <= 3

    def test_binary_tree_node_count(self, wavy_pm):
        # Every internal node merges exactly two: n_internal =
        # n_leaves - n_roots.
        n_internal = len(wavy_pm.nodes) - wavy_pm.n_leaves
        assert n_internal == wavy_pm.n_leaves - len(wavy_pm.roots)

    def test_structure_validates(self, wavy_pm):
        wavy_pm.validate()

    def test_children_precede_parents(self, wavy_pm):
        for node in wavy_pm.internal_nodes:
            assert node.child1 < node.id
            assert node.child2 < node.id
            assert node.child1 != node.child2

    def test_wings_are_distinct_from_children(self, wavy_pm):
        for node in wavy_pm.internal_nodes:
            for wing in node.wings():
                assert wing not in (node.child1, node.child2)

    def test_interior_collapses_have_wings(self, wavy_pm):
        with_wings = sum(
            1 for n in wavy_pm.internal_nodes if n.wings()
        )
        total = len(wavy_pm.nodes) - wavy_pm.n_leaves
        # Nearly every collapse in a big mesh is interior or boundary
        # with at least one wing; only the final few are wing-less.
        assert with_wings >= total - 5

    def test_base_edges_recorded(self, wavy_mesh, wavy_pm):
        assert wavy_pm.base_edges == wavy_mesh.edges()


class TestErrorMeasures:
    def test_vertical_error_bounded_by_relief(self):
        mesh = make_wavy_grid_mesh(side=12, seed=5)
        pm = simplify_to_pm(
            mesh, SimplifyConfig(error_measure="vertical")
        )
        z_min = min(v[2] for v in mesh.vertices)
        z_max = max(v[2] for v in mesh.vertices)
        relief = z_max - z_min
        for node in pm.internal_nodes:
            # A vertical distance can exceed the static relief a little
            # (the new point may move), but not wildly.
            assert node.error <= relief * 3

    def test_qem_error_nonnegative(self):
        mesh = make_wavy_grid_mesh(side=12, seed=5)
        pm = simplify_to_pm(mesh, SimplifyConfig(error_measure="qem"))
        assert all(n.error >= 0 for n in pm.internal_nodes)

    def test_flat_mesh_collapses_with_zero_error(self):
        mesh = TriMesh.from_grid([[1.0] * 8 for _ in range(8)])
        pm = simplify_to_pm(mesh, SimplifyConfig(error_measure="qem"))
        assert max(n.error for n in pm.internal_nodes) == pytest.approx(
            0.0, abs=1e-6
        )


class TestGeometryInvariants:
    def test_intermediate_states_stay_planar(self):
        """Replaying collapses never flips a surviving triangle.

        This is the invariant the Direct Mesh exactness argument rests
        on, so it gets its own end-to-end check on a small mesh.
        """
        mesh = make_wavy_grid_mesh(side=10, seed=9)
        pm = simplify_to_pm(mesh)
        pm.normalize_lod()
        # Walk a handful of uniform cuts and verify CCW triangles can
        # be formed between cut neighbours (spot check via positions).
        for fraction in (0.0, 0.05, 0.2, 0.6):
            cut = pm.uniform_cut(pm.max_lod() * fraction)
            assert pm.cut_is_partition(cut)

    def test_no_orphan_nodes(self, wavy_pm):
        reachable = set()
        stack = list(wavy_pm.roots)
        while stack:
            nid = stack.pop()
            reachable.add(nid)
            stack.extend(wavy_pm.node(nid).children())
        assert len(reachable) == len(wavy_pm.nodes)

    def test_parent_links_consistent(self, wavy_pm):
        for node in wavy_pm.nodes:
            if node.parent != NULL_ID:
                parent = wavy_pm.node(node.parent)
                assert node.id in parent.children()
