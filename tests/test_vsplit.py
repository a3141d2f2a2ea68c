"""Tests for wing-based vertex split / collapse (DynamicMesh)."""

import pytest

from repro.errors import MeshError
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.mesh.vsplit import DynamicMesh


@pytest.fixture
def coarse(wavy_pm):
    """A DynamicMesh at the coarsest state (roots only)."""
    return DynamicMesh(wavy_pm)


class TestBootstrap:
    def test_starts_at_roots(self, wavy_pm, coarse):
        assert coarse.active == set(wavy_pm.roots)

    def test_start_at_lod(self, wavy_pm):
        lod = wavy_pm.max_lod() * 0.2
        mesh = DynamicMesh(wavy_pm, start_lod=lod)
        assert mesh.active == set(wavy_pm.uniform_cut(lod))
        mesh.validate()

    def test_requires_normalised(self, wavy_mesh):
        from repro.mesh.simplify import simplify_to_pm

        raw = simplify_to_pm(wavy_mesh)
        with pytest.raises(MeshError):
            DynamicMesh(raw)

    def test_bootstrap_adjacency_matches_connection_lists(
        self, wavy_pm, wavy_connections
    ):
        lod = wavy_pm.max_lod() * 0.1
        mesh = DynamicMesh(wavy_pm, start_lod=lod)
        expected = set()
        for a in mesh.active:
            for b in wavy_connections[a]:
                if b in mesh.active:
                    expected.add((a, b) if a < b else (b, a))
        assert mesh.edges() == expected


class TestSplitCollapse:
    def test_split_replaces_node(self, wavy_pm, coarse):
        root = next(iter(coarse.active))
        node = wavy_pm.node(root)
        coarse.split(root)
        assert root not in coarse.active
        assert node.child1 in coarse.active
        assert node.child2 in coarse.active
        assert node.child2 in coarse.neighbors(node.child1)
        coarse.validate()

    def test_split_leaf_rejected(self, wavy_pm):
        mesh = DynamicMesh(wavy_pm, start_lod=0.0)
        leaf = next(i for i in mesh.active if wavy_pm.node(i).is_leaf)
        with pytest.raises(MeshError):
            mesh.split(leaf)

    def test_split_inactive_rejected(self, coarse):
        with pytest.raises(MeshError):
            coarse.split(0)

    def test_collapse_is_inverse_of_split(self, wavy_pm):
        lod = wavy_pm.max_lod() * 0.15
        mesh = DynamicMesh(wavy_pm, start_lod=lod)
        target = next(
            i for i in mesh.active if not wavy_pm.node(i).is_leaf
        )
        before_edges = mesh.edges()
        before_active = set(mesh.active)
        mesh.split(target)
        mesh.validate()
        mesh.collapse(target)
        mesh.validate()
        assert mesh.active == before_active
        assert mesh.edges() == before_edges

    def test_collapse_needs_both_children(self, wavy_pm, coarse):
        root = next(iter(coarse.active))
        with pytest.raises(MeshError):
            coarse.collapse(root)  # Children not active yet.


class TestRefineTo:
    def test_uniform_refinement_reaches_cut(self, wavy_pm, coarse):
        lod = wavy_pm.max_lod() * 0.08
        splits, collapses = coarse.refine_to(lod)
        assert splits > 0
        assert coarse.active == set(wavy_pm.uniform_cut(lod))
        coarse.validate()

    def test_coarsening_collapses(self, wavy_pm):
        fine = DynamicMesh(wavy_pm, start_lod=0.0)
        lod = wavy_pm.max_lod() * 0.5
        splits, collapses = fine.refine_to(lod)
        assert collapses > 0
        assert fine.active == set(wavy_pm.uniform_cut(lod))
        fine.validate()

    def test_adjacency_matches_connection_lists_after_refine(
        self, wavy_pm, wavy_connections, coarse
    ):
        # The key cross-check: wing-driven incremental splits produce
        # exactly the adjacency the DM connection lists encode.
        lod = wavy_pm.max_lod() * 0.05
        coarse.refine_to(lod)
        expected = set()
        for a in coarse.active:
            for b in wavy_connections[a]:
                if b in coarse.active:
                    expected.add((a, b) if a < b else (b, a))
        assert coarse.edges() == expected

    def test_triangles_match_dm_reconstruction(
        self, wavy_pm, wavy_connections, coarse
    ):
        from repro.core.reconstruct import mesh_triangles, pack_records

        lod = wavy_pm.max_lod() * 0.1
        coarse.refine_to(lod)

        class _View:
            __slots__ = ("x", "y", "connections")

            def __init__(self, node, conn):
                self.x = node.x
                self.y = node.y
                self.connections = conn

        view = {
            i: _View(wavy_pm.node(i), wavy_connections[i])
            for i in coarse.active
        }
        rebuilt = mesh_triangles(pack_records(view)).tolist()
        assert coarse.triangles() == [tuple(tri) for tri in rebuilt]

    def test_refine_to_plane(self, wavy_pm, coarse):
        bounds = Rect(0, 0, 115, 115)
        plane = QueryPlane(
            bounds,
            wavy_pm.lod_percentile(0.4),
            wavy_pm.max_lod() * 0.9,
        )
        coarse.refine_to(plane)
        coarse.validate()
        # Every active node satisfies the refinement criterion: not
        # too coarse at its own position...
        for node_id in coarse.active:
            node = wavy_pm.node(node_id)
            if not node.is_leaf:
                assert node.e <= plane.required_lod(node.x, node.y)
        # ...and no collapsible sibling pair remains.
        for node_id in coarse.active:
            parent_id = wavy_pm.node(node_id).parent
            if parent_id == -1:
                continue
            parent = wavy_pm.node(parent_id)
            both = (
                parent.child1 in coarse.active
                and parent.child2 in coarse.active
            )
            if both:
                assert parent.e > plane.required_lod(parent.x, parent.y)

    def test_round_trip_refine(self, wavy_pm, coarse):
        # Fine -> coarse -> fine lands on the same cut each time.
        fine_lod = wavy_pm.max_lod() * 0.03
        coarse_lod = wavy_pm.max_lod() * 0.4
        coarse.refine_to(fine_lod)
        first = set(coarse.active)
        coarse.refine_to(coarse_lod)
        coarse.refine_to(fine_lod)
        assert coarse.active == first


class TestWingMode:
    """The database-faithful split mode: wings + geometry only."""

    def test_interior_two_wing_splits_exact(self, wavy_pm):
        # Splits whose both wings are active divide the fan exactly.
        mesh = DynamicMesh(wavy_pm)
        ref = DynamicMesh(wavy_pm)
        lod = wavy_pm.max_lod() * 0.1
        mesh.refine_to(lod, mode="wings")
        ref.refine_to(lod, mode="leaves")
        mesh.validate()
        # Same cut either way (forced splits only trigger when wings
        # are coarser than the cut, which the descending order avoids
        # for uniform targets).
        assert mesh.active == ref.active

    def test_high_agreement_with_exact_mode(self, wavy_pm):
        for fraction in (0.05, 0.0):
            lod = wavy_pm.max_lod() * fraction
            exact = DynamicMesh(wavy_pm)
            exact.refine_to(lod, mode="leaves")
            wings = DynamicMesh(wavy_pm)
            wings.refine_to(lod, mode="wings")
            wings.validate()
            ea = exact.edges()
            ew = wings.edges()
            agreement = len(ea & ew) / max(1, len(ea | ew))
            # Wings-only reconstruction is underdetermined at boundary
            # splits (the paper's record stores no face anchors), so
            # full-resolution agreement is high but not perfect.
            assert agreement >= 0.85, f"agreement {agreement} at {fraction}"

    def test_wing_meshes_are_valid(self, wavy_pm):
        mesh = DynamicMesh(wavy_pm)
        mesh.refine_to(wavy_pm.max_lod() * 0.02, mode="wings")
        mesh.validate()
        v = len(mesh.active)
        e = len(mesh.edges())
        if v >= 3:
            assert e <= 3 * v - 6
            assert e >= v - 1

    def test_unknown_mode_rejected(self, wavy_pm):
        mesh = DynamicMesh(wavy_pm)
        root = next(iter(mesh.active))
        with pytest.raises(MeshError):
            mesh.split(root, mode="telepathy")

    def test_forced_split_helper_terminates(self, wavy_pm):
        mesh = DynamicMesh(wavy_pm)
        # Force a deep leaf active from the coarsest state.
        mesh._force_active(0, guard=0)
        assert 0 in mesh.active
        mesh.validate()
