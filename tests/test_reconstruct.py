"""Tests for mesh reconstruction and Algorithm 1's refinement."""

from repro.core.reconstruct import (
    mesh_edges,
    mesh_triangles,
    refine_to_plane,
    resolve_overlaps,
)
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.storage.record import DMNodeRecord


def rec(node_id, x, y, e_low, e_high, conn, parent=-1, children=(-1, -1)):
    return DMNodeRecord(
        node_id,
        x,
        y,
        0.0,
        e_low,
        e_high,
        parent,
        children[0],
        children[1],
        -1,
        -1,
        list(conn),
    )


class TestEdgesTriangles:
    def test_square_with_diagonal(self):
        nodes = {
            0: rec(0, 0, 0, 0, 1, [1, 2, 3]),
            1: rec(1, 1, 0, 0, 1, [0, 2]),
            2: rec(2, 1, 1, 0, 1, [0, 1, 3]),
            3: rec(3, 0, 1, 0, 1, [0, 2]),
        }
        edges = mesh_edges(nodes)
        assert edges == {(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)}
        tris = mesh_triangles(nodes, edges)
        assert sorted(tris) == [(0, 1, 2), (0, 2, 3)]

    def test_edges_need_mutual_presence(self):
        nodes = {
            0: rec(0, 0, 0, 0, 1, [1, 99]),  # 99 absent.
            1: rec(1, 1, 0, 0, 1, [0]),
        }
        assert mesh_edges(nodes) == {(0, 1)}

    def test_empty(self):
        assert mesh_edges({}) == set()
        assert mesh_triangles({}) == []

    def test_lone_edge_no_triangles(self):
        nodes = {
            0: rec(0, 0, 0, 0, 1, [1]),
            1: rec(1, 1, 0, 0, 1, [0]),
        }
        assert mesh_triangles(nodes) == []

    def test_hexagon_fan(self):
        import math

        center = rec(0, 0, 0, 0, 1, [1, 2, 3, 4, 5, 6])
        nodes = {0: center}
        for k in range(6):
            angle = k * math.pi / 3
            ring_conn = [0, 1 + (k + 1) % 6, 1 + (k - 1) % 6]
            nodes[k + 1] = rec(
                k + 1, math.cos(angle), math.sin(angle), 0, 1, ring_conn
            )
        tris = mesh_triangles(nodes)
        assert len(tris) == 6
        assert all(0 in tri for tri in tris)


class TestRefinement:
    def make_family(self):
        """Parent 2 (interval [1, 10)) with children 0, 1 ([0, 1))."""
        return {
            0: rec(0, 0.0, 0.0, 0.0, 1.0, [1], parent=2),
            1: rec(1, 1.0, 0.0, 0.0, 1.0, [0], parent=2),
            2: rec(2, 0.5, 0.0, 1.0, 10.0, [], children=(0, 1)),
        }

    def test_coarse_plane_keeps_parent(self):
        records = self.make_family()
        plane = QueryPlane(Rect(-1, -1, 2, 1), 5.0, 5.0)
        result = refine_to_plane(records, plane)
        assert result.active == {2}
        assert result.splits == 0

    def test_fine_plane_splits_to_children(self):
        records = self.make_family()
        plane = QueryPlane(Rect(-1, -1, 2, 1), 0.5, 0.5)
        result = refine_to_plane(records, plane, start_lod=5.0)
        assert result.active == {0, 1}
        assert result.splits == 1
        assert result.missing_children == []

    def test_missing_child_recorded(self):
        records = self.make_family()
        del records[1]  # Child clipped by the ROI.
        plane = QueryPlane(Rect(-1, -1, 2, 1), 0.5, 0.5)
        result = refine_to_plane(records, plane, start_lod=5.0)
        assert result.active == {0}
        assert result.missing_children == [1]

    def test_refinement_matches_filter_on_uniform_plane(
        self, session_db, hills_dataset
    ):
        # Algorithm 1 executed step-by-step must agree with the
        # set-filter semantics when the plane is flat.
        store = session_db["dm"]
        ds = hills_dataset
        roi = ds.bounds().scaled(0.4)
        lod = ds.pm.average_lod()
        flat = QueryPlane(roi, lod, lod)
        cube_result = store.single_base_query(flat)
        # Re-fetch everything the cube would grab, then refine (lod is
        # below e_cap by construction).
        from repro.core.query import range_columns
        from repro.geometry.primitives import Box3

        columns = range_columns(store, Box3.from_rect(roi, lod, lod))
        records = {r.id: r for r in columns.records()}
        refined = refine_to_plane(records, flat)
        assert refined.active == set(cube_result.nodes)


class TestResolveOverlaps:
    def test_keeps_ancestor(self):
        records = {
            0: rec(0, 0, 0, 0.0, 1.0, [], parent=2),
            2: rec(2, 0.5, 0, 1.0, 10.0, [], children=(0, 1)),
        }
        kept = resolve_overlaps(records)
        assert set(kept) == {2}

    def test_no_overlap_untouched(self):
        records = {
            0: rec(0, 0, 0, 0.0, 1.0, [1], parent=5),
            1: rec(1, 1, 0, 0.0, 1.0, [0], parent=6),
        }
        assert set(resolve_overlaps(records)) == {0, 1}

    def test_deep_chain(self):
        records = {
            0: rec(0, 0, 0, 0.0, 1.0, [], parent=1),
            1: rec(1, 0, 0, 1.0, 2.0, [], parent=2, children=(0, -1)),
            2: rec(2, 0, 0, 2.0, 3.0, [], children=(1, -1)),
        }
        kept = resolve_overlaps(records)
        assert set(kept) == {2}
