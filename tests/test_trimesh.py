"""Tests for the static triangle mesh."""

import pytest

from repro.errors import MeshError
from repro.mesh.trimesh import TriMesh


@pytest.fixture
def quad_mesh():
    # Two triangles over a unit square.
    return TriMesh(
        [(0, 0, 0), (1, 0, 1), (1, 1, 2), (0, 1, 3)],
        [(0, 1, 2), (0, 2, 3)],
    )


class TestConstruction:
    def test_validates_indices(self):
        with pytest.raises(MeshError):
            TriMesh([(0, 0, 0)], [(0, 1, 2)])

    def test_rejects_degenerate_triangle(self):
        with pytest.raises(MeshError):
            TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 1)])

    def test_from_points_delaunay(self):
        pts = [(0, 0, 5), (10, 0, 6), (10, 10, 7), (0, 10, 8), (5, 5, 9)]
        mesh = TriMesh.from_points(pts)
        assert mesh.n_vertices == 5
        assert mesh.n_triangles == 4
        mesh.validate_topology()

    def test_from_points_duplicate_xy_first_wins(self):
        pts = [(0, 0, 5), (10, 0, 6), (0, 10, 7), (0, 0, 99)]
        mesh = TriMesh.from_points(pts)
        assert mesh.n_vertices == 3
        assert (0.0, 0.0, 5.0) in mesh.vertices


class TestAdjacency:
    def test_edges(self, quad_mesh):
        assert quad_mesh.edges() == {(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)}

    def test_edge_triangles(self, quad_mesh):
        et = quad_mesh.edge_triangles()
        assert et[(0, 2)] == [0, 1]  # Shared diagonal.
        assert et[(0, 1)] == [0]


class TestSampling:
    def test_elevation_range(self, quad_mesh):
        assert quad_mesh.elevation_range() == (0.0, 3.0)


class TestValidation:
    def test_topology_catches_cw_triangle(self):
        mesh = TriMesh(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 2, 1)], validate=False
        )
        with pytest.raises(MeshError):
            mesh.validate_topology()

    def test_topology_catches_nonmanifold_edge(self):
        mesh = TriMesh(
            [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, -1, 0), (0.5, 2, 0)],
            [(0, 1, 2), (0, 3, 1), (0, 1, 4)],
            validate=False,
        )
        with pytest.raises(MeshError):
            mesh.validate_topology()

    def test_empty_mesh_bounds(self):
        with pytest.raises(MeshError):
            TriMesh([], []).bounds()
