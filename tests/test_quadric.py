"""Tests for quadric error metrics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.mesh.quadric import Quadric, triangle_plane_quadric

unit = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


class TestQuadric:
    def test_plane_quadric_zero_on_plane(self):
        # Plane z = 0 -> (0, 0, 1, 0).
        q = Quadric.from_plane(0, 0, 1, 0)
        assert q.error(3, -7, 0) == 0.0
        assert q.error(0, 0, 2) == pytest.approx(4.0)

    def test_error_is_squared_distance(self):
        # Plane x + y = 0, normalised: (1/sqrt2, 1/sqrt2, 0, 0).
        s = 1 / math.sqrt(2)
        q = Quadric.from_plane(s, s, 0, 0)
        # Point (1, 1, 0) is sqrt(2) from the plane.
        assert q.error(1, 1, 0) == pytest.approx(2.0)

    def test_addition(self):
        q1 = Quadric.from_plane(0, 0, 1, 0)
        q2 = Quadric.from_plane(0, 0, 1, -2)  # Plane z = 2.
        total = q1 + q2
        assert total.error(0, 0, 1) == pytest.approx(1.0 + 1.0)

    def test_iadd_matches_add(self):
        q1 = Quadric.from_plane(0.6, 0.8, 0, 1)
        q2 = Quadric.from_plane(0, 0, 1, -5)
        total = q1 + q2
        q1 += q2
        assert q1.as_tuple() == total.as_tuple()

    def test_scaled(self):
        q = Quadric.from_plane(0, 0, 1, 0).scaled(3.0)
        assert q.error(0, 0, 1) == pytest.approx(3.0)

    def test_optimal_point_two_planes_is_degenerate(self):
        # Two planes intersect in a line: the system is singular.
        q = Quadric.from_plane(1, 0, 0, 0) + Quadric.from_plane(0, 1, 0, 0)
        assert q.optimal_point() is None

    def test_optimal_point_three_planes(self):
        q = (
            Quadric.from_plane(1, 0, 0, -1)  # x = 1
            + Quadric.from_plane(0, 1, 0, -2)  # y = 2
            + Quadric.from_plane(0, 0, 1, -3)  # z = 3
        )
        opt = q.optimal_point()
        assert opt is not None
        assert opt == pytest.approx((1.0, 2.0, 3.0))
        assert q.error(*opt) == pytest.approx(0.0, abs=1e-12)

    @given(unit, unit, unit)
    def test_error_never_negative(self, x, y, z):
        q = Quadric.from_plane(0.6, 0, 0.8, 1.5) + Quadric.from_plane(
            0, 1, 0, -0.5
        )
        assert q.error(x, y, z) >= 0.0

    @given(unit, unit, unit)
    def test_optimal_is_minimum(self, x, y, z):
        q = (
            Quadric.from_plane(1, 0, 0, -1)
            + Quadric.from_plane(0, 1, 0, 1)
            + Quadric.from_plane(0, 0, 1, 0)
            + Quadric.from_plane(0.6, 0.8, 0, 2)
        )
        opt = q.optimal_point()
        assert opt is not None
        assert q.error(*opt) <= q.error(x, y, z) + 1e-9


class TestTriangleQuadric:
    def test_degenerate_triangle(self):
        assert (
            triangle_plane_quadric((0, 0, 0), (1, 1, 1), (2, 2, 2)) is None
        )

    def test_vertices_on_plane_have_zero_error(self):
        p0, p1, p2 = (0, 0, 1), (4, 0, 1), (0, 4, 1)
        q = triangle_plane_quadric(p0, p1, p2)
        assert q is not None
        for p in (p0, p1, p2):
            assert q.error(*p) == pytest.approx(0.0, abs=1e-12)

    def test_area_weighting(self):
        small = triangle_plane_quadric((0, 0, 0), (1, 0, 0), (0, 1, 0))
        big = triangle_plane_quadric((0, 0, 0), (10, 0, 0), (0, 10, 0))
        assert big is not None and small is not None
        # Same plane; the larger triangle weighs 100x more.
        assert big.error(0, 0, 1) == pytest.approx(
            100 * small.error(0, 0, 1)
        )

    def test_unweighted_error_is_distance_squared(self):
        """The plane's fundamental quadric measures squared distance;
        the triangle quadric is that times the triangle's area."""
        assert Quadric.from_plane(0, 0, 1, 0).error(2, 2, 3) == pytest.approx(
            9.0
        )
        q = triangle_plane_quadric((0, 0, 0), (5, 0, 0), (0, 5, 0))
        assert q is not None
        assert q.error(2, 2, 3) == pytest.approx(12.5 * 9.0)
