"""Tests for the filtered-exact planar predicates."""

from hypothesis import example, given, strategies as st

from repro.geometry.predicates import (
    incircle,
    orient2d,
    point_in_triangle,
)

small = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


class TestOrient2D:
    def test_ccw(self):
        assert orient2d(0, 0, 1, 0, 0, 1) == 1

    def test_cw(self):
        assert orient2d(0, 0, 0, 1, 1, 0) == -1

    def test_exactly_collinear(self):
        assert orient2d(0, 0, 1, 1, 2, 2) == 0

    def test_nearly_collinear_exact_fallback(self):
        # These points are exactly collinear in binary floating point;
        # naive evaluation is at the mercy of rounding, the filtered
        # predicate must return 0.
        a = (0.5, 0.5)
        b = (12.0, 12.0)
        c = (24.0, 24.0)
        assert orient2d(*a, *b, *c) == 0

    def test_tiny_perturbation_detected(self):
        base = orient2d(0, 0, 1e-20, 1e-20, 2e-20, 2.0000001e-20)
        assert base != 0  # Slightly bent upward at c.

    @given(small, small, small, small, small, small)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        assert orient2d(ax, ay, bx, by, cx, cy) == -orient2d(
            bx, by, ax, ay, cx, cy
        )

    @given(small, small, small, small, small, small)
    # Subnormal products: the float filter once called this collinear.
    @example(1.142627887060032e-157, 1.142627887060032e-157, 0.0, 0.0, 0.0,
             3.347636855582585e-194)
    def test_rotation_invariance(self, ax, ay, bx, by, cx, cy):
        assert orient2d(ax, ay, bx, by, cx, cy) == orient2d(
            bx, by, cx, cy, ax, ay
        )


class TestInCircle:
    def test_inside(self):
        # Unit circle through (1,0), (0,1), (-1,0); origin is inside.
        assert incircle(1, 0, 0, 1, -1, 0, 0, 0) == 1

    def test_outside(self):
        assert incircle(1, 0, 0, 1, -1, 0, 5, 5) == -1

    def test_cocircular_exact(self):
        # Four points of the unit circle: exactly on the boundary.
        assert incircle(1, 0, 0, 1, -1, 0, 0, -1) == 0

    def test_grid_cocircular(self):
        # The four corners of a unit square are cocircular.
        assert incircle(0, 0, 1, 0, 1, 1, 0, 1) == 0

    @given(small, small, small, small, small, small, small, small)
    def test_symmetry_under_rotation(self, ax, ay, bx, by, cx, cy, dx, dy):
        assert incircle(ax, ay, bx, by, cx, cy, dx, dy) == incircle(
            bx, by, cx, cy, ax, ay, dx, dy
        )


class TestHelpers:
    def test_point_in_triangle_interior(self):
        assert point_in_triangle(0.25, 0.25, 0, 0, 1, 0, 0, 1)

    def test_point_in_triangle_boundary(self):
        assert point_in_triangle(0.5, 0, 0, 0, 1, 0, 0, 1)
        assert point_in_triangle(0, 0, 0, 0, 1, 0, 0, 1)

    def test_point_in_triangle_outside(self):
        assert not point_in_triangle(1, 1, 0, 0, 1, 0, 0, 1)

    def test_point_in_triangle_either_winding(self):
        assert point_in_triangle(0.25, 0.25, 0, 0, 0, 1, 1, 0)
