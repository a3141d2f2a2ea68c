"""Tests for the Bowyer-Watson Delaunay triangulator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TriangulationError
from repro.geometry.predicates import incircle, orient2d
from repro.geometry.triangulation import delaunay


def assert_delaunay(tri, sample_limit=300):
    """Empty-circumcircle property over (a sample of) all triangles."""
    pts = tri.points
    n = len(pts)
    rng = random.Random(0)
    tris = tri.triangles
    if len(tris) > sample_limit:
        tris = rng.sample(tris, sample_limit)
    for a, b, c in tris:
        others = range(n) if n <= 40 else rng.sample(range(n), 40)
        for d in others:
            if d in (a, b, c):
                continue
            assert (
                incircle(*pts[a], *pts[b], *pts[c], *pts[d]) <= 0
            ), f"point {d} inside circumcircle of ({a}, {b}, {c})"


def assert_all_ccw(tri):
    for a, b, c in tri.triangles:
        assert orient2d(*tri.points[a], *tri.points[b], *tri.points[c]) > 0


class TestBasics:
    def test_single_triangle(self):
        tri = delaunay([(0, 0), (1, 0), (0, 1)])
        assert len(tri.triangles) == 1
        assert_all_ccw(tri)

    def test_square_two_triangles(self):
        tri = delaunay([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(tri.triangles) == 2
        assert tri.edges() >= {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_too_few_points(self):
        with pytest.raises(TriangulationError):
            delaunay([(0, 0), (1, 1)])

    def test_all_collinear(self):
        with pytest.raises(TriangulationError):
            delaunay([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_duplicates_merged(self):
        tri = delaunay([(0, 0), (1, 0), (0, 1), (0, 0), (1, 0)])
        assert len(tri.points) == 3
        assert tri.index_map == [0, 1, 2, 0, 1]

    def test_duplicates_only_too_few(self):
        with pytest.raises(TriangulationError):
            delaunay([(0, 0), (0, 0), (1, 1), (1, 1)])


class TestRandom:
    def test_random_points_delaunay(self):
        rng = random.Random(42)
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(400)]
        tri = delaunay(pts)
        assert_all_ccw(tri)
        assert_delaunay(tri)

    def test_euler_relation(self):
        # For a triangulated convex region: T = 2n - 2 - h, E = 3n - 3 - h
        # with h hull vertices; check the implied identity
        # E = (3T + h) / 2 ... simpler: 2E = 3T + h.
        rng = random.Random(7)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(200)]
        tri = delaunay(pts)
        n = len(tri.points)
        t = len(tri.triangles)
        e = len(tri.edges())
        # Euler: n - e + (t + 1) = 2.
        assert n - e + t + 1 == 2

    def test_clustered_points(self):
        rng = random.Random(1)
        pts = []
        for cx, cy in [(0, 0), (50, 50), (0, 50)]:
            pts += [
                (cx + rng.gauss(0, 1), cy + rng.gauss(0, 1))
                for _ in range(60)
            ]
        tri = delaunay(pts)
        assert_all_ccw(tri)
        assert_delaunay(tri)


class TestDegenerate:
    def test_regular_grid(self):
        pts = [(float(i), float(j)) for i in range(12) for j in range(12)]
        tri = delaunay(pts)
        assert len(tri.triangles) == 2 * 11 * 11
        assert_all_ccw(tri)

    def test_grid_with_diagonal_line(self):
        pts = [(float(i), float(j)) for i in range(6) for j in range(6)]
        pts += [(i + 0.5, i + 0.5) for i in range(5)]
        tri = delaunay(pts)
        assert_all_ccw(tri)
        assert_delaunay(tri)

    def test_cocircular_ring(self):
        import math

        pts = [
            (math.cos(2 * math.pi * k / 12), math.sin(2 * math.pi * k / 12))
            for k in range(12)
        ]
        pts.append((0.0, 0.0))
        tri = delaunay(pts)
        assert_all_ccw(tri)
        # Fan around the centre: all 12 rim points triangulated.
        assert len(tri.triangles) == 12

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 12).map(float), st.integers(0, 12).map(float)
            ),
            min_size=3,
            max_size=40,
            unique=True,
        )
    )
    def test_integer_lattice_inputs(self, pts):
        # Heavily degenerate inputs: many collinear/cocircular subsets.
        xs = {p[0] for p in pts}
        ys = {p[1] for p in pts}
        distinct_dirs = len(xs) > 1 and len(ys) > 1
        try:
            tri = delaunay(pts)
        except TriangulationError:
            # Legal only when all points are collinear.
            collinear_x = len(xs) == 1
            collinear_y = len(ys) == 1
            diag = _all_collinear(pts)
            assert collinear_x or collinear_y or diag or not distinct_dirs
            return
        assert_all_ccw(tri)
        assert_delaunay(tri)

    def test_sliver_is_not_collinear(self):
        """Area 1/2 over a span of 11: the circumcircle dwarfs a
        16-span super-triangle, but the points are not on a line."""
        tri = delaunay([(1, 0), (5, 5), (10, 11)])
        assert len(tri.triangles) == 1
        assert_all_ccw(tri)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        st.tuples(st.integers(1, 40), st.integers(-40, 40)),
        st.integers(1, 400),
        st.integers(1, 400),
        st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    )
    def test_integer_lattice_slivers(self, origin, step, k1, k2, nudge):
        """Three lattice points, the third within one unit of the line
        through the other two, up to ~16 000 units apart: an error only
        when exactly collinear, else the one triangle."""
        (x, y), (dx, dy) = origin, step
        pts = [
            (float(x), float(y)),
            (float(x + k1 * dx), float(y + k1 * dy)),
            (float(x + k2 * dx + nudge[0]), float(y + k2 * dy + nudge[1])),
        ]
        if len(set(pts)) < 3 or _all_collinear(pts):
            with pytest.raises(TriangulationError):
                delaunay(pts)
            return
        tri = delaunay(pts)
        assert len(tri.triangles) == 1
        assert sorted(tri.triangles[0]) == [0, 1, 2]
        assert_all_ccw(tri)


def _all_collinear(pts):
    if len(pts) < 3:
        return True
    (ax, ay), (bx, by) = pts[0], pts[1]
    for cx, cy in pts[2:]:
        if orient2d(ax, ay, bx, by, cx, cy) != 0:
            return False
    return True
