"""Unit and property tests for Rect / Box3 / points."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.primitives import (
    Box3,
    Point2,
    Point3,
    Rect,
    union_all_boxes,
    union_all_rects,
)

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def rects():
    return st.tuples(coords, coords, coords, coords).map(
        lambda t: Rect(
            min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3])
        )
    )


def boxes():
    return st.tuples(coords, coords, coords, coords, coords, coords).map(
        lambda t: Box3(
            min(t[0], t[3]),
            min(t[1], t[4]),
            min(t[2], t[5]),
            max(t[0], t[3]),
            max(t[1], t[4]),
            max(t[2], t[5]),
        )
    )


class TestPoints:
    def test_iteration_and_tuple(self):
        assert tuple(Point3(1, 2, 3)) == (1.0, 2.0, 3.0)
        assert Point2(4, 5).as_tuple() == (4.0, 5.0)


class TestRect:
    def test_inverted_raises(self):
        with pytest.raises(GeometryError):
            Rect(1, 0, 0, 1)
        with pytest.raises(GeometryError):
            Rect(0, 1, 1, 0)

    def test_contains_boundary(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(0, 0)
        assert r.contains_point(10, 10)
        assert not r.contains_point(10.0001, 5)

    def test_intersection_disjoint(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    def test_intersection_touching(self):
        overlap = Rect(0, 0, 1, 1).intersection(Rect(1, 0, 2, 1))
        assert overlap is not None
        assert overlap.area == 0.0

    def test_from_points(self):
        r = Rect.from_points([Point2(3, 1), Point2(-1, 7), Point2(0, 0)])
        assert r.as_tuple() == (-1, 0, 3, 7)

    def test_from_points_empty(self):
        with pytest.raises(GeometryError):
            Rect.from_points([])

    def test_scaled(self):
        r = Rect(0, 0, 10, 10).scaled(0.5)
        assert r.as_tuple() == (2.5, 2.5, 7.5, 7.5)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a)
        assert u.contains_rect(b)

    @given(rects(), rects())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), rects())
    def test_intersection_consistent_with_intersects(self, a, b):
        inter = a.intersection(b)
        assert (inter is not None) == a.intersects(b)
        if inter is not None:
            assert a.contains_rect(inter)
            assert b.contains_rect(inter)


class TestBox3:
    def test_inverted_raises(self):
        with pytest.raises(GeometryError):
            Box3(0, 0, 1, 1, 1, 0)

    def test_vertical_segment_is_degenerate(self):
        seg = Box3.vertical_segment(2, 3, 0.5, 4.5)
        assert seg.width == seg.height == 0.0
        assert seg.depth == 4.0
        assert seg.rect.as_tuple() == (2, 3, 2, 3)

    def test_from_rect(self):
        b = Box3.from_rect(Rect(0, 0, 2, 3), 1, 5)
        assert b.as_tuple() == (0, 0, 1, 2, 3, 5)

    def test_plane_query_intersects_segment(self):
        # A query plane at the LOD where a segment exists must hit it.
        seg = Box3.vertical_segment(5, 5, 1.0, 3.0)
        plane = Box3.from_rect(Rect(0, 0, 10, 10), 2.0, 2.0)
        assert plane.intersects(seg)
        above = Box3.from_rect(Rect(0, 0, 10, 10), 3.5, 3.5)
        assert not above.intersects(seg)

    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_box(a)
        assert u.contains_box(b)

    @given(boxes())
    def test_center_inside(self, b):
        assert b.contains_point(*b.center)

    def test_union_all(self):
        bs = [Box3(0, 0, 0, 1, 1, 1), Box3(5, -2, 0, 6, 0, 9)]
        assert union_all_boxes(bs).as_tuple() == (0, -2, 0, 6, 1, 9)
        with pytest.raises(GeometryError):
            union_all_boxes([])

    def test_union_all_rects(self):
        rs = [Rect(0, 0, 1, 1), Rect(-5, 2, 0, 3)]
        assert union_all_rects(rs).as_tuple() == (-5, 0, 1, 3)
        with pytest.raises(GeometryError):
            union_all_rects([])
