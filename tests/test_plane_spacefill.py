"""Tests for query planes and space-filling-curve keys."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError, QueryError
from repro.geometry.plane import QueryPlane, max_angle
from repro.geometry.primitives import Rect
from repro.geometry.spacefill import hilbert_key, normalized_quantizer

ROI = Rect(0, 0, 100, 100)


class TestQueryPlane:
    def test_validation(self):
        with pytest.raises(QueryError):
            QueryPlane(ROI, -1.0, 2.0)
        with pytest.raises(QueryError):
            QueryPlane(ROI, 3.0, 2.0)
        with pytest.raises(QueryError):
            QueryPlane(ROI, 0.0, 1.0, direction=(0, 0))

    def test_required_lod_gradient(self):
        plane = QueryPlane(ROI, 1.0, 5.0, direction=(0, 1))
        assert plane.required_lod(50, 0) == pytest.approx(1.0)
        assert plane.required_lod(50, 100) == pytest.approx(5.0)
        assert plane.required_lod(50, 50) == pytest.approx(3.0)
        # x position is irrelevant for a +y direction.
        assert plane.required_lod(0, 50) == plane.required_lod(99, 50)

    def test_required_lod_clamped_outside(self):
        plane = QueryPlane(ROI, 1.0, 5.0)
        assert plane.required_lod(50, -40) == 1.0
        assert plane.required_lod(50, 140) == 5.0

    def test_flat_plane(self):
        plane = QueryPlane(ROI, 2.0, 2.0)
        assert plane.required_lod(10, 90) == 2.0
        assert plane.angle == 0.0

    def test_from_angle_roundtrip(self):
        angle = math.radians(30)
        plane = QueryPlane.from_angle(ROI, 1.0, angle)
        assert plane.angle == pytest.approx(angle)
        assert plane.e_max == pytest.approx(1.0 + math.tan(angle) * 100)

    def test_from_angle_invalid(self):
        with pytest.raises(QueryError):
            QueryPlane.from_angle(ROI, 0.0, math.pi / 2)

    def test_diagonal_direction(self):
        plane = QueryPlane(ROI, 0.0, 10.0, direction=(1, 1))
        near = plane.required_lod(0, 0)
        far = plane.required_lod(100, 100)
        assert near == pytest.approx(0.0)
        assert far == pytest.approx(10.0)

    def test_lod_range_over(self):
        plane = QueryPlane(ROI, 1.0, 5.0)
        lo, hi = plane.lod_range_over(Rect(0, 25, 100, 75))
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(4.0)

    def test_split_covers_roi(self):
        plane = QueryPlane(ROI, 1.0, 5.0)
        strips = plane.split_across_direction(4)
        assert len(strips) == 4
        assert strips[0].roi.min_y == 0
        assert strips[-1].roi.max_y == 100
        total_area = sum(s.roi.area for s in strips)
        assert total_area == pytest.approx(ROI.area)
        # Strip LOD ranges chain along the gradient.
        for a, b in zip(strips, strips[1:]):
            assert a.e_max == pytest.approx(b.e_min)

    def test_split_across_x_direction(self):
        plane = QueryPlane(ROI, 1.0, 5.0, direction=(1, 0))
        strips = plane.split_across_direction(2)
        assert strips[0].roi.max_x == pytest.approx(50)

    def test_split_one_returns_self(self):
        plane = QueryPlane(ROI, 1.0, 5.0)
        assert plane.split_across_direction(1) == [plane]
        with pytest.raises(QueryError):
            plane.split_across_direction(0)

    @given(st.floats(0, 99, allow_nan=False), st.floats(0, 99, allow_nan=False))
    def test_required_always_within_bounds(self, x, y):
        plane = QueryPlane(ROI, 1.0, 5.0, direction=(0.3, 0.7))
        assert 1.0 <= plane.required_lod(x, y) <= 5.0


class TestMaxAngle:
    def test_formula(self):
        assert max_angle(10.0, 10.0) == pytest.approx(math.pi / 4)

    def test_invalid_extent(self):
        with pytest.raises(QueryError):
            max_angle(10.0, 0.0)


class TestSpaceFill:
    def test_hilbert_bijective_order4(self):
        bits = 4
        size = 1 << bits
        keys = {
            hilbert_key(x, y, bits) for x in range(size) for y in range(size)
        }
        assert keys == set(range(size * size))

    def test_hilbert_consecutive_keys_are_adjacent_cells(self):
        # The defining Hilbert property: walking the curve in key order
        # moves exactly one cell at a time.
        bits = 4
        size = 1 << bits

        def curve_steps(fn):
            by_key = {}
            for x in range(size):
                for y in range(size):
                    by_key[fn(x, y, bits)] = (x, y)
            steps = []
            for k in range(size * size - 1):
                (x0, y0), (x1, y1) = by_key[k], by_key[k + 1]
                steps.append(abs(x1 - x0) + abs(y1 - y0))
            return steps

        assert all(step == 1 for step in curve_steps(hilbert_key))

    def test_bounds_checked(self):
        with pytest.raises(GeometryError):
            hilbert_key(-1, 0)
        with pytest.raises(GeometryError):
            hilbert_key(0, 1 << 16, bits=16)
        with pytest.raises(GeometryError):
            hilbert_key(0, 0, bits=0)

    def test_quantizer_clamps(self):
        q = normalized_quantizer(Rect(0, 0, 10, 10), bits=8)
        assert q(0, 0) == (0, 0)
        assert q(10, 10) == (255, 255)
        assert q(-5, 20) == (0, 255)

    def test_quantizer_degenerate_rect(self):
        q = normalized_quantizer(Rect(5, 5, 5, 5), bits=8)
        assert q(5, 5) == (0, 0)


class TestRadialLodField:
    from repro.geometry.plane import RadialLodField  # noqa: PLC0415

    def make(self, **overrides):
        from repro.geometry.plane import RadialLodField

        defaults = dict(
            roi=Rect(0, 0, 100, 100),
            viewer=(50.0, -10.0),
            rate=0.1,
            e_min=0.5,
            e_max=20.0,
        )
        defaults.update(overrides)
        return RadialLodField(**defaults)

    def test_validation(self):
        with pytest.raises(QueryError):
            self.make(rate=0.0)
        with pytest.raises(QueryError):
            self.make(e_min=-1.0)
        with pytest.raises(QueryError):
            self.make(e_min=5.0, e_max=1.0)

    def test_required_grows_with_distance(self):
        field = self.make()
        near = field.required_lod(50, 0)
        far = field.required_lod(50, 100)
        assert near < far
        assert far == pytest.approx(0.1 * 110)

    def test_clamping(self):
        field = self.make()
        assert field.required_lod(50, -9.9) == 0.5  # Floor.
        assert self.make(rate=5.0).required_lod(50, 100) == 20.0  # Cap.

    def test_lod_range_over_brackets_samples(self):
        import random

        field = self.make()
        region = Rect(20, 30, 70, 90)
        lo, hi = field.lod_range_over(region)
        rng = random.Random(0)
        for _ in range(200):
            x = rng.uniform(region.min_x, region.max_x)
            y = rng.uniform(region.min_y, region.max_y)
            req = field.required_lod(x, y)
            assert lo - 1e-9 <= req <= hi + 1e-9

    def test_viewer_inside_region(self):
        field = self.make(viewer=(50.0, 50.0))
        lo, _ = field.lod_range_over(Rect(0, 0, 100, 100))
        assert lo == 0.5  # Distance zero -> floor.

    def test_split_strips_cover_roi(self):
        field = self.make()
        strips = field.split_across_direction(4)
        assert len(strips) == 4
        assert sum(s.roi.area for s in strips) == pytest.approx(
            field.roi.area
        )
        # Strips farther from the viewer allow coarser LOD.
        assert strips[0].e_max <= strips[-1].e_max

    def test_split_one(self):
        field = self.make()
        assert field.split_across_direction(1) == [field]
        with pytest.raises(QueryError):
            field.split_across_direction(0)

    def test_split_along_x_when_viewer_east(self):
        field = self.make(viewer=(250.0, 50.0))
        strips = field.split_across_direction(2)
        assert strips[0].roi.max_x == pytest.approx(50.0)
