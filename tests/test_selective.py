"""Tests for in-memory selective refinement (the reference semantics)."""

from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.mesh.selective import (
    uniform_query_ref,
    viewdep_query_ref,
)


class TestUniformRef:
    def test_equals_interval_filter(self, wavy_pm):
        roi = Rect(20, 20, 80, 80)
        for fraction in (0.0, 0.05, 0.2, 0.8):
            lod = wavy_pm.max_lod() * fraction
            traversal = uniform_query_ref(wavy_pm, roi, lod)
            direct = {
                n.id
                for n in wavy_pm.nodes
                if n.interval_contains(lod) and roi.contains_point(n.x, n.y)
            }
            assert traversal == direct

    def test_empty_roi_outside_terrain(self, wavy_pm):
        roi = Rect(10_000, 10_000, 10_010, 10_010)
        assert uniform_query_ref(wavy_pm, roi, 1.0) == set()

    def test_whole_terrain_is_cut(self, wavy_pm):
        bounds = Rect(-1e9, -1e9, 1e9, 1e9)
        lod = wavy_pm.max_lod() * 0.1
        assert uniform_query_ref(wavy_pm, bounds, lod) == set(
            wavy_pm.uniform_cut(lod)
        )


class TestViewdepRef:
    def test_flat_plane_equals_uniform(self, wavy_pm):
        roi = Rect(20, 20, 90, 90)
        lod = wavy_pm.max_lod() * 0.1
        plane = QueryPlane(roi, lod, lod)
        assert viewdep_query_ref(wavy_pm, plane) == uniform_query_ref(
            wavy_pm, roi, lod
        )

    def test_members_satisfy_pointwise_rule(self, wavy_pm):
        roi = Rect(10, 10, 100, 100)
        plane = QueryPlane(
            roi, wavy_pm.max_lod() * 0.01, wavy_pm.max_lod() * 0.6
        )
        result = viewdep_query_ref(wavy_pm, plane)
        assert result
        for node_id in result:
            node = wavy_pm.node(node_id)
            assert roi.contains_point(node.x, node.y)
            assert node.interval_contains(
                plane.required_lod(node.x, node.y)
            )

    def test_near_side_finer(self, wavy_pm):
        roi = Rect(0, 0, 115, 115)
        plane = QueryPlane(
            roi,
            wavy_pm.lod_percentile(0.3),
            wavy_pm.max_lod() * 0.9,
            direction=(0, 1),
        )
        result = viewdep_query_ref(wavy_pm, plane)
        near = [
            i for i in result if wavy_pm.node(i).y < roi.height * 0.25
        ]
        far = [
            i for i in result if wavy_pm.node(i).y > roi.height * 0.75
        ]
        if near and far:
            near_density = len(near)
            far_density = len(far)
            assert near_density >= far_density
