"""Property-based tests over the query processors themselves.

Hypothesis drives randomized ROIs, LODs, planes, and radial fields
against the session store, checking the processor outputs against the
in-memory reference and against each other — the highest-level
invariants in the system.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cost_model import MultiBasePlan
from repro.geometry.plane import QueryPlane, RadialLodField
from repro.geometry.primitives import Rect
from repro.mesh.progressive import NULL_ID
from repro.mesh.selective import uniform_query_ref, viewdep_query_ref

common = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

fractions = st.floats(0.0, 1.0, allow_nan=False)
positions = st.floats(0.05, 0.95, allow_nan=False)
sizes = st.floats(0.1, 0.6, allow_nan=False)


def make_roi(ds, cx_f, cy_f, size_f):
    bounds = ds.bounds()
    cx = bounds.min_x + bounds.width * cx_f
    cy = bounds.min_y + bounds.height * cy_f
    half_w = bounds.width * size_f / 2
    half_h = bounds.height * size_f / 2
    return Rect(
        max(bounds.min_x, cx - half_w),
        max(bounds.min_y, cy - half_h),
        min(bounds.max_x, cx + half_w),
        min(bounds.max_y, cy + half_h),
    )


class TestUniformProperties:
    @common
    @given(positions, positions, sizes, fractions)
    def test_matches_reference(
        self, session_db, hills_dataset, cx, cy, size, lod_f
    ):
        ds = hills_dataset
        roi = make_roi(ds, cx, cy, size)
        lod = ds.pm.max_lod() * lod_f
        result = session_db["dm"].uniform_query(roi, lod)
        assert set(result.nodes) == uniform_query_ref(ds.pm, roi, lod)

    @common
    @given(positions, positions, sizes, fractions)
    def test_monotone_in_roi(
        self, session_db, hills_dataset, cx, cy, size, lod_f
    ):
        # A larger ROI (superset) returns a superset of nodes.
        ds = hills_dataset
        small = make_roi(ds, cx, cy, size * 0.5)
        large = make_roi(ds, cx, cy, size)
        lod = ds.pm.max_lod() * lod_f
        store = session_db["dm"]
        small_ids = set(store.uniform_query(small, lod).nodes)
        large_ids = set(store.uniform_query(large, lod).nodes)
        if large.contains_rect(small):
            assert small_ids <= large_ids

    @common
    @given(positions, positions, fractions)
    def test_result_is_antichain(
        self, session_db, hills_dataset, cx, cy, lod_f
    ):
        # No node in a uniform result is an ancestor of another.
        ds = hills_dataset
        roi = make_roi(ds, cx, cy, 0.4)
        lod = ds.pm.max_lod() * lod_f
        ids = set(session_db["dm"].uniform_query(roi, lod).nodes)
        for node_id in ids:
            for ancestor in ds.pm.ancestors(node_id):
                assert ancestor.id not in ids


class TestViewdepProperties:
    @common
    @given(positions, positions, fractions, fractions)
    def test_plane_matches_reference(
        self, session_db, hills_dataset, cx, cy, lo_f, hi_f
    ):
        ds = hills_dataset
        roi = make_roi(ds, cx, cy, 0.4)
        lo, hi = sorted(
            (ds.pm.max_lod() * lo_f, ds.pm.max_lod() * hi_f)
        )
        plane = QueryPlane(roi, lo, hi)
        sb = session_db["dm"].single_base_query(plane)
        assert set(sb.nodes) == viewdep_query_ref(ds.pm, plane)

    @common
    @given(
        positions, positions, fractions, fractions,
        st.sampled_from([(0.0, 1.0), (1.0, 0.0), (0.6, 0.8)]),
    )
    def test_forced_strip_plans_match_reference(
        self, session_db, hills_dataset, cx, cy, lo_f, hi_f, direction
    ):
        """However many strips the plan is forced to, the merged answer
        is the reference's, and ``retrieved`` is the sum over strips
        (a strip-boundary node is fetched, and counted, twice)."""
        ds = hills_dataset
        roi = make_roi(ds, cx, cy, 0.4)
        lo, hi = sorted(
            (ds.pm.max_lod() * lo_f, ds.pm.max_lod() * hi_f)
        )
        plane = QueryPlane(roi, lo, hi, direction)
        store = session_db["dm"]
        reference = viewdep_query_ref(ds.pm, plane)
        for parts in (1, 2, 4):
            strips = plane.split_across_direction(parts)
            mb = store.multi_base_query(
                plane, plan=MultiBasePlan(strips, 0.0, 0.0)
            )
            assert set(mb.nodes) == reference
            assert mb.n_range_queries == parts
            assert mb.retrieved == sum(
                store.single_base_query(strip).retrieved for strip in strips
            )

    @common
    @given(positions, positions, st.floats(0.2, 5.0), fractions)
    def test_radial_sb_equals_mb(
        self, session_db, hills_dataset, cx, cy, rate_scale, emin_f
    ):
        ds = hills_dataset
        roi = make_roi(ds, cx, cy, 0.4)
        field = RadialLodField(
            roi,
            viewer=(roi.center.x, roi.min_y),
            rate=ds.pm.max_lod() * rate_scale / max(roi.height, 1.0),
            e_min=ds.pm.max_lod() * emin_f * 0.5,
            e_max=ds.pm.max_lod(),
        )
        store = session_db["dm"]
        sb = store.single_base_query(field)
        mb = store.multi_base_query(field)
        assert set(sb.nodes) == set(mb.nodes)


class TestECapRegression:
    """Probes above the index cap must return the base mesh.

    Root records keep the paper's ``[e, inf)`` interval but their
    indexed segments stop at ``e_cap``; before the clamp fix, any
    ``lod > e_cap`` probed above every indexed segment and returned an
    empty mesh.  The in-memory traversal is the ground truth at every
    height.
    """

    def _check(self, session_db, hills_dataset, lod):
        ds = hills_dataset
        roi = ds.bounds()
        result = session_db["dm"].uniform_query(roi, lod)
        reference = uniform_query_ref(ds.pm, roi, lod)
        assert set(result.nodes) == reference
        assert len(result.nodes) > 0

    def test_at_max_lod(self, session_db, hills_dataset):
        self._check(
            session_db, hills_dataset, hills_dataset.pm.max_lod()
        )

    def test_at_e_cap(self, session_db, hills_dataset):
        self._check(session_db, hills_dataset, session_db["dm"].e_cap)

    def test_above_e_cap(self, session_db, hills_dataset):
        dm = session_db["dm"]
        self._check(session_db, hills_dataset, dm.e_cap * 3 + 17.0)

    def test_above_cap_is_exactly_the_base_mesh(
        self, session_db, hills_dataset
    ):
        dm = session_db["dm"]
        roi = hills_dataset.bounds()
        above = dm.uniform_query(roi, dm.e_cap + 1.0)
        base = {
            node.id
            for node in hills_dataset.pm.nodes
            if node.parent == NULL_ID
            and roi.contains_point(node.x, node.y)
        }
        assert set(above.nodes) == base

    def test_viewdep_cube_above_cap(self, session_db, hills_dataset):
        dm = session_db["dm"]
        roi = hills_dataset.bounds()
        plane = QueryPlane(roi, dm.e_cap + 1.0, dm.e_cap + 10.0)
        result = dm.single_base_query(plane)
        assert set(result.nodes) == viewdep_query_ref(
            hills_dataset.pm, plane
        )
        assert len(result.nodes) > 0
