"""Tests for the EXPLAIN facility."""

import pytest

from repro.core.engine import QueryEngine
from repro.core.explain import QueryExplanation, RangeStep, explain
from repro.core.query import plane_box, plane_cube
from repro.errors import QueryError
from repro.geometry.plane import QueryPlane, RadialLodField
from repro.geometry.primitives import Box3


class TestExplainUniform:
    def test_plan_only(self, session_db, hills_dataset):
        ds = hills_dataset
        roi = ds.bounds().scaled(0.3)
        explanation = explain(session_db["dm"], roi, lod=ds.pm.average_lod())
        assert explanation.kind == "viewpoint-independent query"
        assert len(explanation.steps) == 1
        assert explanation.steps[0].cube.depth == 0  # A plane.
        assert explanation.actual_da is None
        text = explanation.to_text()
        assert "step 1" in text
        assert "executed" not in text

    def test_execute_attaches_counters(self, session_db, hills_dataset):
        ds = hills_dataset
        roi = ds.bounds().scaled(0.3)
        explanation = explain(
            session_db["dm"], roi, lod=ds.pm.average_lod(), execute=True
        )
        assert explanation.actual_da is not None
        assert explanation.actual_da > 0
        assert explanation.result_nodes is not None
        assert "executed" in explanation.to_text()

    def test_execute_runs_the_query_once_without_an_engine(
        self, session_db, hills_dataset, monkeypatch
    ):
        """``execute`` runs the paper's processors once; no engine is
        built beside them."""

        def refuse(*args, **kwargs):
            raise AssertionError("explain built a QueryEngine")

        monkeypatch.setattr(QueryEngine, "__init__", refuse)
        store = session_db["dm"]
        roi = hills_dataset.bounds().scaled(0.3)
        lod = hills_dataset.pm.average_lod()
        explanation = explain(store, roi, lod=lod, execute=True)
        direct = store.uniform_query(roi, lod)
        assert explanation.result_nodes == len(direct)
        assert explanation.retrieved == direct.retrieved

    def test_steps_are_the_probe_boxes(self, session_db, hills_dataset):
        """A LOD above the cap is explained as the clamped plane the
        processors probe, which selects the base mesh's clusters."""
        store = session_db["dm"]
        roi = hills_dataset.bounds()
        explanation = explain(store, roi, lod=3 * store.e_cap)
        assert [step.cube for step in explanation.steps] == [
            plane_box(roi, store.e_cap, store.e_cap)
        ]
        assert explanation.cluster_view.candidates > 0

    def test_requires_lod(self, session_db, hills_dataset):
        with pytest.raises(QueryError):
            explain(session_db["dm"], hills_dataset.bounds())


class TestExplainViewdep:
    def test_multibase_plan_shown(self, session_db, hills_dataset):
        ds = hills_dataset
        roi = ds.bounds().scaled(0.5)
        plane = QueryPlane(
            roi, ds.pm.max_lod() * 0.01, ds.pm.max_lod() * 0.9
        )
        explanation = explain(session_db["dm"], plane)
        assert explanation.steps
        assert explanation.single_base_estimate is not None
        if len(explanation.steps) > 1:
            assert "multi-base" in explanation.kind
            assert explanation.predicted_gain > 0

    def test_unbounded_field_is_priced_finite(self, session_db, hills_dataset):
        """A radial field with the default ``e_max=inf`` is planned and
        priced over the clamped cubes it probes."""
        store = session_db["dm"]
        bounds = hills_dataset.bounds()
        field = RadialLodField(
            bounds.scaled(0.6),
            viewer=(bounds.center.x, bounds.min_y),
            rate=hills_dataset.pm.max_lod() / bounds.height,
        )
        explanation = explain(store, field)
        plan = store.cost_model.plan_multi_base(field)
        assert [step.cube for step in explanation.steps] == [
            plane_cube(strip, store.e_cap) for strip in plan.strips
        ]
        assert explanation.single_base_estimate < float("inf")
        assert "inf" not in explanation.to_text()

    def test_execution_matches_direct_query(self, session_db, hills_dataset):
        ds = hills_dataset
        store = session_db["dm"]
        roi = ds.bounds().scaled(0.4)
        plane = QueryPlane(
            roi, ds.pm.max_lod() * 0.02, ds.pm.max_lod() * 0.6
        )
        explanation = explain(store, plane, execute=True)
        direct = store.multi_base_query(plane)
        assert explanation.result_nodes == len(direct)

    def test_unknown_query_type(self, session_db):
        with pytest.raises(QueryError):
            explain(session_db["dm"], "not a query")


class TestFormatting:
    def test_range_step_describe(self):
        step = RangeStep(Box3(0, 0, 1.0, 100, 200, 1.0), 12.34)
        text = step.describe()
        assert "plane" in text
        assert "12.3" in text
        step = RangeStep(Box3(0, 0, 1.0, 100, 200, 5.0), 3.0)
        assert "cube" in step.describe()

    def test_explanation_singular_plural(self):
        one = QueryExplanation("q", [RangeStep(Box3(0, 0, 0, 1, 1, 1), 1.0)])
        assert "1 range query" in one.to_text()
        two = QueryExplanation(
            "q",
            [
                RangeStep(Box3(0, 0, 0, 1, 1, 1), 1.0),
                RangeStep(Box3(1, 1, 1, 2, 2, 2), 2.0),
            ],
        )
        assert "2 range queries" in two.to_text()
        assert two.estimated_da == 3.0
