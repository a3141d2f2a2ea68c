"""The columnar (vectorized) query kernels against the record-level
predicate.

The contract: for *any* record set and any query,
``decode_dm_nodes_columnar`` + the numpy filters return
node-id-identical output (in fact identical record dicts) to
``decode_dm_node`` + the paper's per-record predicate
(``DMNodeRecord.interval_contains`` over ``Rect.contains_point``,
spelled out in :func:`_expected`), and the ``mesh_edges`` kernel over
the filter's gathered arrays matches ``mesh_edges_scalar`` over its
records.  Hypothesis drives randomized record stores,
ROIs, LODs, planes and radial fields through both paths — including
half-open interval boundaries, roots with infinite ``e_high``, empty
ROIs, and LODs above the store's ``e_cap``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.query import (
    filter_to_plane_columnar,
    filter_uniform_columnar,
)
from repro.core.reconstruct import (
    mesh_edges,
    mesh_edges_scalar,
    pack_records,
)
from repro.errors import RecordError
from repro.geometry.plane import QueryPlane, RadialLodField
from repro.geometry.primitives import Rect
from repro.mesh.progressive import LOD_INFINITY, PMNode
from repro.storage.record import (
    decode_dm_node,
    decode_dm_nodes_columnar,
    encode_dm_node,
)

common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def centered_rect(cx: float, cy: float, width: float, height: float) -> Rect:
    """A ``width`` x ``height`` rectangle centred on ``(cx, cy)``."""
    return Rect(cx - width / 2, cy - height / 2, cx + width / 2, cy + height / 2)


def _make_payloads(seed: int, n: int, compress_every: int = 0) -> list[bytes]:
    """Encode ``n`` pseudo-random DM node records."""
    rng = random.Random(seed)
    payloads = []
    for i in range(n):
        node = PMNode(
            i,
            rng.uniform(-10.0, 10.0),
            rng.uniform(-10.0, 10.0),
            rng.uniform(0.0, 5.0),
            error=0.0,
            parent=rng.randint(-1, n - 1),
            child1=rng.choice([-1, rng.randint(0, n - 1)]),
            child2=rng.choice([-1, rng.randint(0, n - 1)]),
            wing1=-1,
            wing2=-1,
        )
        node.e = rng.uniform(0.0, 3.0)
        node.e_high = (
            node.e + rng.uniform(0.0, 2.0) if i % 5 else LOD_INFINITY
        )
        connections = sorted(rng.sample(range(n), rng.randint(0, min(10, n))))
        compress = bool(compress_every) and i % compress_every == 0
        payloads.append(encode_dm_node(node, connections, compress=compress))
    return payloads


class TestColumnarDecode:
    def test_roundtrip_matches_scalar_decode(self):
        payloads = _make_payloads(seed=0, n=300, compress_every=3)
        scalar = [decode_dm_node(p) for p in payloads]
        columns = decode_dm_nodes_columnar(payloads)
        assert len(columns) == len(scalar)
        assert columns.records() == scalar

    def test_empty_batch(self):
        columns = decode_dm_nodes_columnar([])
        assert len(columns) == 0
        assert columns.records() == []
        assert columns.nbytes >= 0

    def test_truncated_payload_rejected(self):
        with pytest.raises(RecordError):
            decode_dm_nodes_columnar([b"\x00" * 10])

    def test_trailing_bytes_rejected(self):
        payload = _make_payloads(seed=1, n=1)[0]
        with pytest.raises(RecordError):
            decode_dm_nodes_columnar([payload + b"\x00\x00\x00\x00"])

    def test_materialize_preserves_row_order(self):
        payloads = _make_payloads(seed=2, n=50)
        columns = decode_dm_nodes_columnar(payloads)
        mask = np.zeros(50, bool)
        mask[::3] = True
        nodes = columns.materialize(mask)
        assert list(nodes) == [int(i) for i in columns.ids[::3]]


@pytest.fixture(scope="module")
def record_universe():
    """One decoded record set shared by the filter property tests."""
    payloads = _make_payloads(seed=7, n=1200, compress_every=4)
    return [decode_dm_node(p) for p in payloads], decode_dm_nodes_columnar(
        payloads
    )


def _expected(records, roi, required_lod):
    """The record-level predicate: a node is in the approximation when
    it lies in ``roi`` and its half-open LOD interval contains the LOD
    required at its position."""
    return {
        rec.id: rec
        for rec in records
        if roi.contains_point(rec.x, rec.y)
        and rec.interval_contains(required_lod(rec.x, rec.y))
    }


positions = st.floats(-12.0, 12.0, allow_nan=False)
spans = st.floats(0.0, 15.0, allow_nan=False)
lods = st.floats(0.0, 6.0, allow_nan=False)


class TestFilterParity:
    @common
    @given(positions, positions, spans, spans, lods)
    def test_filter_uniform(self, record_universe, cx, cy, w, h, lod):
        records, columns = record_universe
        roi = centered_rect(cx, cy, w, h)
        assert _expected(
            records, roi, lambda x, y: lod
        ) == filter_uniform_columnar(columns, roi, lod).nodes

    @common
    @given(st.integers(0, 1199))
    def test_filter_uniform_interval_boundary(self, record_universe, idx):
        """The half-open ``[e_low, e_high)`` boundary, hit exactly."""
        records, columns = record_universe
        roi = Rect(-20, -20, 20, 20)
        for lod in (records[idx].e_low, records[idx].e_high):
            if lod == LOD_INFINITY:
                continue
            scalar = _expected(records, roi, lambda x, y: lod)
            vector = filter_uniform_columnar(columns, roi, lod).nodes
            assert scalar == vector

    @common
    @given(positions, positions, spans, spans, lods, lods, positions, positions)
    def test_filter_to_plane(
        self, record_universe, cx, cy, w, h, e_a, e_b, dx, dy
    ):
        records, columns = record_universe
        roi = centered_rect(cx, cy, w, h)
        if abs(dx) + abs(dy) < 1e-6:
            dx = 1.0
        plane = QueryPlane(roi, min(e_a, e_b), max(e_a, e_b), (dx, dy))
        assert _expected(
            records, roi, plane.required_lod
        ) == filter_to_plane_columnar(columns, plane).nodes

    @common
    @given(positions, positions, spans, spans, positions, positions,
           st.floats(0.01, 1.0))
    def test_filter_radial_field(
        self, record_universe, cx, cy, w, h, vx, vy, rate
    ):
        records, columns = record_universe
        roi = centered_rect(cx, cy, w, h)
        field = RadialLodField(roi, (vx, vy), rate, e_min=0.1, e_max=4.0)
        assert _expected(
            records, roi, field.required_lod
        ) == filter_to_plane_columnar(columns, field).nodes

    def test_empty_roi(self, record_universe):
        """A degenerate ROI far outside the data keeps both paths empty."""
        records, columns = record_universe
        roi = Rect(100.0, 100.0, 100.0, 100.0)
        assert _expected(records, roi, lambda x, y: 1.0) == {}
        assert filter_uniform_columnar(columns, roi, 1.0).nodes == {}
        plane = QueryPlane(roi, 0.5, 2.0)
        assert filter_to_plane_columnar(columns, plane).nodes == {}


def _edge_set(edges: np.ndarray) -> set[tuple[int, int]]:
    return set(map(tuple, edges.tolist()))


class TestEdgeExtractionParity:
    @common
    @given(lods, st.floats(0.2, 1.0))
    def test_edges_match_scalar(self, record_universe, lod, size_f):
        records, columns = record_universe
        roi = centered_rect(0.0, 0.0, 24.0 * size_f, 24.0 * size_f)
        result = filter_uniform_columnar(columns, roi, lod)
        reference = mesh_edges_scalar(result.nodes)
        packed = pack_records(result.nodes)
        assert _edge_set(mesh_edges(packed)) == reference
        assert _edge_set(result.edges()) == reference
        if result.arrays is not None:
            # What the filter gathered is the records' own columns.
            for got, want in zip(result.arrays, packed):
                assert got.tolist() == want.tolist()

    def test_empty_and_connectionless(self):
        assert mesh_edges(pack_records({})).shape == (0, 2)
        payloads = _make_payloads(seed=9, n=3)
        records = [decode_dm_node(p) for p in payloads]
        for rec in records:
            rec.connections = []
        nodes = {rec.id: rec for rec in records}
        assert mesh_edges(pack_records(nodes)).shape == (0, 2)
        assert mesh_edges_scalar(nodes) == set()
