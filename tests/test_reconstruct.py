"""Tests for mesh reconstruction and Algorithm 1's refinement."""

import math
import random
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core as core
from repro.core import query as query_module
from repro.core.query import DMQueryResult, filter_uniform_columnar
from repro.core.reconstruct import (
    KERNEL_MIN_NODES,
    MeshArrays,
    mesh_edges,
    mesh_edges_scalar,
    mesh_triangles,
    mesh_triangles_scalar,
    pack_records,
)
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.storage.record import DMNodeRecord
from tests.conftest import assert_same_rows, oracle_mesh
from tests.oracles.refine import refine_to_plane, resolve_overlaps
from tests.test_columnar import record_universe  # noqa: F401  (a fixture)


def centered_rect(cx: float, cy: float, width: float, height: float) -> Rect:
    """A ``width`` x ``height`` rectangle centred on ``(cx, cy)``."""
    return Rect(cx - width / 2, cy - height / 2, cx + width / 2, cy + height / 2)


def rec(node_id, x, y, e_low, e_high, conn, parent=-1, children=(-1, -1)):
    return DMNodeRecord(
        node_id,
        x,
        y,
        0.0,
        e_low,
        e_high,
        parent,
        children[0],
        children[1],
        -1,
        -1,
        list(conn),
    )


def kernel_mesh(nodes):
    """``(edges, triangles)`` of a record dict through the packer and
    the array kernels."""
    arrays = pack_records(nodes)
    edges = mesh_edges(arrays)
    return edges, mesh_triangles(arrays, edges)


def assert_kernel_is_oracle(nodes):
    edges, triangles = kernel_mesh(nodes)
    want_edges, want_triangles = oracle_mesh(nodes)
    assert_same_rows(edges, want_edges)
    assert_same_rows(triangles, want_triangles)
    # Without the caller's edges the kernel finds its own.
    assert_same_rows(mesh_triangles(pack_records(nodes)), want_triangles)
    # Handed the record dict itself, the entry points run the oracle.
    assert_same_rows(mesh_edges(nodes), want_edges)
    assert_same_rows(mesh_triangles(nodes), want_triangles)
    assert_same_rows(mesh_triangles(nodes, want_edges), want_triangles)


class TestEdgesTriangles:
    def test_square_with_diagonal(self):
        nodes = {
            0: rec(0, 0, 0, 0, 1, [1, 2, 3]),
            1: rec(1, 1, 0, 0, 1, [0, 2]),
            2: rec(2, 1, 1, 0, 1, [0, 1, 3]),
            3: rec(3, 0, 1, 0, 1, [0, 2]),
        }
        edges, tris = kernel_mesh(nodes)
        assert edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [2, 3]]
        assert tris.tolist() == [[0, 1, 2], [0, 2, 3]]
        assert_kernel_is_oracle(nodes)

    def test_edges_need_mutual_presence(self):
        nodes = {
            0: rec(0, 0, 0, 0, 1, [1, 99]),  # 99 absent.
            1: rec(1, 1, 0, 0, 1, [0]),
        }
        assert mesh_edges(pack_records(nodes)).tolist() == [[0, 1]]
        assert mesh_edges_scalar(nodes) == {(0, 1)}

    def test_one_directional_entry_is_an_edge(self):
        """Union semantics: one endpoint listing the other suffices."""
        nodes = {
            0: rec(0, 0, 0, 0, 1, [1]),
            1: rec(1, 1, 0, 0, 1, []),
        }
        assert mesh_edges(pack_records(nodes)).tolist() == [[0, 1]]
        assert mesh_edges_scalar(nodes) == {(0, 1)}

    def test_self_reference_is_no_edge(self):
        nodes = {
            0: rec(0, 0, 0, 0, 1, [0, 1]),
            1: rec(1, 1, 0, 0, 1, [1]),
        }
        assert mesh_edges(pack_records(nodes)).tolist() == [[0, 1]]
        assert mesh_edges_scalar(nodes) == {(0, 1)}

    def test_empty(self):
        edges, tris = kernel_mesh({})
        assert edges.shape == (0, 2) and edges.dtype == np.int64
        assert tris.shape == (0, 3) and tris.dtype == np.int64
        assert mesh_edges_scalar({}) == set()
        assert mesh_triangles_scalar({}) == []

    def test_lone_edge_no_triangles(self):
        nodes = {
            0: rec(0, 0, 0, 0, 1, [1]),
            1: rec(1, 1, 0, 0, 1, [0]),
        }
        assert kernel_mesh(nodes)[1].shape == (0, 3)
        assert mesh_triangles_scalar(nodes) == []

    def test_hexagon_fan(self):
        center = rec(0, 0, 0, 0, 1, [1, 2, 3, 4, 5, 6])
        nodes = {0: center}
        for k in range(6):
            angle = k * math.pi / 3
            ring_conn = [0, 1 + (k + 1) % 6, 1 + (k - 1) % 6]
            nodes[k + 1] = rec(
                k + 1, math.cos(angle), math.sin(angle), 0, 1, ring_conn
            )
        tris = kernel_mesh(nodes)[1]
        assert len(tris) == 6
        assert (tris == 0).any(axis=1).all()
        assert_kernel_is_oracle(nodes)

    def test_two_neighbour_wedge_counts_once(self):
        """The ``count == 2`` rule: a lone triangle, every owner of
        which has exactly two neighbours."""
        nodes = {
            5: rec(5, 0, 0, 0, 1, [7, 9]),
            7: rec(7, 1, 0, 0, 1, [5, 9]),
            9: rec(9, 0, 1, 0, 1, [5, 7]),
        }
        assert kernel_mesh(nodes)[1].tolist() == [[5, 7, 9]]
        assert_kernel_is_oracle(nodes)

    def test_triangle_found_from_one_owner_only(self):
        """A separating 3-cycle: 0 and 1 each see node 3 (resp. 4)
        inside the angle towards the other two, so only 2 closes it."""
        nodes = {
            0: rec(0, 0.0, 0.0, 0, 1, [1, 2, 3]),
            1: rec(1, 4.0, 0.0, 0, 1, [0, 2, 4]),
            2: rec(2, 2.0, 4.0, 0, 1, [0, 1]),
            3: rec(3, 1.0, 1.0, 0, 1, [0]),
            4: rec(4, 3.0, 1.0, 0, 1, [1]),
        }
        assert kernel_mesh(nodes)[1].tolist() == [[0, 1, 2]]
        assert_kernel_is_oracle(nodes)


kernel_parity = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _scrambled(nodes, seed, stride, offset):
    """``nodes`` relabelled ``offset + stride * id`` (non-contiguous
    ids), rows in shuffled order, every list shuffled with one entry
    repeated and one absent id appended."""
    rng = random.Random(seed)
    relabel = {nid: offset + stride * nid for nid in nodes}
    absent = offset + stride * (max(nodes, default=0) + 1)
    order = list(nodes)
    rng.shuffle(order)
    out = {}
    for nid in order:
        node = nodes[nid]
        # A listed id outside the answer maps above every present id.
        conn = [
            relabel.get(c, absent + 2 * stride * abs(c) + stride)
            for c in node.connections
        ]
        if conn:
            conn.append(rng.choice(conn))
        conn.append(absent)
        rng.shuffle(conn)
        out[relabel[nid]] = rec(
            relabel[nid], node.x, node.y, node.e_low, node.e_high, conn
        )
    return out


class TestKernelParity:
    """The array kernels against the scalar oracle: same edges, same
    triangles, same order, for any answer."""

    @kernel_parity
    @given(
        st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_uniform_answers_of_a_real_store(
        self, session_db, frac, fx, fy, lod_frac
    ):
        """ROI clips leave dangling connections, isolated nodes,
        two-neighbour wedges and 3-cycles seen from fewer than three
        owners."""
        store = session_db["dm"]
        extent = store.clusters.index.extent.rect
        w, h = extent.width * frac, extent.height * frac
        x0 = extent.min_x + fx * (extent.width - w)
        y0 = extent.min_y + fy * (extent.height - h)
        result = store.uniform_query(
            Rect(x0, y0, x0 + w, y0 + h), lod_frac * store.max_lod
        )
        assert_kernel_is_oracle(result.nodes)
        if len(result) < KERNEL_MIN_NODES:
            assert result.arrays is None
            return
        # The arrays the filter gathered feed the kernels as they are.
        want_edges, want_triangles = oracle_mesh(result.nodes)
        edges = mesh_edges(result.arrays)
        assert_same_rows(edges, want_edges)
        assert_same_rows(mesh_triangles(result.arrays, edges), want_triangles)

    @kernel_parity
    @given(st.floats(0.1, 0.9), st.floats(0.05, 0.6), st.floats(-1.0, 1.0))
    def test_view_dependent_answers_of_a_real_store(
        self, session_db, frac, lod_frac, dx
    ):
        store = session_db["dm"]
        extent = store.clusters.index.extent.rect
        plane = QueryPlane(
            extent.scaled(frac),
            0.5 * lod_frac * store.max_lod,
            lod_frac * store.max_lod,
            (dx, 1.0 - abs(dx)),
        )
        assert_kernel_is_oracle(store.single_base_query(plane).nodes)

    @kernel_parity
    @given(
        st.floats(0.0, 6.0), st.floats(0.05, 1.0), st.integers(0, 2**16),
        st.integers(1, 9), st.integers(0, 10**6),
    )
    def test_arbitrary_lists(
        self, record_universe, lod, size_f, seed, stride, offset  # noqa: F811
    ):
        """Random (non-planar) lists over random points: one-directional
        and self-naming entries, then ids unsorted and non-contiguous,
        duplicates and absent ids on top."""
        _, columns = record_universe
        roi = centered_rect(0.0, 0.0, 24.0 * size_f, 24.0 * size_f)
        nodes = filter_uniform_columnar(columns, roi, lod).nodes
        assert_kernel_is_oracle(nodes)
        assert_kernel_is_oracle(_scrambled(nodes, seed, stride, offset))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_answers(self, n):
        nodes = {
            10 * i: rec(10 * i, float(i), 0.5 * i, 0, 1, [0, 10, 20, 30])
            for i in range(n)
        }
        assert_kernel_is_oracle(nodes)
        result = DMQueryResult(nodes=nodes, retrieved=n)
        assert result.edges().shape == (n * (n - 1) // 2, 2)
        assert result.triangles().shape == (0, 3)
        assert result.vertex_mesh()[1].shape == (0, 3)

    @pytest.mark.parametrize(
        "n", [KERNEL_MIN_NODES - 1, KERNEL_MIN_NODES, KERNEL_MIN_NODES + 1]
    )
    def test_either_side_of_the_cut_over(self, session_db, hills_dataset, n):
        """``DMQueryResult.triangles()`` answers with the same arrays
        whichever implementation its size selects."""
        store = session_db["dm"]
        answer = store.uniform_query(
            hills_dataset.bounds(), hills_dataset.pm.average_lod()
        ).nodes
        assert len(answer) > n
        nodes = dict(list(answer.items())[:n])
        want_edges, want_triangles = oracle_mesh(nodes)
        assert len(want_triangles) > 0
        result = DMQueryResult(nodes=nodes, retrieved=n)
        assert_same_rows(result.triangles(), want_triangles)
        assert_same_rows(result.edges(), want_edges)
        assert_same_rows(
            DMQueryResult(nodes=nodes, retrieved=n).edges(), want_edges
        )


class TestResultMemo:
    @pytest.fixture
    def result(self, session_db, hills_dataset):
        result = session_db["dm"].uniform_query(
            hills_dataset.bounds().scaled(0.6),
            0.25 * hills_dataset.pm.average_lod(),
        )
        assert len(result) >= KERNEL_MIN_NODES
        return result

    def test_one_kernel_call_per_result(self, result, monkeypatch):
        calls = []

        def counting(arrays, edges=None):
            calls.append(1)
            return mesh_triangles(arrays, edges)

        monkeypatch.setattr(query_module, "mesh_triangles", counting)
        first = result.triangles()
        assert result.triangles() is first
        vertices, faces = result.vertex_mesh()
        assert len(calls) == 1
        assert len(vertices) == len(result) and len(faces) == len(first)

    def test_small_answers_rebuild_through_the_same_name(
        self, session_db, hills_dataset, monkeypatch
    ):
        """Under the cut-over the record dict goes to ``mesh_triangles``
        too: whoever wraps that name (``perf/trace.py``) sees every
        rebuild, whichever implementation runs it."""
        small = session_db["dm"].uniform_query(
            hills_dataset.bounds().scaled(0.6), hills_dataset.pm.average_lod()
        )
        assert 0 < len(small) < KERNEL_MIN_NODES and small.arrays is None
        handed = []

        def recording(mesh, edges=None):
            handed.append(mesh)
            return mesh_triangles(mesh, edges)

        monkeypatch.setattr(query_module, "mesh_triangles", recording)
        assert_same_rows(small.triangles(), oracle_mesh(small.nodes)[1])
        assert small.triangles() is small.triangles()
        assert handed == [small.nodes]

    def test_racing_readers_get_equal_arrays(self, result):
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        seen = []

        def reader():
            barrier.wait(timeout=30)
            seen.append(result.triangles())

        threads = [threading.Thread(target=reader) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == n_threads
        want = oracle_mesh(result.nodes)[1]
        for triangles in seen:
            assert_same_rows(triangles, want)
        assert result.triangles() is result.triangles()

    def test_vertex_mesh_indexes_points(self, result):
        vertices, faces = result.vertex_mesh()
        assert vertices == result.points()
        ids = sorted(result.nodes)
        assert [[ids[i] for i in row] for row in faces.tolist()] == (
            result.triangles().tolist()
        )


def test_core_exports_resolve():
    for name in core.__all__:
        assert getattr(core, name) is not None, name
    assert {"MeshArrays", "pack_records", "mesh_edges", "mesh_triangles",
            "mesh_edges_scalar", "mesh_triangles_scalar"} <= set(core.__all__)
    assert isinstance(pack_records({}), MeshArrays)


class TestRefinement:
    def make_family(self):
        """Parent 2 (interval [1, 10)) with children 0, 1 ([0, 1))."""
        return {
            0: rec(0, 0.0, 0.0, 0.0, 1.0, [1], parent=2),
            1: rec(1, 1.0, 0.0, 0.0, 1.0, [0], parent=2),
            2: rec(2, 0.5, 0.0, 1.0, 10.0, [], children=(0, 1)),
        }

    def test_coarse_plane_keeps_parent(self):
        records = self.make_family()
        plane = QueryPlane(Rect(-1, -1, 2, 1), 5.0, 5.0)
        result = refine_to_plane(records, plane)
        assert result.active == {2}
        assert result.splits == 0

    def test_fine_plane_splits_to_children(self):
        records = self.make_family()
        plane = QueryPlane(Rect(-1, -1, 2, 1), 0.5, 0.5)
        result = refine_to_plane(records, plane, start_lod=5.0)
        assert result.active == {0, 1}
        assert result.splits == 1
        assert result.missing_children == []

    def test_missing_child_recorded(self):
        records = self.make_family()
        del records[1]  # Child clipped by the ROI.
        plane = QueryPlane(Rect(-1, -1, 2, 1), 0.5, 0.5)
        result = refine_to_plane(records, plane, start_lod=5.0)
        assert result.active == {0}
        assert result.missing_children == [1]

    def test_refinement_matches_filter_on_uniform_plane(
        self, session_db, hills_dataset
    ):
        # Algorithm 1 executed step-by-step must agree with the
        # set-filter semantics when the plane is flat.
        store = session_db["dm"]
        ds = hills_dataset
        roi = ds.bounds().scaled(0.4)
        lod = ds.pm.average_lod()
        flat = QueryPlane(roi, lod, lod)
        cube_result = store.single_base_query(flat)
        # Re-fetch everything the cube would grab, then refine (lod is
        # below e_cap by construction).
        from repro.core.query import range_columns
        from repro.geometry.primitives import Box3

        columns = range_columns(store, Box3.from_rect(roi, lod, lod))
        records = {r.id: r for r in columns.records()}
        refined = refine_to_plane(records, flat)
        assert refined.active == set(cube_result.nodes)


class TestResolveOverlaps:
    def test_keeps_ancestor(self):
        records = {
            0: rec(0, 0, 0, 0.0, 1.0, [], parent=2),
            2: rec(2, 0.5, 0, 1.0, 10.0, [], children=(0, 1)),
        }
        kept = resolve_overlaps(records)
        assert set(kept) == {2}

    def test_no_overlap_untouched(self):
        records = {
            0: rec(0, 0, 0, 0.0, 1.0, [1], parent=5),
            1: rec(1, 1, 0, 0.0, 1.0, [0], parent=6),
        }
        assert set(resolve_overlaps(records)) == {0, 1}

    def test_deep_chain(self):
        records = {
            0: rec(0, 0, 0, 0.0, 1.0, [], parent=1),
            1: rec(1, 0, 0, 1.0, 2.0, [], parent=2, children=(0, -1)),
            2: rec(2, 0, 0, 2.0, 3.0, [], children=(1, -1)),
        }
        kept = resolve_overlaps(records)
        assert set(kept) == {2}
