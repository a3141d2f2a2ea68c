"""Mesh reconstruction from retrieved Direct Mesh nodes.

Direct Mesh's defining property (paper Section 4) is that a terrain
approximation can be rebuilt from a *set of points* without fetching
their ancestors: every retrieved node carries its similar-LOD
connection-point list, so

* the approximation's **edges** are the connection pairs whose two
  endpoints are both in the result set — a pair is an edge when
  *either* endpoint lists the other (union semantics; the stores built
  here list symmetrically, ``fsck`` samples it, so the union
  and the intersection coincide on them), and a node listing itself
  contributes nothing;
* **triangles** fall out of the planar embedding: around each node,
  sort its result-set neighbours by angle; each consecutive pair that
  is itself connected closes a triangle.

Two implementations, one contract:

* the **kernel** — :func:`mesh_edges` / :func:`mesh_triangles` over a
  :class:`MeshArrays` (``ids, x, y`` plus the CSR connection lists
  ``conn_offsets, conn_flat``).  Presence is a ``searchsorted`` join
  of the sorted ids with the sorted list entries, undirected edges
  are unique packed rank pairs, angular order is one ``argsort`` of
  the angles and one sort of packed (owner, angle position), triangle
  closure a second ``searchsorted`` into the edge keys, dedup runs on
  packed keys.  No dicts, no per-node Python, numpy only.  Server
  answers (:class:`~repro.core.query.DMQueryResult`) hand it the
  arrays their filter gathered; dict-holding callers (sessions, the
  wire client, HDoV's build) go through :func:`pack_records`.
* the **oracle** — :func:`mesh_edges_scalar` /
  :func:`mesh_triangles_scalar`, the per-node Python the kernel is
  held to (``tests/test_reconstruct.py::TestKernelParity``).  It is
  also the small-answer path: the kernel is about a hundred numpy
  calls whatever the size, the oracle a few Python steps per node, so
  below :data:`KERNEL_MIN_NODES` ``DMQueryResult.triangles()`` hands
  :func:`mesh_triangles` its record dict instead of arrays, and a
  record dict is rebuilt by the oracle — same entry point (the one
  ``perf/trace.py`` spans), same arrays back.

The cut-over is measured where it is paid — the first reconstruct
after ``engine.submit(request).result()``, over the benchmark's
``hot_viewdep`` and ``cold_uniform`` request lists (median ms per size
bin, kernel / oracle): 16-20 nodes 0.27 / 0.10, 32-40 0.33 / 0.22,
40-48 0.34 / 0.25 (cold 0.35 / 0.37), 48-64 0.38 / 0.38 (cold 0.43 /
0.47), 64-80 0.41 / 0.46, 100-130 0.49 / 0.85, 200-400 0.83 / 2.4,
400+ 1.3 / 5.0.  That is a fixed 0.25 ms plus 2 us per node against
6 us per node: on a quiet host they cross at 44 nodes on the cold
list and 56 on the hot one.  (In a tight loop over one answer the
fixed part is 0.09 ms and they cross near 20; no caller runs it that
way.)

The constant sits well above that crossing, because medians on a
quiet host are half of the picture.  The kernel's fixed part is
numpy call overhead, and on a shared host that is the least steady
time there is: with a reader alone on ``patch_mix``'s request list
(answers of 102-162 nodes, 30 blocks of 4 s) the kernel's time moved
with the 2.3rd power of the host-speed reference ``perf/hostspeed.py``
times (correlation 0.95), the oracle's with the 1.5th.  Up to a few
hundred nodes the kernel is therefore the faster *and* the less
predictable choice: with it, ``patch_mix`` throughput read 1 393 1/s
with a middle-half spread of 210 over ten runs; with the oracle
1 078 and 75, runs alternating on one host (the code before the
kernel, in a like series: 588 and 43).
At the cut-over the kernel is about twice as fast on a quiet host
(0.63 ms against 1.15), three times by 300 nodes and four above 400:
margins a loaded host does not turn.

Both return node ids as ``int64`` arrays: edges ``(k, 2)`` with
``a < b`` per row, triangles ``(m, 3)`` with ``a < b < c`` per row,
rows in lexicographic order.  On exact angular ties (two neighbours in
the same direction — never the case for a store's points, which are
in general position) the order, and with it the triangle set, is
unspecified in both.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from typing import Any, NamedTuple, Protocol

import numpy as np
import numpy.typing as npt

__all__ = [
    "KERNEL_MIN_NODES",
    "IdArray",
    "MeshArrays",
    "pack_records",
    "mesh_edges",
    "mesh_triangles",
    "mesh_edges_scalar",
    "mesh_triangles_scalar",
]

#: Answers with fewer nodes than this are rebuilt by the scalar oracle
#: in ``DMQueryResult.triangles()``.  Medians cross at 44-56 nodes,
#: but up to a few hundred the kernel's time is mostly numpy call
#: overhead, which follows the host's load far more closely than the
#: oracle's Python does; from here up the kernel wins 2x or more and
#: a loaded host does not turn that.  The table and the spread are in
#: the module docstring.
KERNEL_MIN_NODES = 192

#: Node ids, as the kernels return them.
IdArray = npt.NDArray[np.int64]
#: Ids, ranks among them, indices or packed pairs of those, in flight.
_Ints = npt.NDArray[np.integer[Any]]


class MeshArrays(NamedTuple):
    """What reconstruction reads of an answer, one array per column.

    Row ``i`` is node ``ids[i]`` at ``(x[i], y[i])`` with connection
    list ``conn_flat[conn_offsets[i]:conn_offsets[i + 1]]``.  Ids are
    the record format's int32 values (in any integer dtype) and
    distinct; they need be neither sorted nor contiguous, and a list
    may name absent nodes (they are skipped).
    """

    ids: _Ints
    x: npt.NDArray[np.float64]
    y: npt.NDArray[np.float64]
    conn_offsets: npt.NDArray[np.int64]
    conn_flat: _Ints


class _Node(Protocol):
    """What the packer and the oracle read of a record."""

    x: float
    y: float
    connections: list[int]


def pack_records(nodes: Mapping[int, _Node]) -> MeshArrays:
    """The :class:`MeshArrays` of an id-keyed record dict, rows in the
    dict's order — how dict-holding callers reach the kernel."""
    n = len(nodes)
    records = nodes.values()
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(
        np.fromiter((len(r.connections) for r in records), np.int64, n),
        out=offsets[1:],
    )
    return MeshArrays(
        np.fromiter(nodes, np.int64, n),
        np.fromiter((r.x for r in records), np.float64, n),
        np.fromiter((r.y for r in records), np.float64, n),
        offsets,
        np.fromiter(
            (c for r in records for c in r.connections),
            np.int64,
            int(offsets[-1]),
        ),
    )


#: Two ranks (or a rank and an index) packed into one sortable int64:
#: ``high << 32 | low``.  Ids are the record format's int32, so a rank
#: among them fits.
_HALF = 32
_LOW = (1 << _HALF) - 1


def _unique_sorted(keys: _Ints) -> _Ints:
    """``np.unique`` without its bookkeeping: sort in place, drop
    repeats."""
    keys.sort()
    fresh = np.empty(keys.shape[0], np.bool_)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def _id_rows(rows: Sequence[tuple[int, ...]], width: int) -> IdArray:
    """The oracle's sorted tuples in the kernels' return shape."""
    return np.array(rows, np.int64).reshape(len(rows), width)


def mesh_edges(arrays: MeshArrays | Mapping[int, _Node]) -> IdArray:
    """Edges of the approximation formed by ``arrays``' nodes.

    A pair is an edge when both nodes are present and either lists the
    other in its similar-LOD connection list (union semantics, see the
    module docstring).  Returns the ``(k, 2)`` sorted id pairs.  A
    record dict in place of the arrays is rebuilt by the oracle.
    """
    if not isinstance(arrays, MeshArrays):
        return _id_rows(sorted(mesh_edges_scalar(arrays)), 2)
    ids, _, _, conn_offsets, conn_flat = arrays
    n = ids.shape[0]
    if n < 2 or conn_flat.shape[0] == 0:
        return np.empty((0, 2), np.int64)
    order = np.argsort(ids)
    sorted_ids = ids[order].astype(np.int64, copy=False)
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n)
    # Every list entry as (listed id, owner's rank), sorted: the
    # entries naming one node are then a run, found from the nodes'
    # side — 2n searches with ascending needles, which searchsorted is
    # quick on, instead of one per entry.
    entries = conn_flat.astype(np.int64) << _HALF
    entries |= np.repeat(rank, np.diff(conn_offsets))
    entries.sort()
    listed = entries >> _HALF
    start = np.searchsorted(listed, sorted_ids, "left")
    count = np.searchsorted(listed, sorted_ids, "right") - start
    # The runs, concatenated: who is listed (a rank), and by whom.
    other = np.repeat(np.arange(n), count)
    hits = np.repeat(start - (np.cumsum(count) - count), count)
    hits += np.arange(other.shape[0])
    owner = entries[hits] & _LOW
    pairs = _unique_sorted(
        (np.minimum(owner, other) << _HALF) | np.maximum(owner, other)
    )
    low, high = pairs >> _HALF, pairs & _LOW
    proper = low != high  # a node listing itself
    return sorted_ids[np.stack((low[proper], high[proper]), axis=1)]


def mesh_triangles(
    arrays: MeshArrays | Mapping[int, _Node], edges: IdArray | None = None
) -> IdArray:
    """Triangles of the approximation formed by ``arrays``' nodes.

    For each node, neighbours are sorted counter-clockwise; every
    consecutive neighbour pair that shares an edge closes a triangle
    (a node with exactly two neighbours has one such pair, not two).
    Each interior triangle is found three times and deduplicated.
    ``edges`` is :func:`mesh_edges` of the same arrays, when the
    caller already has it.  Returns the ``(m, 3)`` sorted id triples.
    A record dict in place of the arrays is rebuilt by the oracle.
    """
    if not isinstance(arrays, MeshArrays):
        pairs = None if edges is None else {(a, b) for a, b in edges.tolist()}
        return _id_rows(mesh_triangles_scalar(arrays, pairs), 3)
    if edges is None:
        edges = mesh_edges(arrays)
    k = edges.shape[0]
    if k < 3:
        return np.empty((0, 3), np.int64)
    ids, x, y = arrays.ids, arrays.x, arrays.y
    order = np.argsort(ids)
    sorted_ids = ids[order].astype(np.int64, copy=False)
    x, y = x[order], y[order]
    # From here on nodes are ranks (positions in sorted_ids) and edges
    # are indices into ``edges``; both sort like the ids do.
    low = np.searchsorted(sorted_ids, edges[:, 0])
    high = np.searchsorted(sorted_ids, edges[:, 1])
    edge_keys = (low << _HALF) | high  # ascending, as ``edges`` is
    # Both directions of every edge, grouped by owner, each group
    # counter-clockwise.  One sort does it: the position in angle
    # order is an integer stand-in for the angle.
    tail = np.concatenate((low, high))
    head = np.concatenate((high, low))
    by_angle = np.argsort(np.arctan2(y[head] - y[tail], x[head] - x[tail]))
    at = np.arange(2 * k)
    slots = (tail[by_angle] << _HALF) | at
    slots.sort()
    by = by_angle[slots & _LOW]
    owner, other, edge = slots >> _HALF, head[by], by % k
    degree = np.bincount(owner)
    first = (np.cumsum(degree) - degree)[owner]
    degree = degree[owner]
    following = at + 1
    wrap = following == first + degree
    following[wrap] = first[wrap]
    # A two-neighbour node has one wedge; its wrap-around is the same
    # pair again.
    wedge = (degree > 2) | ((degree == 2) & ~wrap)
    owner, following = owner[wedge], following[wedge]
    a, b = other[wedge], other[following]
    swap = a > b
    near = np.where(swap, b, a)
    far = np.where(swap, a, b)
    near_edge = np.where(swap, edge[following], edge[wedge])  # owner–near
    wanted = (near << _HALF) | far
    by_key = np.argsort(wanted)  # ascending needles again
    wanted = wanted[by_key]
    far_edge = np.searchsorted(edge_keys, wanted)  # near–far, if an edge
    far_edge[far_edge == k] = 0  # a miss past the end: any index will do
    closed = edge_keys[far_edge] == wanted
    by_key = by_key[closed]
    owner, far = owner[by_key], far[by_key]
    # Canonical (t0 < t1 < t2), packed as ((t0, t1)'s edge, t2): it is
    # near–far when the owner is the largest, owner–near otherwise.
    triples = _unique_sorted(
        (np.where(owner > far, far_edge[closed], near_edge[by_key]) << _HALF)
        | np.maximum(owner, far)
    )
    first_two = triples >> _HALF
    return sorted_ids[
        np.stack((low[first_two], high[first_two], triples & _LOW), axis=1)
    ]


def mesh_edges_scalar(nodes: Mapping[int, _Node]) -> set[tuple[int, int]]:
    """The oracle of :func:`mesh_edges`: per-node Python over a record
    dict.  Same union semantics."""
    edges: set[tuple[int, int]] = set()
    for node_id, record in nodes.items():
        for other in record.connections:
            if other in nodes:
                edges.add((node_id, other) if node_id < other else (other, node_id))
        edges.discard((node_id, node_id))  # a node listing itself
    return edges


def mesh_triangles_scalar(
    nodes: Mapping[int, _Node],
    edges: set[tuple[int, int]] | None = None,
) -> list[tuple[int, int, int]]:
    """The oracle of :func:`mesh_triangles`, sorted."""
    if edges is None:
        edges = mesh_edges_scalar(nodes)
    neighbor_map: dict[int, list[int]] = {nid: [] for nid in nodes}
    for a, b in edges:
        neighbor_map[a].append(b)
        neighbor_map[b].append(a)
    triangles: set[tuple[int, int, int]] = set()
    for nid, neighbors in neighbor_map.items():
        if len(neighbors) < 2:
            continue
        origin = nodes[nid]
        ordered = sorted(
            neighbors,
            key=lambda other: math.atan2(
                nodes[other].y - origin.y, nodes[other].x - origin.x
            ),
        )
        count = len(ordered)
        for i in range(count):
            a = ordered[i]
            b = ordered[(i + 1) % count]
            if count == 2 and i == 1:
                break  # Avoid emitting the same wedge twice.
            key = (a, b) if a < b else (b, a)
            if key in edges:
                tri = tuple(sorted((nid, a, b)))
                triangles.add(tri)  # type: ignore[arg-type]
    return sorted(triangles)
