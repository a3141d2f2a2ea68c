"""The paper's contribution: Direct Mesh.

Public surface:

* :func:`~repro.core.connectivity.build_connection_lists` -- the
  similar-LOD connection-point encoding (paper Section 4);
* :class:`~repro.core.direct_mesh.DirectMeshStore` -- DM records +
  3D R*-tree in a database, with the three query processors;
* :class:`~repro.core.query.DMQueryResult` -- query results with mesh
  reconstruction (edges/triangles) straight from connection lists;
* :class:`~repro.core.cost_model.RTreeCostModel` -- the I/O cost model
  and multi-base optimiser (paper formulas (1)-(9));
* :mod:`repro.core.reconstruct` -- the edge/triangle array kernels
  (:func:`mesh_edges`, :func:`mesh_triangles` over a
  :class:`MeshArrays`; :func:`pack_records` for record dicts), their
  scalar oracle, and Algorithm 1's refinement steps;
* :class:`~repro.core.engine.QueryEngine` -- concurrent batched query
  execution with per-query metrics (the serving path);
* :class:`~repro.core.admission.CostGovernor` -- cost-based admission
  control for the engine's open-loop ``submit`` path;
* :class:`~repro.core.cache.SemanticCache` -- interval-aware result
  cache answering subsumed queries with zero index/disk I/O;
* :mod:`repro.core.wire` -- the versioned delta-frame wire format and
  the pure-client :class:`~repro.core.wire.ClientMesh`;
* :class:`~repro.core.streaming.EngineSession` /
  :class:`~repro.core.streaming.SessionManager` -- progressive
  transmission sessions routed through the engine
  (``engine.sessions()``).
"""

from repro.core.cache import CacheStats, SemanticCache
from repro.core.connectivity import (
    build_connection_lists,
    connection_statistics,
    total_connection_counts,
)
from repro.core.cost_model import MultiBasePlan, RTreeCostModel
from repro.core.direct_mesh import DirectMeshStore, DMBuildReport
from repro.core.engine import (
    QueryEngine,
    QueryMetrics,
    QueryOutcome,
    SingleBaseRequest,
    UniformRequest,
)
from repro.core.explain import QueryExplanation, RangeStep, explain
from repro.core.query import (
    DMQueryResult,
    multi_base_query,
    single_base_query,
    uniform_query,
)
from repro.core.reconstruct import (
    MeshArrays,
    RefinementResult,
    mesh_edges,
    mesh_edges_scalar,
    mesh_triangles,
    mesh_triangles_scalar,
    pack_records,
    refine_to_plane,
    resolve_overlaps,
)
from repro.core.streaming import (
    EngineSession,
    FrameResult,
    SessionDelta,
    SessionManager,
    TerrainSession,
)
from repro.core.verify_store import StoreReport, verify_store
from repro.core.wire import ClientMesh, DeltaFrame, decode_frame, encode_frame

__all__ = [
    "CacheStats",
    "ClientMesh",
    "DMBuildReport",
    "DMQueryResult",
    "DeltaFrame",
    "EngineSession",
    "FrameResult",
    "SemanticCache",
    "SessionManager",
    "DirectMeshStore",
    "MeshArrays",
    "MultiBasePlan",
    "QueryEngine",
    "QueryExplanation",
    "QueryMetrics",
    "QueryOutcome",
    "RangeStep",
    "RTreeCostModel",
    "RefinementResult",
    "SessionDelta",
    "SingleBaseRequest",
    "StoreReport",
    "TerrainSession",
    "UniformRequest",
    "build_connection_lists",
    "connection_statistics",
    "decode_frame",
    "encode_frame",
    "explain",
    "mesh_edges",
    "mesh_edges_scalar",
    "mesh_triangles",
    "mesh_triangles_scalar",
    "multi_base_query",
    "pack_records",
    "refine_to_plane",
    "resolve_overlaps",
    "single_base_query",
    "total_connection_counts",
    "uniform_query",
    "verify_store",
]
