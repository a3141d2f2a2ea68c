"""Triangular mesh and multiresolution-mesh (MTM) substrate.

Public surface:

* :class:`~repro.mesh.trimesh.TriMesh` — static full-resolution TIN;
* :func:`~repro.mesh.simplify.simplify_to_pm` — bottom-up PM
  construction by quadric-ordered edge collapse;
* :class:`~repro.mesh.progressive.ProgressiveMesh` /
  :class:`~repro.mesh.progressive.PMNode` — the paper's MTM tree with
  LOD normalisation and intervals;
* :mod:`repro.mesh.selective` — in-memory reference query semantics;
* :class:`~repro.mesh.quadric.Quadric` — Garland-Heckbert error
  quadrics.
"""

from repro.mesh.pmfile import load_pm, save_pm
from repro.mesh.progressive import LOD_INFINITY, NULL_ID, PMNode, ProgressiveMesh
from repro.mesh.quadric import Quadric, triangle_plane_quadric
from repro.mesh.selective import uniform_query_ref, viewdep_query_ref
from repro.mesh.simplify import SimplifyConfig, simplify_to_pm
from repro.mesh.trimesh import TriMesh

__all__ = [
    "LOD_INFINITY",
    "NULL_ID",
    "PMNode",
    "ProgressiveMesh",
    "Quadric",
    "SimplifyConfig",
    "TriMesh",
    "load_pm",
    "save_pm",
    "simplify_to_pm",
    "triangle_plane_quadric",
    "uniform_query_ref",
    "viewdep_query_ref",
]
