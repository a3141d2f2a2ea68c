"""Minimal visualisation: ASCII rendering (here) and OBJ export
(:func:`repro.terrain.io.write_obj`)."""

from repro.viz.ascii import render_hillshade, render_points

__all__ = [
    "render_hillshade",
    "render_points",
]
