"""Tests for terrain I/O and ASCII rendering."""

import numpy as np
import pytest

from repro.errors import DatasetError, ReproError
from repro.terrain.gridfield import GridField
from repro.terrain.io import (
    read_esri_ascii,
    write_esri_ascii,
    write_obj,
)
from repro.terrain.synthetic import gaussian_hills_field
from repro.viz.ascii import render_hillshade, render_points


class TestEsriAscii:
    def test_roundtrip(self, tmp_path):
        field = GridField(
            np.arange(12, dtype=float).reshape(3, 4),
            cell_size=2.5,
            origin=(100, 200),
        )
        path = tmp_path / "dem.asc"
        write_esri_ascii(path, field)
        back = read_esri_ascii(path)
        assert np.allclose(back.heights, field.heights)
        assert back.cell_size == field.cell_size
        assert back.origin == field.origin

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("ncols 2\n1 2\n")
        with pytest.raises(DatasetError):
            read_esri_ascii(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("ncols 3\nnrows 2\ncellsize 1\n1 2 3\n")
        with pytest.raises(DatasetError):
            read_esri_ascii(path)


class TestObj:
    def test_write_mesh(self, tmp_path):
        from repro.mesh.trimesh import TriMesh

        mesh = TriMesh(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
            [(0, 1, 2)],
        )
        path = tmp_path / "m.obj"
        write_obj(path, mesh)
        text = path.read_text()
        assert text.count("\nv ") + text.startswith("v ") == 3
        assert "f 1 2 3" in text

    def test_write_explicit(self, tmp_path):
        path = tmp_path / "m.obj"
        write_obj(
            path,
            vertices=[(0, 0, 0), (1, 0, 0), (0, 1, 0)],
            triangles=[(0, 1, 2)],
        )
        assert "f 1 2 3" in path.read_text()

    def test_needs_input(self, tmp_path):
        with pytest.raises(DatasetError):
            write_obj(tmp_path / "m.obj")


class TestAsciiRendering:
    def test_render_points_dimensions(self):
        pts = [(float(i), float(j), float(i + j)) for i in range(10)
               for j in range(10)]
        art = render_points(pts, width=40, height=12)
        lines = art.split("\n")
        assert len(lines) == 12
        assert all(len(line) == 40 for line in lines)

    def test_render_points_empty(self):
        with pytest.raises(ReproError):
            render_points([])

    def test_high_points_brighter(self):
        # A single very high point should map to the densest glyph.
        pts = [(0.0, 0.0, 0.0), (5.0, 5.0, 100.0), (9.0, 9.0, 0.0)]
        art = render_points(pts, width=10, height=10)
        assert "@" in art

    def test_render_hillshade(self):
        field = gaussian_hills_field(size=32, seed=1)
        art = render_hillshade(field, width=30, height=10)
        lines = art.split("\n")
        assert len(lines) == 10
        assert all(len(line) == 30 for line in lines)
        assert len(set(art)) > 3  # Some tonal variety.
