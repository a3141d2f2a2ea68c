"""Tests for the terrain substrate: rasters, generators, DEMs, datasets."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.terrain.dem import DEM
from repro.terrain.gridfield import GridField
from repro.terrain.synthetic import (
    crater_field,
    fractal_field,
    gaussian_hills_field,
    ridge_field,
)


class TestGridField:
    def test_validation(self):
        with pytest.raises(DatasetError):
            GridField(np.zeros((1, 5)))
        with pytest.raises(DatasetError):
            GridField(np.zeros((5, 5)), cell_size=0)

    def test_bounds(self):
        f = GridField(np.zeros((5, 9)), cell_size=2.0, origin=(10, 20))
        assert f.bounds().as_tuple() == (10, 20, 26, 28)

    def test_sample_exact_and_interpolated(self):
        f = GridField(np.array([[0.0, 1.0], [2.0, 3.0]]), cell_size=1.0)
        assert f.sample(0, 0) == 0.0
        assert f.sample(1, 1) == 3.0
        assert f.sample(0.5, 0.5) == pytest.approx(1.5)
        assert f.sample(0.5, 0.0) == pytest.approx(0.5)

    def test_sample_clamps_outside(self):
        f = GridField(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert f.sample(-5, -5) == 0.0
        assert f.sample(99, 99) == 3.0

    def test_sample_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        f = GridField(rng.uniform(0, 10, (16, 16)), cell_size=3.0)
        xs = rng.uniform(0, 45, 50)
        ys = rng.uniform(0, 45, 50)
        vec = f.sample_many(xs, ys)
        for x, y, v in zip(xs, ys, vec):
            assert f.sample(x, y) == pytest.approx(v)

    def test_line_of_sight_flat(self):
        f = GridField(np.zeros((16, 16)))
        assert f.line_of_sight((0, 0, 1.0), (15, 15, 1.0))

    def test_line_of_sight_blocked(self):
        heights = np.zeros((16, 16))
        heights[8, :] = 50.0
        f = GridField(heights)
        assert not f.line_of_sight((8.0, 0.0, 1.0), (8.0, 15.0, 1.0))


class TestGenerators:
    def test_fractal_deterministic(self):
        a = fractal_field(exponent=5, seed=9)
        b = fractal_field(exponent=5, seed=9)
        assert np.array_equal(a.heights, b.heights)
        c = fractal_field(exponent=5, seed=10)
        assert not np.array_equal(a.heights, c.heights)

    def test_fractal_size(self):
        f = fractal_field(exponent=6)
        assert f.heights.shape == (65, 65)

    def test_fractal_validation(self):
        with pytest.raises(DatasetError):
            fractal_field(roughness=1.5)
        with pytest.raises(DatasetError):
            fractal_field(exponent=0)

    def test_fractal_has_multiscale_detail(self):
        f = fractal_field(exponent=7, seed=1)
        h = f.heights
        coarse_var = np.var(h[::16, ::16])
        assert coarse_var > 0
        local_diff = np.abs(np.diff(h, axis=0)).mean()
        assert local_diff > 0

    def test_crater_profile(self):
        f = crater_field(exponent=6, noise_amplitude=0.0, seed=0)
        n = f.heights.shape[0]
        center = f.heights[n // 2, n // 2]
        rim = f.heights[n // 2, int(n * (0.5 + 0.55 / 2))]
        corner = f.heights[0, 0]
        assert rim > center  # Rim stands above the bowl floor.
        assert rim > corner  # And above the outer flank.

    def test_ridge_field_shape(self):
        f = ridge_field(exponent=5, seed=3)
        assert f.heights.shape == (33, 33)

    def test_gaussian_hills(self):
        f = gaussian_hills_field(size=40, n_hills=5, seed=2)
        assert f.heights.shape == (40, 40)
        assert f.elevation_range()[1] > f.elevation_range()[0]
        with pytest.raises(DatasetError):
            gaussian_hills_field(size=1)


class TestDEM:
    def test_scattered_trimesh(self):
        dem = DEM(gaussian_hills_field(size=30, seed=5))
        mesh = dem.to_scattered_trimesh(500, seed=5)
        assert mesh.n_vertices == 500
        mesh.validate_topology()
        # Corners present so the TIN spans the extent.
        bounds = dem.bounds()
        vertex_xy = {(v[0], v[1]) for v in mesh.vertices}
        assert (bounds.min_x, bounds.min_y) in vertex_xy
        assert (bounds.max_x, bounds.max_y) in vertex_xy

    def test_scattered_deterministic(self):
        dem = DEM(gaussian_hills_field(size=30, seed=5))
        a = dem.to_scattered_trimesh(300, seed=1)
        b = dem.to_scattered_trimesh(300, seed=1)
        assert a.vertices == b.vertices

    def test_scattered_too_few(self):
        dem = DEM(gaussian_hills_field(size=30, seed=5))
        with pytest.raises(DatasetError):
            dem.to_scattered_trimesh(3)

    def test_elevations_sampled_from_field(self):
        field = gaussian_hills_field(size=30, seed=6)
        dem = DEM(field)
        mesh = dem.to_scattered_trimesh(100, seed=2)
        for x, y, z in mesh.vertices[:20]:
            assert z == pytest.approx(field.sample(x, y))


class TestDatasets:
    def test_roi_for_fraction(self, hills_dataset):
        bounds = hills_dataset.bounds()
        roi = hills_dataset.roi_for_fraction(
            0.1, bounds.center.x, bounds.center.y
        )
        assert roi.area == pytest.approx(bounds.area * 0.1, rel=0.01)
        assert bounds.contains_rect(roi)

    def test_roi_clamped_to_bounds(self, hills_dataset):
        bounds = hills_dataset.bounds()
        roi = hills_dataset.roi_for_fraction(0.2, bounds.min_x, bounds.min_y)
        assert bounds.contains_rect(roi)

    def test_roi_validation(self, hills_dataset):
        with pytest.raises(DatasetError):
            hills_dataset.roi_for_fraction(0.0, 0, 0)

    def test_scale_factor_env(self, monkeypatch):
        from repro.terrain.datasets import scale_factor

        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(DatasetError):
            scale_factor()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(DatasetError):
            scale_factor()

    def test_dataset_by_name_unknown(self):
        from repro.terrain.datasets import dataset_by_name

        with pytest.raises(DatasetError):
            dataset_by_name("atlantis")


class TestDEMPatchValidation:
    """apply_patch must reject malformed patches atomically: every
    error raises PatchError with actionable context and leaves the
    grid untouched (no half-applied patch)."""

    def _dem(self) -> DEM:
        return DEM(GridField(np.zeros((9, 9)), cell_size=2.0))

    def _assert_rejected(self, dem, region, heights, fragment):
        from repro.errors import PatchError

        before = dem.field.heights.copy()
        with pytest.raises(PatchError) as excinfo:
            dem.apply_patch(region, heights)
        assert fragment in str(excinfo.value)
        assert excinfo.value.context.get("region") is not None
        np.testing.assert_array_equal(dem.field.heights, before)

    def test_zero_area_region(self):
        from repro.geometry.primitives import Rect

        dem = self._dem()
        self._assert_rejected(
            dem, Rect(4.0, 4.0, 4.0, 8.0), np.zeros((3, 1)), "zero"
        )
        self._assert_rejected(
            dem, Rect(4.0, 8.0, 8.0, 8.0), np.zeros((1, 3)), "zero"
        )
        self._assert_rejected(
            dem, Rect(4.0, 4.0, 4.0, 4.0), np.zeros((1, 1)), "zero"
        )

    def test_region_outside_bounds(self):
        from repro.geometry.primitives import Rect

        dem = self._dem()
        self._assert_rejected(
            dem, Rect(12.0, 0.0, 20.0, 4.0), np.zeros((3, 5)), "outside"
        )

    def test_off_grid_region(self):
        from repro.geometry.primitives import Rect

        dem = self._dem()  # cell_size 2.0: odd coordinates are off-grid
        self._assert_rejected(
            dem, Rect(1.0, 0.0, 5.0, 4.0), np.zeros((3, 3)), "aligned"
        )
        self._assert_rejected(
            dem, Rect(0.0, 0.0, 4.0 + 1e-4, 4.0), np.zeros((3, 3)), "aligned"
        )

    def test_shape_mismatch(self):
        from repro.geometry.primitives import Rect

        dem = self._dem()
        self._assert_rejected(
            dem, Rect(0.0, 0.0, 4.0, 4.0), np.zeros((2, 2)), "window"
        )

    def test_non_numeric_and_non_finite(self):
        from repro.geometry.primitives import Rect

        dem = self._dem()
        self._assert_rejected(
            dem,
            Rect(0.0, 0.0, 2.0, 2.0),
            np.array([["a", "b"], ["c", "d"]]),
            "numeric",
        )
        bad = np.zeros((2, 2))
        bad[0, 1] = np.nan
        self._assert_rejected(
            dem, Rect(0.0, 0.0, 2.0, 2.0), bad, "finite"
        )

    def test_valid_patch_applies_and_echoes_region(self):
        from repro.geometry.primitives import Rect

        dem = self._dem()
        region = Rect(2.0, 4.0, 6.0, 8.0)
        echoed = dem.apply_patch(region, np.full((3, 3), 7.5))
        assert echoed is region
        np.testing.assert_array_equal(
            dem.field.heights[2:5, 1:4], np.full((3, 3), 7.5)
        )
        assert float(dem.field.heights.sum()) == pytest.approx(9 * 7.5)

    def test_tolerates_float_jitter_on_grid_points(self):
        from repro.geometry.primitives import Rect

        dem = self._dem()
        region = Rect(2.0 + 1e-12, 4.0, 6.0, 8.0 - 1e-12)
        dem.apply_patch(region, np.full((3, 3), 1.0))
        assert float(dem.field.heights.sum()) == pytest.approx(9.0)
