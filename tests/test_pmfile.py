"""Tests for the .pmz progressive-mesh interchange format."""

import zlib

import pytest

from repro.errors import DatasetError
from repro.mesh.pmfile import load_pm, save_pm
from repro.mesh.simplify import simplify_to_pm


class TestRoundTrip:
    def test_pm_round_trip(self, tmp_path, wavy_pm):
        path = tmp_path / "mesh.pmz"
        save_pm(path, wavy_pm)
        loaded, connections = load_pm(path)
        assert connections is None
        assert len(loaded.nodes) == len(wavy_pm.nodes)
        assert loaded.n_leaves == wavy_pm.n_leaves
        assert loaded.base_edges == wavy_pm.base_edges
        for a, b in zip(loaded.nodes, wavy_pm.nodes):
            assert (a.x, a.y, a.z) == (b.x, b.y, b.z)
            assert a.e == b.e
            assert a.e_high == b.e_high
            assert a.parent == b.parent
            assert a.wings() == b.wings()
        assert loaded.is_normalized
        # Footprints re-derived identically.
        assert (
            loaded.node(loaded.roots[0]).footprint.as_tuple()
            == wavy_pm.node(wavy_pm.roots[0]).footprint.as_tuple()
        )

    def test_with_connections(self, tmp_path, wavy_pm, wavy_connections):
        path = tmp_path / "mesh.pmz"
        save_pm(path, wavy_pm, wavy_connections)
        loaded, connections = load_pm(path)
        assert connections is not None
        assert connections == {
            k: sorted(v) for k, v in wavy_connections.items()
        }

    def test_cuts_identical_after_reload(self, tmp_path, wavy_pm):
        path = tmp_path / "mesh.pmz"
        save_pm(path, wavy_pm)
        loaded, _ = load_pm(path)
        for fraction in (0.0, 0.05, 0.3):
            lod = wavy_pm.max_lod() * fraction
            assert set(loaded.uniform_cut(lod)) == set(
                wavy_pm.uniform_cut(lod)
            )

    def test_loaded_pm_builds_a_store(self, tmp_path, wavy_pm,
                                      wavy_connections):
        from repro.core.direct_mesh import DirectMeshStore
        from repro.storage.database import Database
        from repro.storage.integrity import scrub_database

        path = tmp_path / "mesh.pmz"
        save_pm(path, wavy_pm, wavy_connections)
        loaded, connections = load_pm(path)
        with Database(tmp_path / "db") as db:
            store = DirectMeshStore.build(loaded, db, connections)
            assert scrub_database(db).ok

    def test_compression_effective(self, tmp_path, wavy_pm):
        path = tmp_path / "mesh.pmz"
        save_pm(path, wavy_pm)
        raw_size = len(wavy_pm.nodes) * 60 + len(wavy_pm.base_edges) * 8
        assert path.stat().st_size < raw_size


class TestValidation:
    def test_requires_normalised(self, tmp_path, wavy_mesh):
        raw = simplify_to_pm(wavy_mesh)
        with pytest.raises(DatasetError):
            save_pm(tmp_path / "x.pmz", raw)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pmz"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(DatasetError):
            load_pm(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.pmz"
        path.write_bytes(b"PM")
        with pytest.raises(DatasetError):
            load_pm(path)

    def test_corrupt_body(self, tmp_path, wavy_pm):
        path = tmp_path / "corrupt.pmz"
        save_pm(path, wavy_pm)
        data = bytearray(path.read_bytes())
        data[30] ^= 0xFF  # Inside the zlib stream.
        path.write_bytes(bytes(data))
        with pytest.raises(DatasetError):
            load_pm(path)

    def test_truncated_body(self, tmp_path, wavy_pm):
        path = tmp_path / "trunc.pmz"
        save_pm(path, wavy_pm)
        data = path.read_bytes()
        # Re-compress a shorter body under an intact header.
        header = data[:20]
        body = zlib.decompress(data[20:])
        path.write_bytes(header + zlib.compress(body[: len(body) // 4]))
        with pytest.raises(DatasetError):
            load_pm(path)
