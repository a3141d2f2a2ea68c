"""Tests for the command-line interface."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.core import DirectMeshStore, mesh_triangles_scalar
from repro.geometry.primitives import Rect
from repro.storage import Database

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def built_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "db"
    code = main(
        [
            "build",
            str(path),
            "--dataset",
            "foothills",
            "--points",
            "1500",
            "--seed",
            "9",
        ]
    )
    assert code == 0
    return path


class TestBuild:
    def test_build_output(self, built_db, capsys):
        main(["info", str(built_db)])
        out = capsys.readouterr().out
        assert "dm_nodes" in out
        assert "dm_rtree" in out
        assert "max LOD" in out

    def test_build_compressed(self, tmp_path, capsys):
        code = main(
            [
                "build",
                str(tmp_path / "db"),
                "--points",
                "1200",
                "--compress",
            ]
        )
        assert code == 0
        assert "data pages" in capsys.readouterr().out

    def test_build_from_dem(self, tmp_path, capsys):
        from repro.terrain import gaussian_hills_field, write_esri_ascii

        dem = tmp_path / "dem.asc"
        write_esri_ascii(dem, gaussian_hills_field(size=48, seed=2))
        code = main(
            ["build", str(tmp_path / "db"), "--dem", str(dem), "--points", "900"]
        )
        assert code == 0


class TestQuery:
    def test_query_full_extent(self, built_db, capsys):
        code = main(["query", str(built_db), "--lod", "2.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "points" in out
        assert "disk accesses" in out

    def test_query_with_roi_render_obj(self, built_db, tmp_path, capsys):
        obj = tmp_path / "out.obj"
        code = main(
            [
                "query",
                str(built_db),
                "--roi", "1000", "1000", "3000", "3000",
                "--lod", "1.0",
                "--render",
                "--obj", str(obj),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        # The export is the scalar oracle's mesh, byte for byte.
        database = Database(built_db)
        try:
            nodes = DirectMeshStore.open(database).uniform_query(
                Rect(1000, 1000, 3000, 3000), 1.0
            ).nodes
        finally:
            database.close()
        index = {nid: i + 1 for i, nid in enumerate(sorted(nodes))}
        lines = ["# Direct Mesh reproduction export"]
        lines += [
            f"v {rec.x:.6f} {rec.y:.6f} {rec.z:.6f}"
            for _, rec in sorted(nodes.items())
        ]
        lines += [
            f"f {index[a]} {index[b]} {index[c]}"
            for a, b, c in mesh_triangles_scalar(nodes)
        ]
        assert len(lines) > len(nodes) + 1
        assert obj.read_text(encoding="ascii") == "\n".join(lines) + "\n"

    def test_viewdep(self, built_db, capsys):
        code = main(
            [
                "viewdep",
                str(built_db),
                "--roi", "500", "500", "4000", "4000",
                "--emin", "0.2",
                "--emax", "8.0",
            ]
        )
        assert code == 0
        assert "multi-base plan" in capsys.readouterr().out

    def test_viewdep_custom_direction(self, built_db, capsys):
        code = main(
            [
                "viewdep",
                str(built_db),
                "--roi", "500", "500", "4000", "4000",
                "--emin", "0.2",
                "--emax", "5.0",
                "--direction", "1", "0",
            ]
        )
        assert code == 0


class TestBenchServe:
    def test_bench_serve_sweeps_workers(self, built_db, capsys):
        code = main(
            [
                "bench-serve",
                str(built_db),
                "--requests", "8",
                "--workers", "1,2",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "queries/s" in out
        assert "speedup" in out

    def test_bench_serve_mixed_with_metrics(self, built_db, capsys):
        code = main(
            [
                "bench-serve",
                str(built_db),
                "--requests", "6",
                "--workers", "2",
                "--mode", "mixed",
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.range_queries" in out
        assert "engine.query_s" in out

    def test_bench_serve_with_fault_injection(self, built_db, capsys):
        code = main(
            [
                "bench-serve",
                str(built_db),
                "--requests", "40",
                "--workers", "4",
                "--fault-rate", "0.05",
                "--retries", "6",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults: rate 0.05" in out
        assert "injected" in out
        # Fault columns present; the sweep completed despite errors.
        assert "ok" in out and "degraded" in out

    def test_bench_serve_with_deadline(self, built_db, capsys):
        code = main(
            [
                "bench-serve",
                str(built_db),
                "--requests", "8",
                "--workers", "2",
                "--deadline-ms", "30000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deadline 30000.0ms" in out


class TestErrors:
    def test_info_on_missing_dir(self, tmp_path, capsys):
        code = main(["info", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_query_on_empty_db(self, tmp_path, capsys):
        code = main(["query", str(tmp_path / "db"), "--lod", "1.0"])
        assert code == 1


class TestExplain:
    def test_explain_uniform(self, built_db, capsys):
        code = main(
            [
                "explain",
                str(built_db),
                "--roi", "1000", "1000", "3000", "3000",
                "--lod", "1.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "viewpoint-independent" in out
        assert "estimated total" in out

    def test_explain_viewdep_executed(self, built_db, capsys):
        code = main(
            [
                "explain",
                str(built_db),
                "--roi", "500", "500", "4000", "4000",
                "--emin", "0.1",
                "--emax", "9.0",
                "--execute",
            ]
        )
        assert code == 0
        assert "executed:" in capsys.readouterr().out

    def test_explain_needs_parameters(self, built_db, capsys):
        code = main(
            ["explain", str(built_db), "--roi", "0", "0", "10", "10"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFsck:
    def test_fsck_clean_store(self, built_db, capsys):
        assert main(["fsck", str(built_db)]) == 0
        assert "OK" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["info", str(built_db), "--verify"])
        assert exc.value.code == 2  # fsck is the one checker.

    def test_fsck_exits_1_on_a_tampered_run_record(self, tmp_path, capsys):
        from tests.test_verify_store import tamper_cluster_record

        path = tmp_path / "db"
        assert main(["build", str(path), "--points", "600"]) == 0
        with Database(path) as db:
            node_id = tamper_cluster_record(DirectMeshStore.open(db))
        capsys.readouterr()
        assert main(["fsck", str(path)]) == 1
        out = capsys.readouterr().out
        assert "PROBLEMS FOUND" in out
        assert f"dm: node {node_id}: cluster 0 copy differs from heap" in out


class TestPatchedDatabase:
    def test_query_reads_the_committed_epoch(self, tmp_path, capsys):
        """The CLI opens a patched database at its committed epoch,
        not at the epoch-0 segments beside it."""
        from repro.core.mutate import MutableStore
        from tests.test_mutate import (
            EXTENT,
            TILE_VERTS,
            aligned_region,
            make_dem,
            patch_heights,
        )

        path = tmp_path / "db"
        with Database(path) as db:
            ms = MutableStore.build(make_dem(4), db, tile_verts=TILE_VERTS)
            before = ms.store.uniform_query(EXTENT, 0.0)
            ms.apply_patch(
                aligned_region(0, 0, 8, 8), patch_heights(0, 0, 8, 8, seed=2)
            )
            after = ms.store.uniform_query(EXTENT, 0.0)

        def points(result):
            return sorted(
                f"v {rec.x:.6f} {rec.y:.6f} {rec.z:.6f}"
                for rec in result.nodes.values()
            )

        assert points(before) != points(after)
        obj = tmp_path / "out.obj"
        roi = [str(v) for v in EXTENT.as_tuple()]
        code = main(
            ["query", str(path), "--roi", *roi, "--lod", "0", "--obj", str(obj)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(
            f"{len(after)} points, {len(after.triangles())} triangles"
        )
        written = obj.read_text(encoding="ascii").splitlines()
        assert sorted(line for line in written if line.startswith("v ")) == (
            points(after)
        )


class TestPmInterchange:
    def test_build_save_and_reload_pm(self, tmp_path, capsys):
        pmz = tmp_path / "terrain.pmz"
        code = main(
            [
                "build",
                str(tmp_path / "db1"),
                "--points", "1200",
                "--save-pm", str(pmz),
            ]
        )
        assert code == 0
        assert pmz.exists()
        # Rebuild a second database from the saved mesh: no
        # re-simplification.
        code = main(
            ["build", str(tmp_path / "db2"), "--from-pm", str(pmz)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "built" in out


class TestDocumentedFlags:
    """Docs, CI and the verify recipe may only name things that exist
    — CLI flags the parser accepts, Makefile targets, benchmark,
    script, test, BENCH and workflow files: a deleted one must fail
    here, not in a reader's terminal."""

    SOURCES = (
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "docs/*.md",
        "Makefile",
        ".github/workflows/*.yml",
        ".claude/skills/verify/SKILL.md",
    )

    @staticmethod
    def _invocations(text):
        """``(subcommand, [--flag, ...])`` for every ``-m repro
        <subcommand> ...`` in ``text``: to the closing backtick when
        quoted inline, else to the end of the (continued) line."""
        text = text.replace("\\\n", " ")
        for match in re.finditer(r"-m repro\s+([a-z][a-z|-]*)", text):
            line_start = text.rfind("\n", 0, match.start()) + 1
            inline = text.count("`", line_start, match.start()) % 2 == 1
            stop = text.find("`" if inline else "\n", match.end())
            tail = text[match.end() : len(text) if stop < 0 else stop]
            command = re.split(r"[#;|>&]", tail)[0]
            flags = re.findall(r"(?<!\S)--[a-z][a-z0-9-]*", command)
            for subcommand in match.group(1).split("|"):
                yield subcommand, flags

    @classmethod
    def _texts(cls):
        """``(repo-relative name, text)`` of every scanned file."""
        for pattern in cls.SOURCES:
            for path in sorted(ROOT.glob(pattern)):
                yield str(path.relative_to(ROOT)), path.read_text()

    @staticmethod
    def _subparsers():
        """The ``repro`` subcommand parsers, by name."""
        return next(
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices

    def test_every_documented_flag_parses(self):
        subparsers = self._subparsers()
        seen = set()
        for name, text in self._texts():
            for subcommand, flags in self._invocations(text):
                where = f"{name}: repro {subcommand}"
                assert subcommand in subparsers, where
                options = subparsers[subcommand]._option_string_actions
                for flag in flags:
                    assert flag in options, f"{where} {flag}"
                    seen.add((subcommand, flag))
        # The scan found the invocations it exists for.
        assert ("bench-serve", "--workers") in seen
        assert ("fsck", "--repair") in seen

    def test_every_standalone_flag_belongs_to_a_tool(self):
        """An inline-code span that *starts* with ``--flag`` names an
        option out of context: some ``repro`` subcommand, the perf
        harness or reprolint must accept it, so a retired flag cannot
        survive in prose."""
        known = {
            flag
            for parser in self._subparsers().values()
            for flag in parser._option_string_actions
        }
        for tool in ("perf/run.py", "src/repro/analysis/__main__.py"):
            known.update(
                re.findall(r'"(--[a-z][a-z0-9-]*)"', (ROOT / tool).read_text())
            )
        seen = set()
        for name, text in self._texts():
            for span in re.findall(r"`(--[a-z][^`\n]*)`", text):
                for flag in re.findall(r"(?<!\S)--[a-z][a-z0-9-]*", span):
                    assert flag in known, f"{name}: `{span}`"
                    seen.add(flag)
        assert "--smoke" in seen

    def test_every_documented_make_target_exists(self):
        """``make <target>`` in code position: after a backtick, at
        the start of a line, as a workflow ``run:`` step, or as a
        recursive ``$(MAKE)``."""
        makefile = (ROOT / "Makefile").read_text()
        targets = set(re.findall(r"^([a-z][a-z-]*):", makefile, re.M))
        seen = set()
        for name, text in self._texts():
            for target in re.findall(
                r"(?:(?:^[ \t]*|`|run:[ \t]+)make|\$\(MAKE\))"
                r"[ \t]+([a-z][a-z-]*)",
                text,
                re.M,
            ):
                assert target in targets, f"{name}: make {target}"
                seen.add(target)
        assert {"perf-harness", "slo-smoke", "stress"} <= seen

    def test_every_documented_repo_path_exists(self):
        pattern = re.compile(
            r"(?<![\w/.-])("
            r"(?:benchmarks|scripts|tests)/[\w/]+\.py"
            r"|BENCH_\d+\.json"
            r"|\.github/workflows/[\w-]+\.yml"
            r")"
        )
        seen = set()
        for name, text in self._texts():
            for path in pattern.findall(text):
                assert (ROOT / path).exists(), f"{name}: {path}"
                seen.add(path)
        assert "benchmarks/test_slo_openloop.py" in seen
        assert "BENCH_6.json" in seen
