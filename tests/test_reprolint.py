"""Self-tests for the reprolint rule engine.

The heart is the fixture corpus under ``tests/reprolint_fixtures/``:
each rule ships a known-bad file (minimized reproduction of the bug
class it polices, with ``# [R<n>]`` markers on the lines that must
fire) and a known-good file (the fixed form, which must stay silent).
The harness asserts the *exact* set of (rule, line) findings, so a
rule that goes quiet, fires on the wrong line, or grows a false
positive on the fixed idiom fails loudly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Violation,
    all_rules,
    check_paths,
    check_source,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "reprolint_fixtures"

_HEADER = re.compile(r"#\s*reprolint-fixture:\s*path=(?P<path>\S+)")
_EXPECT = re.compile(r"#\s*expect:\s*(?P<rule>[A-Z]\d+):(?P<line>\d+)")
_MARKER = re.compile(r"#\s*\[(?P<rule>[A-Z]\d+)\]")


def _load_fixture(path: Path) -> tuple[str, str, set[tuple[str, int]]]:
    """Return (virtual_path, source, expected {(rule, line)})."""
    source = path.read_text(encoding="utf-8")
    header = _HEADER.search(source)
    assert header is not None, f"{path.name} lacks a reprolint-fixture header"
    expected: set[tuple[str, int]] = set()
    for match in _EXPECT.finditer(source):
        expected.add((match.group("rule"), int(match.group("line"))))
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _MARKER.finditer(line):
            expected.add((match.group("rule"), lineno))
    return header.group("path"), source, expected


def _fixture_files() -> list[Path]:
    files = sorted(FIXTURES.glob("*.py"))
    assert files, "fixture corpus is missing"
    return files


@pytest.mark.parametrize(
    "fixture", _fixture_files(), ids=lambda p: p.stem
)
def test_fixture(fixture: Path) -> None:
    virtual_path, source, expected = _load_fixture(fixture)
    violations = check_source(source, virtual_path)
    actual = {(v.rule_id, v.line) for v in violations}
    rendered = "\n".join(v.render() for v in violations)
    assert actual == expected, (
        f"{fixture.name}: expected {sorted(expected)}, "
        f"got {sorted(actual)}\n{rendered}"
    )


def test_every_rule_has_bad_and_good_fixture() -> None:
    """Each registered rule is proven to fire AND to stay silent."""
    stems = {path.stem for path in _fixture_files()}
    fired: set[str] = set()
    for fixture in _fixture_files():
        _, _, expected = _load_fixture(fixture)
        fired |= {rule for rule, _ in expected}
    for rule in all_rules():
        assert any(
            stem.startswith(rule.id + "_") for stem in stems
        ), f"no fixture for {rule.id}"
        assert rule.id in fired or rule.id == "R0", (
            f"no fixture proves {rule.id} fires"
        )
    # R0 (pragma hygiene) is exercised by its dedicated fixture.
    assert "R0" in fired


def test_rule_ids_are_stable() -> None:
    assert [rule.id for rule in all_rules()] == [
        "R1",
        "R2",
        "R3",
        "R4",
        "R5",
        "R6",
        "R7",
        "R8",
        "R9",
        "R10",
        "R11",
        "R12",
    ]


# -- suppression grammar -----------------------------------------------------


def test_line_suppression_covers_same_line() -> None:
    source = (
        "def f():\n"
        "    assert True  # reprolint: disable=R4 test helper\n"
    )
    assert check_source(source, "src/repro/demo.py") == []


def test_standalone_suppression_covers_next_line() -> None:
    source = (
        "def f():\n"
        "    # reprolint: disable=R4 invariant is checked upstream\n"
        "    assert True\n"
    )
    assert check_source(source, "src/repro/demo.py") == []


def test_suppression_does_not_leak_to_other_lines() -> None:
    source = (
        "def f():\n"
        "    # reprolint: disable=R4 only the next line\n"
        "    assert True\n"
        "    assert False\n"
    )
    violations = check_source(source, "src/repro/demo.py")
    assert [(v.rule_id, v.line) for v in violations] == [("R4", 4)]


def test_file_wide_suppression() -> None:
    source = (
        "# reprolint: disable-file=R4 demo module asserts freely\n"
        "def f():\n"
        "    assert True\n"
        "def g():\n"
        "    assert False\n"
    )
    assert check_source(source, "src/repro/demo.py") == []


def test_suppression_without_reason_is_r0() -> None:
    source = "def f():\n    assert True  # reprolint: disable=R4\n"
    violations = check_source(source, "src/repro/demo.py")
    rule_ids = sorted(v.rule_id for v in violations)
    # The reason-less pragma is reported AND still suppresses nothing.
    assert rule_ids == ["R0", "R4"]


def test_suppression_of_unknown_rule_is_r0() -> None:
    source = "x = 1  # reprolint: disable=R42 mystery rule\n"
    violations = check_source(source, "src/repro/demo.py")
    assert [v.rule_id for v in violations] == ["R0"]


def test_malformed_pragma_is_r0() -> None:
    source = "x = 1  # reprolint: disable R4 forgot the equals\n"
    violations = check_source(source, "src/repro/demo.py")
    assert [v.rule_id for v in violations] == ["R0"]


def test_multi_rule_suppression() -> None:
    """One pragma naming two rules silences both: in a query module an
    asserted unclamped box breaks R2 and R4 at once."""
    path = "src/repro/core/query.py"
    line = "    assert Box3.from_rect(roi, lod, lod)\n"
    bare = check_source("def f(roi, lod):\n" + line, path)
    assert sorted(v.rule_id for v in bare) == ["R2", "R4"]
    source = (
        "def f(roi, lod):\n"
        "    # reprolint: disable=R2,R4 oracle check in a demo\n"
        + line
    )
    assert check_source(source, path) == []


@pytest.mark.parametrize("module", ["cost_model", "explain"])
def test_r2_covers_the_modules_that_price_probes(module: str) -> None:
    """The cost model and EXPLAIN price the boxes the processors
    probe, so an unclamped cube there is an R2 finding."""
    source = (
        "def cube_for(plane):\n"
        "    return Box3.from_rect(plane.roi, plane.e_min, plane.e_max)\n"
    )
    violations = check_source(source, f"src/repro/core/{module}.py")
    assert [v.rule_id for v in violations] == ["R2"]


def test_parse_error_is_e0() -> None:
    violations = check_source("def broken(:\n", "src/repro/demo.py")
    assert len(violations) == 1
    assert violations[0].rule_id == "E0"


def test_violation_render_format() -> None:
    violation = Violation("src/x.py", 3, 4, "R1", "boom")
    assert violation.render() == "src/x.py:3:4: R1 boom"


# -- the repository itself must be clean -------------------------------------


def test_repo_is_reprolint_clean() -> None:
    violations = check_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
        root=REPO_ROOT,
    )
    rendered = "\n".join(v.render() for v in violations)
    assert violations == [], f"reprolint violations on HEAD:\n{rendered}"


# -- CLI ---------------------------------------------------------------------


def _run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_flags_bad_file(tmp_path: Path) -> None:
    bad = tmp_path / "src" / "repro" / "demo.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f():\n    assert True\n", encoding="utf-8")
    result = _run_cli(str(bad))
    assert result.returncode == 1
    assert "R4" in result.stdout
    assert "1 violation" in result.stderr


def test_cli_clean_file_exits_zero(tmp_path: Path) -> None:
    good = tmp_path / "clean.py"
    good.write_text("x = 1\n", encoding="utf-8")
    result = _run_cli(str(good))
    assert result.returncode == 0
    assert result.stdout == ""


def test_cli_list_rules() -> None:
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in (
        "R1",
        "R2",
        "R3",
        "R4",
        "R5",
        "R6",
        "R7",
        "R8",
        "R9",
        "R10",
        "R11",
        "R12",
    ):
        assert rule_id in result.stdout


def test_cli_json_and_sarif_reports(tmp_path: Path) -> None:
    bad = tmp_path / "src" / "repro" / "demo.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f():\n    assert True\n", encoding="utf-8")
    json_out = tmp_path / "findings.json"
    sarif_out = tmp_path / "findings.sarif"
    result = _run_cli(
        str(bad), "--json", str(json_out), "--sarif", str(sarif_out)
    )
    assert result.returncode == 1

    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    assert [f["rule"] for f in payload["violations"]] == ["R4"]
    assert payload["violations"][0]["line"] == 2
    assert payload["counts"] == {"R4": 1}

    sarif = json.loads(sarif_out.read_text(encoding="utf-8"))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    assert [r["ruleId"] for r in run["results"]] == ["R4"]
    region = run["results"][0]["locations"][0]["physicalLocation"]
    assert region["region"]["startLine"] == 2


def test_cli_lock_graph_dump(tmp_path: Path) -> None:
    source = (
        "import threading\n"
        "\n"
        "\n"
        "class Outer:\n"
        "    def __init__(self, inner: 'Inner') -> None:\n"
        "        self._lock = threading.Lock()\n"
        "        self._inner = inner\n"
        "\n"
        "    def poke(self) -> None:\n"
        "        with self._lock:\n"
        "            self._inner.poke()\n"
        "\n"
        "\n"
        "class Inner:\n"
        "    def __init__(self) -> None:\n"
        "        self._lock = threading.Lock()\n"
        "\n"
        "    def poke(self) -> None:\n"
        "        with self._lock:\n"
        "            pass\n"
    )
    module = tmp_path / "src" / "repro" / "demo.py"
    module.parent.mkdir(parents=True)
    module.write_text(source, encoding="utf-8")
    out = tmp_path / "lockgraph.json"
    result = _run_cli(str(module), "--lock-graph", str(out))
    assert result.returncode == 0
    graph = json.loads(out.read_text(encoding="utf-8"))
    edges = [(e["src"], e["dst"]) for e in graph["edges"]]
    assert ("Outer._lock", "Inner._lock") in edges
