"""``src/`` holds only what the reproduction runs.

Every public, undecorated, top-level function and class defined under
``src/``, and every public method and property of a top-level class,
must be named somewhere in the code that runs the reproduction:
``src/`` itself, ``benchmarks/``, ``scripts/``, ``perf/`` or
``examples/``.  Package ``__init__`` re-exports do not count, and
neither do tests: a feature only its own tests call is deleted, and a
reference implementation tests compare against lives in
``tests/oracles``.  Decorated top-level defs (reprolint's
``@register`` rules) are reached through their decorator and count as
used.  ``perf/trace.py`` wraps methods by attribute name
(``Target(..., "resync")``), so its string constants count as uses.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "scripts", "perf", "examples")
#: The module that names the methods it wraps as strings.
TRACE = ROOT / "perf" / "trace.py"

#: Names kept without a caller outside ``tests/``, each with its reason.
ALLOWED = {
    "storage/integrity.py:load_quarantine": (
        "the reader of the quarantine.json record `fsck --repair` "
        "writes, kept beside its writer so one module owns that format"
    ),
    "analysis/engine.py:check_source": (
        "reprolint's per-source entry point, the seam its fixture tests use"
    ),
    "bench/runner.py:ThroughputReport.success_rate": (
        "tests read the share of requests a faulty serving run answered"
    ),
    "storage/buffer.py:BufferPool.resident_pages": (
        "tests observe which pages the pool holds after eviction and "
        "corruption"
    ),
    "core/wire.py:ClientMesh.frames_applied": (
        "tests observe how many frames a client spliced"
    ),
    "core/wire.py:ClientMesh.next_seq": (
        "tests observe the frame sequence number a client expects"
    ),
    "core/streaming.py:EngineSession.next_seq": (
        "tests observe the frame sequence number a session sends next"
    ),
    "mesh/progressive.py:ProgressiveMesh.cut_is_partition": (
        "tests check that every cut the code computes partitions the leaves"
    ),
    "mesh/trimesh.py:TriMesh.validate_topology": (
        "tests check the topology of the meshes the code produces"
    ),
}


def _modules(directory: str):
    for path in sorted((ROOT / directory).rglob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _uses() -> Counter:
    uses: Counter = Counter()
    for directory in CALLER_DIRS:
        for path, tree in _modules(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    uses[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    uses[node.attr] += 1
                elif isinstance(node, ast.ImportFrom):
                    uses.update(alias.name for alias in node.names)
                elif (
                    path == TRACE
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                ):
                    uses[node.value] += 1
    return uses


def _public_defs():
    """``(where, node)`` for each checked def: top-level functions and
    classes, and the methods and properties of top-level classes."""
    for path, tree in _modules("src"):
        where = path.relative_to(ROOT / "src" / "repro").as_posix()
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            if not node.decorator_list:
                yield f"{where}:{node.name}", node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not method.name.startswith("_"):
                        yield f"{where}:{node.name}.{method.name}", method


def test_every_public_src_def_has_a_caller_outside_tests():
    uses = _uses()
    unused = {name for name, node in _public_defs() if uses[node.name] == 0}
    orphans = sorted(unused - ALLOWED.keys())
    assert not orphans, f"no caller outside tests/: {orphans}"
    stale = sorted(ALLOWED.keys() - unused)
    assert not stale, f"allowed, but has a caller: {stale}"
