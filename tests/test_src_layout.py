"""``src/`` holds only what the reproduction runs.

Every public, undecorated, top-level function and class defined under
``src/`` must be named somewhere in the code that runs the
reproduction: ``src/`` itself, ``benchmarks/``, ``scripts/``, ``perf/``
or ``examples/``.  Package ``__init__`` re-exports do not count, and
neither do tests: a feature only its own tests call is deleted, and a
reference implementation tests compare against lives in
``tests/oracles``.  Decorated defs (reprolint's ``@register`` rules)
are reached through their decorator and count as used.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "scripts", "perf", "examples")

#: Names kept without a caller outside ``tests/``, each with its reason.
ALLOWED = {
    # The reader of the quarantine.json record `fsck --repair` writes,
    # kept beside its writer so one module owns that format.
    "load_quarantine": "storage/integrity.py",
    # reprolint's per-source entry point, the seam its fixture tests use.
    "check_source": "analysis/engine.py",
}


def _modules(directory: str):
    for path in sorted((ROOT / directory).rglob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _uses() -> Counter:
    uses: Counter = Counter()
    for directory in CALLER_DIRS:
        for _, tree in _modules(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    uses[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    uses[node.attr] += 1
                elif isinstance(node, ast.ImportFrom):
                    uses.update(alias.name for alias in node.names)
    return uses


def test_every_public_src_def_has_a_caller_outside_tests():
    uses = _uses()
    unused = [
        f"{path.relative_to(ROOT / 'src' / 'repro').as_posix()}:{node.name}"
        for path, tree in _modules("src")
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not node.decorator_list
        and uses[node.name] == 0
    ]
    allowed = {f"{where}:{name}" for name, where in ALLOWED.items()}
    orphans = sorted(set(unused) - allowed)
    assert not orphans, f"no caller outside tests/: {orphans}"
    stale = sorted(allowed - set(unused))
    assert not stale, f"allowed, but has a caller: {stale}"
