"""Tests for the :mod:`repro.errors` hierarchy.

Three contracts, each load-bearing for the concurrent engine:

* every public error derives from :class:`ReproError`, so callers can
  fence the whole library with one ``except`` clause;
* every error pickles round-trip with type, message, and context
  intact — outcomes cross thread (and, later, process) boundaries
  inside futures;
* context fields render into ``str(err)`` so operators see *which*
  page/node/segment failed without string parsing.

Plus the ``python -O`` regression: the modules whose asserts were
converted to :class:`InvariantError` must import (and keep their
invariant checks) with assertions stripped.
"""

from __future__ import annotations

import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.errors as errors_module
from repro.errors import InvariantError, ReproError, TransientIOError

REPO_ROOT = Path(__file__).resolve().parents[1]


def _public_error_classes() -> list[type[BaseException]]:
    classes = [
        obj
        for _, obj in inspect.getmembers(errors_module, inspect.isclass)
        if issubclass(obj, BaseException)
        and obj.__module__ == "repro.errors"
    ]
    assert classes, "no error classes found in repro.errors"
    return classes


@pytest.mark.parametrize(
    "cls", _public_error_classes(), ids=lambda c: c.__name__
)
def test_every_error_subclasses_repro_error(
    cls: type[BaseException],
) -> None:
    assert issubclass(cls, ReproError)
    assert issubclass(cls, Exception)


@pytest.mark.parametrize(
    "cls", _public_error_classes(), ids=lambda c: c.__name__
)
def test_every_error_pickles_round_trip(cls: type[BaseException]) -> None:
    original = cls("disk on fire", page=7, segment="base")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(original, protocol))
        assert type(clone) is cls
        assert clone.message == "disk on fire"
        assert clone.context == {"page": 7, "segment": "base"}
        assert str(clone) == str(original)


def test_context_fields_are_stored_and_rendered() -> None:
    err = InvariantError("node has no footprint", node=13, depth=2)
    assert err.message == "node has no footprint"
    assert err.context == {"node": 13, "depth": 2}
    # Context renders sorted, so messages are deterministic.
    assert str(err) == "node has no footprint [depth=2, node=13]"


def test_message_without_context_renders_plain() -> None:
    err = ReproError("plain failure")
    assert str(err) == "plain failure"
    assert err.context == {}


def test_contextless_and_messageless_forms() -> None:
    assert str(ReproError()) == ""
    assert str(ReproError(page=3)) == "[page=3]"


def test_catching_base_catches_subclass() -> None:
    with pytest.raises(ReproError):
        raise TransientIOError("torn read", page=1)


def test_errors_survive_python_O() -> None:
    """Converted invariants must not vanish under ``python -O``.

    Imports every module whose asserts became InvariantError raises and
    proves the checks still fire with assertions stripped.
    """
    script = (
        "import repro.cli, repro.core.engine\n"
        "import repro.index.quadtree, repro.storage.record\n"
        "import repro.baselines.pm_db, repro.mesh.progressive\n"
        "from repro.errors import InvariantError\n"
        "from repro.index.quadtree import LodQuadtree\n"
        "assert_stripped = not __debug__\n"
        "if not assert_stripped:\n"
        "    raise SystemExit('expected -O to strip asserts')\n"
        "tree = object.__new__(LodQuadtree)\n"
        "tree._leaf_cap, tree._space = 0, None\n"
        "try:\n"
        "    tree._build([(0.0, 0.0, 0.0, 0)], None)\n"
        "except InvariantError:\n"
        "    print('INVARIANT-OK')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert "INVARIANT-OK" in result.stdout
