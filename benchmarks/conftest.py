"""Shared fixtures for the figure-regeneration benchmarks.

Dataset sizes default to 20k ("2M" analog) and 60k ("17M" analog)
points and scale with ``REPRO_SCALE``; the number of random query
locations defaults to the paper's 20 and can be lowered with
``REPRO_BENCH_LOCATIONS`` for quick runs.  Built environments are
cached under ``.data/`` so repeated benchmark runs skip construction.

Every benchmark prints its table (the paper figure's data) and writes
CSV into ``results/``.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.cache import load_environment
from repro.bench.workload import Workload
from repro.terrain.datasets import scale_factor

BENCH_POINTS_2M = int(
    int(os.environ.get("REPRO_BENCH_POINTS_2M", "20000")) * scale_factor()
)
BENCH_POINTS_17M = int(
    int(os.environ.get("REPRO_BENCH_POINTS_17M", "60000")) * scale_factor()
)
BENCH_LOCATIONS = int(os.environ.get("REPRO_BENCH_LOCATIONS", "20"))


@pytest.fixture(scope="session")
def env_2m():
    """The 2M-point-analog environment (foothills)."""
    env = load_environment("foothills", BENCH_POINTS_2M)
    yield env
    env.close()


@pytest.fixture(scope="session")
def env_17m():
    """The 17M-point-analog environment (crater)."""
    env = load_environment("crater", BENCH_POINTS_17M)
    yield env
    env.close()


@pytest.fixture(scope="session")
def workload_2m(env_2m):
    return Workload(env_2m.dataset, n_locations=BENCH_LOCATIONS)


@pytest.fixture(scope="session")
def workload_17m(env_17m):
    return Workload(env_17m.dataset, n_locations=BENCH_LOCATIONS)


_capture_manager = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    """Remember pytest's capture manager so emit() can bypass it.

    pytest imports this file as module ``conftest`` while the test
    modules import it as ``benchmarks.conftest`` — two distinct module
    objects — so the manager is stored on whichever of the two exist.
    """
    import sys as _sys

    manager = request.config.pluginmanager.getplugin("capturemanager")
    for name in ("conftest", "benchmarks.conftest"):
        module = _sys.modules.get(name)
        if module is not None:
            module._capture_manager = manager
    yield


def say(text: str) -> None:
    """Print with pytest capture disabled, so a plain
    ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
    records it (pytest captures at the file-descriptor level; writing
    to ``sys.__stdout__`` would not be enough)."""
    if _capture_manager is not None:
        with _capture_manager.global_and_fixture_disabled():
            print(text, flush=True)
    else:
        print(text, flush=True)


def emit(table):
    """Print a result table (see :func:`say`) and persist its CSV."""
    path = table.to_csv("results")
    say(f"\n{table.to_text()}\n  [written to {path}]")
