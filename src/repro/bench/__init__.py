"""The paper's evaluation: workloads, measurement, figures, caching.

``benchmarks/`` (pytest-benchmark) drives these for the paper's
figures and ablations, and :mod:`repro.bench.openloop` backs the
``bench-slo`` reproducer.  Regression gating is
not here: ``perf/`` is the one harness with a comparer.  The modules
can also be used directly, e.g.::

    from repro.bench import load_environment, Workload
    from repro.bench.figures import uniform_varying_roi

    env = load_environment("foothills", 20000)
    table = uniform_varying_roi(env, Workload(env.dataset),
                                [0.05, 0.10], "demo")
    print(table.to_text())
"""

from repro.bench.cache import ExperimentEnv, cache_root, load_environment
from repro.bench.reporting import SeriesTable
from repro.bench.runner import (
    UNIFORM_METHODS,
    VIEWDEP_METHODS,
    average_over,
    measure_uniform,
    measure_viewdep,
)
from repro.bench.workload import (
    ANGLE_SWEEP,
    DEFAULT_LOCATIONS,
    LOD_SWEEP,
    ROI_SWEEP_17M,
    ROI_SWEEP_2M,
    Workload,
)

__all__ = [
    "ANGLE_SWEEP",
    "DEFAULT_LOCATIONS",
    "ExperimentEnv",
    "LOD_SWEEP",
    "ROI_SWEEP_17M",
    "ROI_SWEEP_2M",
    "SeriesTable",
    "UNIFORM_METHODS",
    "VIEWDEP_METHODS",
    "Workload",
    "average_over",
    "cache_root",
    "load_environment",
    "measure_uniform",
    "measure_viewdep",
]
