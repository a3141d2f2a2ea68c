"""Measurement driver: run each method cold and count disk accesses.

The protocol per measurement mirrors the paper: flush the buffer,
reset the counters, run the query, read the physical-read count from
the statistics report.  Each (x value) is averaged over the workload's
random locations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.bench.cache import ExperimentEnv
from repro.geometry.plane import QueryPlane
from repro.geometry.primitives import Rect
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.direct_mesh import DirectMeshStore
    from repro.core.engine import EngineRequest

__all__ = [
    "UNIFORM_METHODS",
    "VIEWDEP_METHODS",
    "ThroughputReport",
    "measure_uniform",
    "measure_viewdep",
    "measure_throughput",
    "average_over",
]

#: Method display order for viewpoint-independent experiments
#: (paper Figure 6; SB is the only DM variant applicable).
UNIFORM_METHODS = ["DM", "PM", "HDoV"]

#: Method display order for viewpoint-dependent experiments (Figure 8).
VIEWDEP_METHODS = ["DM-SB", "DM-MB", "PM", "HDoV"]


def _cold(
    env: ExperimentEnv,
    run: Callable[[], object],
    registry: MetricsRegistry | None = None,
) -> int:
    """Run ``run`` against a flushed buffer; return disk accesses.

    With a ``registry``, the cold wall time also lands in the
    ``bench.cold_query_s`` histogram.
    """
    env.database.begin_measured_query()
    if registry is None:
        run()
    else:
        with registry.timer("bench.cold_query_s"):
            run()
    return env.database.disk_accesses


def measure_uniform(
    env: ExperimentEnv, roi: Rect, lod: float
) -> dict[str, float]:
    """Disk accesses of one viewpoint-independent query, per method."""
    return {
        "DM": _cold(env, lambda: env.dm.uniform_query(roi, lod)),
        "PM": _cold(env, lambda: env.pm_store.uniform_query(roi, lod)),
        "HDoV": _cold(env, lambda: env.hdov.uniform_query(roi, lod)),
    }


def measure_viewdep(
    env: ExperimentEnv, plane: QueryPlane
) -> dict[str, float]:
    """Disk accesses of one viewpoint-dependent query, per method."""
    return {
        "DM-SB": _cold(env, lambda: env.dm.single_base_query(plane)),
        "DM-MB": _cold(env, lambda: env.dm.multi_base_query(plane)),
        "PM": _cold(env, lambda: env.pm_store.viewdep_query(plane)),
        "HDoV": _cold(env, lambda: env.hdov.viewdep_query(plane)),
    }


@dataclass(frozen=True)
class ThroughputReport:
    """One serving measurement: a request batch at a worker count.

    ``n_ok`` / ``n_errors`` / ``n_degraded`` summarise per-request
    outcomes under fault injection and deadlines; on a fair-weather
    run ``n_ok == n_requests``.  ``n_cache_hits`` /
    ``n_cache_misses`` count semantic-cache activity during the
    measurement (both zero when no cache was attached).
    """

    workers: int
    n_requests: int
    wall_s: float
    registry: MetricsRegistry
    n_ok: int = 0
    n_errors: int = 0
    n_degraded: int = 0
    n_cache_hits: int = 0
    n_cache_misses: int = 0

    @property
    def qps(self) -> float:
        """Completed requests per second of wall time."""
        if self.wall_s <= 0:
            return 0.0
        return self.n_requests / self.wall_s

    @property
    def success_rate(self) -> float:
        """Fraction of requests that produced a result (1.0 if empty)."""
        if self.n_requests == 0:
            return 1.0
        return self.n_ok / self.n_requests

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits per lookup during the run (0.0 without a cache)."""
        lookups = self.n_cache_hits + self.n_cache_misses
        if lookups == 0:
            return 0.0
        return self.n_cache_hits / lookups


def measure_throughput(
    store: "DirectMeshStore",
    requests: Sequence["EngineRequest"],
    workers: int,
    registry: MetricsRegistry | None = None,
    retries: int = 2,
    deadline_s: float | None = None,
    cache=None,
    repeat: int = 1,
    epoch: int = 0,
) -> ThroughputReport:
    """Serve ``requests`` through a :class:`QueryEngine` — submit
    each, then gather the futures — and time it.

    Every run starts from a cold buffer (the paper's protocol), so
    runs at different worker counts face identical cache state.
    ``retries`` and ``deadline_s`` are handed to the engine unchanged
    (see :class:`~repro.core.engine.QueryEngine`), as are ``cache``
    (a :class:`~repro.core.cache.SemanticCache`) and the store's
    committed ``epoch``.
    ``repeat`` replays the batch that many times inside the timing
    window — the repeated/overlapping workload a warm semantic cache
    is built for; the report counts every replayed request.
    """
    from repro.core.engine import QueryEngine

    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if registry is None:
        registry = MetricsRegistry()
    store.database.flush()
    # Hits are read from the cache that counts them.
    before = cache.stats() if cache is not None else None
    outcomes = []
    with QueryEngine(
        store,
        workers=workers,
        registry=registry,
        retries=retries,
        deadline_s=deadline_s,
        cache=cache,
        epoch=epoch,
    ) as engine:
        started = time.perf_counter()
        for _ in range(repeat):
            futures = [engine.submit(request) for request in requests]
            outcomes.extend(future.result() for future in futures)
        wall_s = time.perf_counter() - started
    registry.histogram("bench.batch_s").observe(wall_s)
    n_ok = sum(1 for o in outcomes if o.ok)
    n_degraded = sum(1 for o in outcomes if o.degraded)
    n_hits = n_misses = 0
    if before is not None:
        after = cache.stats()
        n_hits = after.hits - before.hits
        n_misses = after.misses - before.misses
    return ThroughputReport(
        workers,
        len(outcomes),
        wall_s,
        registry,
        n_ok=n_ok,
        n_errors=len(outcomes) - n_ok,
        n_degraded=n_degraded,
        n_cache_hits=n_hits,
        n_cache_misses=n_misses,
    )


def average_over(
    centers: list[tuple[float, float]],
    measure: Callable[[tuple[float, float]], dict[str, float]],
) -> dict[str, float]:
    """Run ``measure`` at every centre and average each method."""
    totals: dict[str, float] = {}
    for center in centers:
        for method, value in measure(center).items():
            totals[method] = totals.get(method, 0.0) + value
    return {m: v / len(centers) for m, v in totals.items()}
