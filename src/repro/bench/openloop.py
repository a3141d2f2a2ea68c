"""Open-loop SLO load harness for the concurrent serving path.

Every earlier bench in this repo is *closed-loop*: a worker issues its
next query only when the previous one returns, so the offered rate
automatically sags to whatever the engine can absorb and queueing
collapse is structurally invisible.  A serving tier for "millions of
users" faces the opposite contract — arrivals do not care how busy the
server is.  This module generates that load:

* **Poisson arrivals** at a configured offered rate (exponential
  inter-arrival gaps, seeded), dispatched on schedule regardless of
  completions via :meth:`~repro.core.engine.QueryEngine.submit`;
* **zipfian ROI popularity** — a fixed pool of hotspot cubes sampled
  with rank``^-s`` weights, the skew real map traffic shows (everyone
  looks at the same mountain);
* **flight-path sessions** — correlated streams whose consecutive
  query cubes overlap, the progressive-transmission workload of
  ROADMAP item 2 in open-loop form.

The result is scored the way an SLO is written: latency is measured
from the *scheduled arrival* (so queue wait counts), reported at
p50/p95/p99/p999, and **goodput-under-SLO** counts only full-fidelity
successes inside the latency budget.  Degraded and shed responses are
tallied separately — with a :class:`~repro.core.admission.CostGovernor`
attached they are the mechanism that keeps the percentiles bounded;
without one the same offered rate shows textbook latency collapse.
Reports serialize to a schema-versioned JSON payload
(:data:`SLO_REPORT_SCHEMA`), the rows of ``BENCH_6.json``.  The
governed and ungoverned arms are compared inside one run
(``benchmarks/test_slo_openloop.py``), never against a file recorded
on another host.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import QueryError
from repro.geometry.primitives import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from concurrent.futures import Future

    from repro.core.direct_mesh import DirectMeshStore
    from repro.core.engine import EngineRequest, QueryEngine, QueryOutcome

__all__ = [
    "SLO_REPORT_SCHEMA",
    "OpenLoopConfig",
    "OpenLoopResult",
    "poisson_arrivals",
    "zipf_workload",
    "flight_path_workload",
    "build_workload",
    "run_open_loop",
    "measure_capacity",
    "suggest_budget",
    "validate_slo_report",
]

#: Version tag carried by every serialized report; bump on any
#: breaking change to the JSON layout so a reader can refuse an
#: incompatible shape instead of mis-reading it.
SLO_REPORT_SCHEMA = "repro.bench.slo/v1"

#: Workload modes understood by :func:`build_workload`.
WORKLOAD_MODES = ("zipf", "flightpath", "mixed")


@dataclass(frozen=True)
class OpenLoopConfig:
    """One open-loop run's knobs (generation side, not engine side).

    ``offered_rate`` is requests/second *offered*, independent of
    capacity — that independence is the whole point.  ``slo_ms`` is
    the latency budget goodput is scored against, measured from each
    request's scheduled arrival.
    """

    offered_rate: float
    n_requests: int
    mode: str = "zipf"
    seed: int = 0
    roi_frac: float = 0.15
    hotspots: int = 64
    zipf_s: float = 1.1
    sessions: int = 8
    tenants: int = 4
    slo_ms: float = 50.0
    #: Flight-path advance per request, as a fraction of the ROI side.
    #: 0.3 is the historical default; delta-session tests use small
    #: values (a walking camera) where consecutive cubes mostly overlap.
    step_frac: float = 0.3
    #: Amplitude of the flight path's LOD breathing around its 0.35
    #: base, as a fraction of the store's max LOD.  Must stay below
    #: 0.35 so the LOD never collapses to zero.
    lod_breathe: float = 0.25

    def validate(self) -> None:
        """Raise :class:`~repro.errors.QueryError` on bad knobs."""
        if self.offered_rate <= 0:
            raise QueryError(
                f"offered_rate must be > 0, got {self.offered_rate}"
            )
        if self.n_requests < 1:
            raise QueryError(
                f"n_requests must be >= 1, got {self.n_requests}"
            )
        if self.mode not in WORKLOAD_MODES:
            raise QueryError(
                f"mode must be one of {WORKLOAD_MODES}, got {self.mode!r}"
            )
        if not 0 < self.roi_frac <= 1:
            raise QueryError(
                f"roi_frac must be in (0, 1], got {self.roi_frac}"
            )
        for name, value in (
            ("hotspots", self.hotspots),
            ("sessions", self.sessions),
            ("tenants", self.tenants),
        ):
            if value < 1:
                raise QueryError(f"{name} must be >= 1, got {value}")
        if self.slo_ms <= 0:
            raise QueryError(f"slo_ms must be > 0, got {self.slo_ms}")
        if not 0 < self.step_frac <= 1:
            raise QueryError(
                f"step_frac must be in (0, 1], got {self.step_frac}"
            )
        if not 0 <= self.lod_breathe < 0.35:
            raise QueryError(
                f"lod_breathe must be in [0, 0.35), got {self.lod_breathe}"
            )


def poisson_arrivals(rate: float, n: int, seed: int = 0) -> list[float]:
    """``n`` scheduled arrival offsets (seconds) of a Poisson process.

    Deterministic for a given seed, so a run is replayable and the
    admission/no-admission comparison faces the identical arrival
    pattern.
    """
    rng = random.Random(seed)
    offsets: list[float] = []
    t = 0.0
    for _ in range(n):
        t += rng.expovariate(rate)
        offsets.append(t)
    return offsets


def _terrain_extent(store: "DirectMeshStore") -> Rect:
    """The rect queries are generated over: the cluster directory's."""
    extent = store.clusters.index.extent
    if extent is None:
        raise QueryError("store is empty: no data space to generate over")
    return extent.rect


def zipf_workload(
    store: "DirectMeshStore", config: OpenLoopConfig
) -> Iterator[tuple["EngineRequest", str]]:
    """Hotspot cubes sampled with zipfian popularity.

    Hotspot ``r`` (rank, 1-based) is drawn with probability
    proportional to ``r**-s``.  Each hotspot keeps a *fixed* ROI and
    LOD so popularity skew is real: the head of the distribution is
    exactly re-queriable (and therefore cacheable), the tail is cold.
    Tenants are assigned per-hotspot — a hot cube is a hot tenant,
    which is what per-tenant fair queueing must tame.
    """
    from repro.core.engine import UniformRequest

    config.validate()
    extent = _terrain_extent(store)
    rng = random.Random(config.seed)
    side = config.roi_frac * min(extent.width, extent.height)
    hotspots: list[tuple[UniformRequest, str]] = []
    for rank in range(config.hotspots):
        x0 = extent.min_x + rng.random() * max(0.0, extent.width - side)
        y0 = extent.min_y + rng.random() * max(0.0, extent.height - side)
        lod = (0.15 + 0.6 * rng.random()) * store.max_lod
        request = UniformRequest(Rect(x0, y0, x0 + side, y0 + side), lod)
        hotspots.append((request, f"tenant-{rank % config.tenants}"))
    weights = [1.0 / (rank**config.zipf_s) for rank in range(1, config.hotspots + 1)]
    while True:
        index = rng.choices(range(config.hotspots), weights=weights)[0]
        yield hotspots[index]


def flight_path_workload(
    store: "DirectMeshStore", config: OpenLoopConfig
) -> Iterator[tuple["EngineRequest", str]]:
    """Correlated sessions: each next cube overlaps the previous one.

    Every session flies a reflecting straight-line path over the
    terrain, advancing ``config.step_frac`` of the ROI side per
    request with slight heading jitter and a slowly breathing LOD
    (amplitude ``config.lod_breathe``) — consecutive cubes overlap by
    construction (the delta-friendly workload of ROADMAP item 2).
    Sessions are interleaved round-robin (request ``i`` belongs to
    session ``i % config.sessions``), each pinned to a tenant.
    """
    import math

    from repro.core.engine import UniformRequest

    config.validate()
    extent = _terrain_extent(store)
    rng = random.Random(config.seed + 1)
    side = config.roi_frac * min(extent.width, extent.height)
    span_x = max(1e-9, extent.width - side)
    span_y = max(1e-9, extent.height - side)
    step = config.step_frac * side
    sessions = []
    for index in range(config.sessions):
        sessions.append(
            {
                "x": extent.min_x + rng.random() * span_x,
                "y": extent.min_y + rng.random() * span_y,
                "heading": rng.random() * 2 * math.pi,
                "phase": rng.random() * 2 * math.pi,
                "tenant": f"tenant-{index % config.tenants}",
            }
        )
    tick = 0
    while True:
        session = sessions[tick % config.sessions]
        session["heading"] += (rng.random() - 0.5) * 0.3
        x = session["x"] + step * math.cos(session["heading"])
        y = session["y"] + step * math.sin(session["heading"])
        # Reflect at the borders so paths stay on the terrain.
        if not extent.min_x <= x <= extent.min_x + span_x:
            session["heading"] = math.pi - session["heading"]
            x = min(max(x, extent.min_x), extent.min_x + span_x)
        if not extent.min_y <= y <= extent.min_y + span_y:
            session["heading"] = -session["heading"]
            y = min(max(y, extent.min_y), extent.min_y + span_y)
        session["x"], session["y"] = x, y
        session["phase"] += 0.2
        lod = (
            0.35 + config.lod_breathe * math.sin(session["phase"])
        ) * store.max_lod
        request = UniformRequest(Rect(x, y, x + side, y + side), lod)
        yield request, session["tenant"]
        tick += 1


def build_workload(
    store: "DirectMeshStore", config: OpenLoopConfig
) -> Iterator[tuple["EngineRequest", str]]:
    """The request stream for ``config.mode`` (an endless iterator)."""
    if config.mode == "zipf":
        return zipf_workload(store, config)
    if config.mode == "flightpath":
        return flight_path_workload(store, config)

    def mixed() -> Iterator[tuple["EngineRequest", str]]:
        zipf = zipf_workload(store, config)
        flight = flight_path_workload(store, config)
        while True:
            yield next(zipf)
            yield next(flight)

    return mixed()


# -- measurement -------------------------------------------------------------


@dataclass
class OpenLoopResult:
    """One open-loop run's measurements.

    Latency percentiles are exact (computed over every request, not a
    sampled histogram); ``goodput_qps`` counts only full-fidelity
    successes inside the SLO, the number an operator actually sells.
    """

    config: OpenLoopConfig
    admission: bool
    wall_s: float
    latencies_s: list[float]
    n_ok: int
    n_errors: int
    n_degraded: int
    n_shed: int
    n_full_within_slo: int
    n_degraded_within_slo: int
    max_queue_depth: int
    dispatch_lag_s: float
    counters: dict[str, int]

    @property
    def n_requests(self) -> int:
        return len(self.latencies_s)

    @property
    def achieved_rate(self) -> float:
        """Completions per second of wall time."""
        if self.wall_s <= 0:
            return 0.0
        return self.n_requests / self.wall_s

    @property
    def goodput_qps(self) -> float:
        """Full-fidelity successes within SLO, per second."""
        if self.wall_s <= 0:
            return 0.0
        return self.n_full_within_slo / self.wall_s

    @property
    def degraded_goodput_qps(self) -> float:
        """Degraded (base-mesh) successes within SLO, per second."""
        if self.wall_s <= 0:
            return 0.0
        return self.n_degraded_within_slo / self.wall_s

    def percentile_ms(self, p: float) -> float:
        """Exact ``p``-th latency percentile in milliseconds."""
        if not self.latencies_s:
            return 0.0
        samples = sorted(self.latencies_s)
        rank = (p / 100.0) * (len(samples) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(samples) - 1)
        frac = rank - lo
        return 1000.0 * (samples[lo] * (1 - frac) + samples[hi] * frac)

    def to_json(self) -> dict[str, object]:
        """The schema-versioned report payload."""
        config = self.config
        return {
            "schema": SLO_REPORT_SCHEMA,
            "mode": config.mode,
            "seed": config.seed,
            "offered_rate": round(config.offered_rate, 3),
            "requests": self.n_requests,
            "slo_ms": config.slo_ms,
            "tenants": config.tenants,
            "admission": self.admission,
            "wall_s": round(self.wall_s, 4),
            "achieved_rate": round(self.achieved_rate, 2),
            "latency_ms": {
                "p50": round(self.percentile_ms(50), 3),
                "p95": round(self.percentile_ms(95), 3),
                "p99": round(self.percentile_ms(99), 3),
                "p999": round(self.percentile_ms(99.9), 3),
                "max": round(self.percentile_ms(100), 3),
            },
            "goodput_qps": round(self.goodput_qps, 2),
            "degraded_goodput_qps": round(self.degraded_goodput_qps, 2),
            "goodput_slo_fraction": round(
                self.n_full_within_slo / max(1, self.n_requests), 4
            ),
            "counts": {
                "ok": self.n_ok,
                "errors": self.n_errors,
                "degraded": self.n_degraded,
                "shed": self.n_shed,
                "admitted": self.counters.get("engine.admitted", 0),
                "overload_degraded": self.counters.get(
                    "engine.overload_degraded", 0
                ),
                "throttled": self.counters.get("slo.tenant_throttled", 0),
            },
            "max_queue_depth": self.max_queue_depth,
            "dispatch_lag_ms": round(1000.0 * self.dispatch_lag_s, 3),
        }

    def to_text(self) -> str:
        """A compact human-readable summary."""
        config = self.config
        return "\n".join(
            [
                f"open-loop {config.mode}: offered {config.offered_rate:.0f}"
                f" req/s, achieved {self.achieved_rate:.0f} req/s over "
                f"{self.wall_s:.2f}s "
                f"({'admission on' if self.admission else 'no admission'})",
                f"  latency ms  p50 {self.percentile_ms(50):.2f}  "
                f"p95 {self.percentile_ms(95):.2f}  "
                f"p99 {self.percentile_ms(99):.2f}  "
                f"p999 {self.percentile_ms(99.9):.2f}  "
                f"max {self.percentile_ms(100):.2f}",
                f"  goodput<=SLO({config.slo_ms:.0f}ms) "
                f"{self.goodput_qps:.1f} qps full fidelity "
                f"(+{self.degraded_goodput_qps:.1f} degraded)",
                f"  outcomes: ok {self.n_ok}  errors {self.n_errors}  "
                f"degraded {self.n_degraded}  shed {self.n_shed}",
                f"  max queue depth {self.max_queue_depth}, "
                f"dispatch lag {1000.0 * self.dispatch_lag_s:.2f}ms",
            ]
        )


def run_open_loop(
    engine: "QueryEngine", config: OpenLoopConfig
) -> OpenLoopResult:
    """Drive ``engine`` open-loop and score the run against the SLO.

    The dispatcher thread (the caller) releases each request at its
    scheduled Poisson arrival time via :meth:`QueryEngine.submit` and
    never waits for completions; latency is measured from the
    *scheduled* arrival, so time spent queueing — or time the
    dispatcher itself fell behind, reported as ``dispatch_lag_s`` —
    counts against the SLO exactly as a user would experience it.
    """
    config.validate()
    arrivals = poisson_arrivals(
        config.offered_rate, config.n_requests, config.seed
    )
    workload = build_workload(engine.store, config)
    lock = threading.Lock()
    done: list[tuple[float, float, "QueryOutcome | None"]] = []
    pending = 0
    max_pending = 0
    dispatch_lag = 0.0
    start = time.monotonic()

    def completion(
        due: float,
    ) -> "Callable[[Future[QueryOutcome]], None]":
        def callback(future: "Future[QueryOutcome]") -> None:
            finished = time.monotonic() - start
            try:
                outcome = future.result()
            except Exception:  # A bug in the task must not hang the run.
                outcome = None
            nonlocal pending
            with lock:
                pending -= 1
                done.append((due, finished, outcome))

        return callback

    for due in arrivals:
        request, tenant = next(workload)
        now = time.monotonic() - start
        if now < due:
            time.sleep(due - now)
        else:
            dispatch_lag = max(dispatch_lag, now - due)
        with lock:
            pending += 1
            if pending > max_pending:
                max_pending = pending
        future = engine.submit(request, tenant=tenant)
        future.add_done_callback(completion(due))

    while True:
        with lock:
            if len(done) >= config.n_requests:
                break
        time.sleep(0.002)
    wall_s = time.monotonic() - start

    slo_s = config.slo_ms / 1000.0
    latencies: list[float] = []
    n_ok = n_errors = n_degraded = n_shed = 0
    n_full_within = n_degraded_within = 0
    for due, finished, outcome in done:
        latency = max(0.0, finished - due)
        latencies.append(latency)
        if outcome is None or not outcome.ok:
            n_errors += 1
            continue
        n_ok += 1
        if outcome.shed:
            n_shed += 1
        if outcome.degraded:
            n_degraded += 1
            if latency <= slo_s:
                n_degraded_within += 1
        elif latency <= slo_s:
            n_full_within += 1
    return OpenLoopResult(
        config=config,
        admission=engine.governor is not None,
        wall_s=wall_s,
        latencies_s=latencies,
        n_ok=n_ok,
        n_errors=n_errors,
        n_degraded=n_degraded,
        n_shed=n_shed,
        n_full_within_slo=n_full_within,
        n_degraded_within_slo=n_degraded_within,
        max_queue_depth=max_pending,
        dispatch_lag_s=dispatch_lag,
        counters=engine.registry.counters(),
    )


def measure_capacity(
    store: "DirectMeshStore",
    config: OpenLoopConfig,
    workers: int,
    sample: int = 64,
    repeat: int = 2,
) -> float:
    """Closed-loop capacity (qps) of the engine on this workload.

    Replays a sample of the configured workload through the classic
    closed-loop ``measure_throughput`` — the number an open-loop run
    should be calibrated against (the acceptance runs use ``2x`` this).
    ``run_batch`` gathers over the per-request task ``submit`` queues,
    so repeated boxes in the sample share nothing here either: the
    capacity is that of the pipeline the open loop will drive.
    """
    from repro.bench.runner import measure_throughput

    requests = [
        request
        for request, _ in _take(build_workload(store, config), sample)
    ]
    return measure_throughput(store, requests, workers, repeat=repeat).qps


def suggest_budget(
    store: "DirectMeshStore",
    config: OpenLoopConfig,
    workers: int,
    sample: int = 64,
) -> float:
    """A reasonable :class:`~repro.core.admission.CostGovernor` budget.

    Samples the configured workload and prices it with the store's
    serving estimator (``ClusterIndex.estimate_pages``, predicted
    cluster-run pages — the currency ``QueryEngine.submit`` charges
    the governor in); the budget is twice what ``workers`` threads
    hold in flight at the mean cost — enough queue to keep workers
    busy, little enough that waiting time stays a small multiple of
    service time.
    """
    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    costs = [
        store.clusters.index.estimate_pages(request.query_box(store.e_cap))
        for request, _ in _take(build_workload(store, config), sample)
    ]
    mean = sum(costs) / len(costs)
    return 2.0 * workers * mean


def _take(
    iterator: Iterator[tuple["EngineRequest", str]], n: int
) -> list[tuple["EngineRequest", str]]:
    return [next(iterator) for _ in range(n)]


# -- report schema -----------------------------------------------------------

_REQUIRED_NUMBERS = (
    "offered_rate",
    "requests",
    "slo_ms",
    "wall_s",
    "achieved_rate",
    "goodput_qps",
    "degraded_goodput_qps",
    "goodput_slo_fraction",
    "max_queue_depth",
    "dispatch_lag_ms",
)
_REQUIRED_LATENCIES = ("p50", "p95", "p99", "p999", "max")
_REQUIRED_COUNTS = (
    "ok",
    "errors",
    "degraded",
    "shed",
    "admitted",
    "overload_degraded",
    "throttled",
)


def validate_slo_report(report: object) -> list[str]:
    """Schema-check one serialized run; returns problems ([] = valid).

    Deliberately dependency-free (no jsonschema in the image): the
    checks cover key presence, numeric types, and the version tag —
    enough for ``make slo-smoke`` to reject a silently mangled report.
    """
    problems: list[str] = []
    if not isinstance(report, dict):
        return [f"report must be an object, got {type(report).__name__}"]
    if report.get("schema") != SLO_REPORT_SCHEMA:
        problems.append(
            f"schema must be {SLO_REPORT_SCHEMA!r}, got "
            f"{report.get('schema')!r}"
        )
    if report.get("mode") not in WORKLOAD_MODES:
        problems.append(f"mode must be one of {WORKLOAD_MODES}")
    if not isinstance(report.get("admission"), bool):
        problems.append("admission must be a boolean")
    for key in _REQUIRED_NUMBERS:
        value = report.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{key} must be a number, got {value!r}")
    latency = report.get("latency_ms")
    if not isinstance(latency, dict):
        problems.append("latency_ms must be an object")
    else:
        for key in _REQUIRED_LATENCIES:
            value = latency.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"latency_ms.{key} must be a number")
    counts = report.get("counts")
    if not isinstance(counts, dict):
        problems.append("counts must be an object")
    else:
        for key in _REQUIRED_COUNTS:
            value = counts.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"counts.{key} must be an integer")
    return problems
