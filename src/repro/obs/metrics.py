"""Thread-safe counters and histograms for the serving path.

The storage layer already counts page traffic globally
(:class:`~repro.storage.stats.DiskStats`); this module is the layer
above it: named :class:`Counter` and :class:`Histogram` instruments
collected in a :class:`MetricsRegistry`, safe to update from the query
engine's worker threads.  The engine records R*-tree nodes visited,
pages read, cache hit-rates and per-stage wall time here;
:class:`~repro.storage.trace.IOTracer` and the benchmark runner can
plug into the same registry so one report covers a whole run.

Instruments are cheap (one lock acquisition per update) and never
raise from the hot path; reading them returns immutable snapshots.
"""

from __future__ import annotations

import math
import random
import threading

from repro.obs.lockwatch import watched_lock
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "METRIC_FAMILIES",
    "METRIC_NAMES",
    "METRIC_PREFIXES",
    "MetricsRegistry",
]

#: Samples retained per histogram for percentile estimation: a uniform
#: reservoir over every observation so far.  Count/total/min/max stay
#: exact; percentiles are computed over the reservoir.
DEFAULT_MAX_SAMPLES = 8192

#: Every metric name the library emits, declared up front.  A typo'd
#: name does not fail at runtime — :class:`MetricsRegistry` happily
#: creates instruments on first use, silently forking a series — so
#: the declaration is enforced *statically*: ``reprolint`` rule R5
#: (:mod:`repro.analysis`) flags any literal instrument name that is
#: not listed here.  Add the name to this set in the same change that
#: introduces the instrument.
METRIC_NAMES: frozenset[str] = frozenset(
    {
        # -- query engine --------------------------------------------------
        "engine.requests",
        "engine.batches",
        "engine.range_queries",
        "engine.retries",
        "engine.errors",
        "engine.deadline_misses",
        "engine.degraded",
        "engine.corruptions",
        "engine.epoch",
        # -- admission control (CostGovernor) ------------------------------
        "engine.admitted",
        "engine.shed",
        "engine.overload_degraded",
        "engine.index_s",
        "engine.fetch_s",
        "engine.filter_s",
        "engine.query_s",
        "engine.pages_read",
        "engine.cache_hit_rate",
        "engine.clusters_touched",
        # -- semantic result cache -----------------------------------------
        "cache.hits",
        "cache.misses",
        "cache.subsume_hits",
        "cache.insertions",
        "cache.evictions",
        "cache.bytes",
        "cache.entries",
        "cache.region_invalidations",
        # -- benchmark harness ---------------------------------------------
        "bench.cold_query_s",
        "bench.batch_s",
        # -- open-loop SLO serving -----------------------------------------
        "slo.estimated_cost",
        "slo.inflight_cost",
        "slo.queue_depth",
        "slo.tenant_throttled",
        # -- progressive-transmission sessions -----------------------------
        "session.updates",
        "session.errors",
        "session.resyncs",
        "session.patch_resyncs",
        "session.added",
        "session.removed",
        "session.bytes_wire",
        "session.frame_bytes",
        "session.churn",
        # -- cluster fast path ----------------------------------------------
        "cluster.decode_hits",
        "cluster.decode_misses",
        "cluster.bytes",
        "cluster.entries",
        "cluster.evictions",
        "cluster.region_invalidations",
        # -- storage integrity ---------------------------------------------
        "storage.crc_failures",
        "storage.cluster_reads",
        "fsck.pages_scanned",
        "fsck.pages_corrupt",
        "fsck.pages_repaired",
        "fsck.pages_quarantined",
        "fsck.orphan_segments",
        "fsck.store_problems",
    }
)

#: Prefixes for metric families whose full name is built at runtime
#: (e.g. per-segment I/O counters).  A dynamically formatted name must
#: start with one of these; rule R5 checks the constant head of
#: f-strings against this set.
METRIC_PREFIXES: frozenset[str] = frozenset(
    {
        "io.reads.",
    }
)

#: The metric *families* (the segment before the first dot) names may
#: belong to.  Every entry of :data:`METRIC_NAMES` and
#: :data:`METRIC_PREFIXES` must use one of these heads and the
#: ``family.metric_name`` grammar — enforced statically by
#: ``reprolint`` rule R8, so a registry addition cannot smuggle in a
#: misspelt family (``slo`` vs ``sol``) that would dodge dashboards
#: grouping by family.
METRIC_FAMILIES: frozenset[str] = frozenset(
    {
        "bench",
        "cache",
        "cluster",
        "engine",
        "fsck",
        "io",
        "session",
        "slo",
        "storage",
    }
)


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = watched_lock("Counter._lock")
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Gauge:
    """A thread-safe point-in-time value (can go up and down).

    Counters are monotone; a gauge tracks a level — the semantic
    cache's resident bytes, a pool's occupancy.  ``set`` overwrites,
    ``add`` adjusts by a (possibly negative) delta.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = watched_lock("Gauge._lock")
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (may be negative)."""
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        """Current level."""
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value})"


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable summary of a histogram's observations.

    Tail percentiles (``p99``/``p999``) are estimated over the
    reservoir like ``p50``/``p95``; with fewer than ~1000
    observations ``p999`` collapses toward ``max``, which is the
    honest answer for a thin tail.
    """

    count: int
    total: float
    min: float
    max: float
    p50: float
    p95: float
    p99: float = 0.0
    p999: float = 0.0

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count


class Histogram:
    """A thread-safe distribution of float observations.

    Keeps exact count/total/min/max forever and, for percentile
    estimation, a uniform random sample of up to ``max_samples`` of
    all observations so far (reservoir sampling, Vitter's Algorithm
    L): instead of one random draw per observation it draws the
    position of the *next* observation to keep, so the steady-state
    ``observe`` pays one integer comparison for the reservoir.
    """

    __slots__ = ("_count", "_lock", "_max", "_max_samples", "_min",
                 "_next", "_rng", "_samples", "_total", "_w")

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self._lock = watched_lock("Histogram._lock")
        self._max_samples = max_samples
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._samples: list[float] = []
        #: The 1-based observation the reservoir takes next.
        self._next = 1
        #: Algorithm L's running weight: the largest of ``max_samples``
        #: uniform keys a retained sample would hold.
        self._w = 1.0
        # Own generator with a fixed seed: reproducible runs, and no
        # contention on (or perturbation of) the global one.
        self._rng = random.Random(max_samples)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._count == self._next:
                self._keep_locked(value)

    def _keep_locked(self, value: float) -> None:
        """Take ``value`` into the reservoir and draw ``_next``."""
        size = self._max_samples
        rng = self._rng
        if len(self._samples) < size:
            self._samples.append(value)
            if len(self._samples) < size:
                self._next += 1
                return
        else:
            self._samples[rng.randrange(size)] = value
        # 1 - random() lies in (0, 1]: the logarithms are finite.
        self._w *= math.exp(math.log(1.0 - rng.random()) / size)
        skip = 0
        if self._w < 1.0:
            skip = int(
                math.log(1.0 - rng.random()) / math.log1p(-self._w)
            )
        self._next += skip + 1

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @staticmethod
    def _percentile_of(samples: list[float], p: float) -> float:
        """The ``p``-th percentile of an already-sorted sample list."""
        if not samples:
            return 0.0
        rank = (p / 100.0) * (len(samples) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(samples) - 1)
        frac = rank - lo
        return samples[lo] * (1 - frac) + samples[hi] * frac

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) over the reservoir."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            samples = sorted(self._samples)
        return self._percentile_of(samples, p)

    def snapshot(self) -> HistogramSnapshot:
        """An immutable summary (zeroes when empty).

        Count, total, min, max, *and* the percentile samples are all
        read in one critical section, so a snapshot taken while other
        threads observe never mixes two states (e.g. a count that
        includes an observation whose sample the percentiles miss).
        """
        with self._lock:
            if self._count == 0:
                return HistogramSnapshot(0, 0.0, 0.0, 0.0, 0.0, 0.0)
            count, total = self._count, self._total
            lo, hi = self._min, self._max
            samples = sorted(self._samples)
        return HistogramSnapshot(
            count,
            total,
            lo,
            hi,
            self._percentile_of(samples, 50),
            self._percentile_of(samples, 95),
            self._percentile_of(samples, 99),
            self._percentile_of(samples, 99.9),
        )


#: A *source*: a callable returning ``{declared name: value}``, read
#: when the registry is (see :meth:`MetricsRegistry.add_source`).
Source = Callable[[], Mapping[str, float]]


class MetricsRegistry:
    """A named collection of counters and histograms.

    Instruments are created on first use and shared afterwards, so
    independent components can contribute to the same metric by name::

        registry = MetricsRegistry()
        registry.counter("engine.requests").inc()
        with registry.timer("engine.query_s"):
            run_query()
        print(registry.report())

    A number some other object already owns (a cache's hit count, a
    governor's in-flight cost) is not copied into an instrument: its
    owner is registered as a *source* (:meth:`add_source`) and read
    when the registry is.
    """

    def __init__(self) -> None:
        self._lock = watched_lock("MetricsRegistry._lock")
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # ``(is gauge, names, read)`` per source, oldest first.
        self._sources: list[tuple[bool, frozenset[str], Source]] = []

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = Counter()
                self._counters[name] = counter
            return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = Gauge()
                self._gauges[name] = gauge
            return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram()
                self._histograms[name] = histogram
            return histogram

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block into the histogram ``name`` (in seconds)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name).observe(time.perf_counter() - start)

    def add_source(self, read: Source, gauges: bool = False) -> None:
        """Expose numbers their owner keeps, read at exposition time.

        ``read`` returns ``{name: value}``; it is called once here —
        every name must be declared in :data:`METRIC_NAMES`, or
        ``ValueError`` — and again by each :meth:`counters` (or, with
        ``gauges=True``, :meth:`gauges`) and :meth:`report`, outside
        the registry's lock.  Nothing is copied in between, so the
        registry shows the owner's value, and two registries reading
        one shared owner both show its totals.  A source replaces any
        earlier one that declared one of its names (the last engine
        built on a registry is the one it reports), and shadows an
        instrument of the same name: read sourced names through
        ``counters()`` / ``gauges()``, not ``counter(name).value``.
        """
        names = frozenset(read())
        undeclared = sorted(names - METRIC_NAMES)
        if undeclared:
            raise ValueError(
                f"metric source returns undeclared names {undeclared}; "
                "add them to repro.obs.metrics.METRIC_NAMES"
            )
        with self._lock:
            self._sources = [
                source for source in self._sources if not source[1] & names
            ] + [(gauges, names, read)]

    # -- reading -----------------------------------------------------------

    def _sourced(self, gauges: bool) -> dict[str, float]:
        with self._lock:
            reads = [s[2] for s in self._sources if s[0] == gauges]
        values: dict[str, float] = {}
        for read in reads:
            values.update(read())
        return values

    def counters(self) -> dict[str, int]:
        """Name -> value for every counter, sourced ones included."""
        with self._lock:
            items = list(self._counters.items())
        values = {name: counter.value for name, counter in items}
        values.update((k, int(v)) for k, v in self._sourced(False).items())
        return values

    def gauges(self) -> dict[str, float]:
        """Name -> value for every gauge, sourced ones included."""
        with self._lock:
            items = list(self._gauges.items())
        values = {name: gauge.value for name, gauge in items}
        values.update((k, float(v)) for k, v in self._sourced(True).items())
        return values

    def histograms(self) -> dict[str, HistogramSnapshot]:
        """Name -> snapshot for every histogram."""
        with self._lock:
            items = list(self._histograms.items())
        return {name: hist.snapshot() for name, hist in items}

    def report(self) -> str:
        """A human-readable dump of every instrument."""
        lines = ["metrics", "-------"]
        for name, value in sorted(self.counters().items()):
            lines.append(f"{name:<28} {value}")
        for name, value in sorted(self.gauges().items()):
            lines.append(f"{name:<28} {value:.6g}")
        for name, snap in sorted(self.histograms().items()):
            lines.append(
                f"{name:<28} n={snap.count} mean={snap.mean:.6g} "
                f"p50={snap.p50:.6g} p95={snap.p95:.6g} max={snap.max:.6g}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every instrument (names are re-created on next use).
        Sources stay: their owners hold the state, not the registry."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
