"""The observability layer: counters, histograms, registry."""
# reprolint: disable-file=R5 registry unit tests use synthetic metric names

import bisect
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    DEFAULT_MAX_SAMPLES,
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_basic_increment(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_concurrent_increments_are_not_lost(self):
        counter = Counter()
        n_threads, per_thread = 8, 5000

        def work():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread


class TestHistogram:
    def test_summary_statistics(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.count == 4
        assert snap.total == 10.0
        assert snap.mean == 2.5
        assert snap.min == 1.0
        assert snap.max == 4.0

    def test_percentiles_interpolate(self):
        hist = Histogram()
        for value in range(101):
            hist.observe(float(value))
        assert hist.percentile(0) == 0.0
        assert hist.percentile(50) == 50.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(95) == pytest.approx(95.0)

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_empty_snapshot_is_zeroed(self):
        snap = Histogram().snapshot()
        assert snap.count == 0
        assert snap.mean == 0.0
        assert snap.p95 == 0.0

    def test_sample_cap_keeps_exact_aggregates(self):
        hist = Histogram(max_samples=10)
        for value in range(100):
            hist.observe(float(value))
        snap = hist.snapshot()
        assert snap.count == 100  # Aggregates are exact past the cap...
        assert snap.total == sum(range(100))
        assert (snap.min, snap.max) == (0.0, 99.0)
        # ...percentiles come from a 10-sample reservoir.
        assert 0.0 <= snap.p50 <= snap.p95 <= 99.0

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(DEFAULT_MAX_SAMPLES, 6 * DEFAULT_MAX_SAMPLES),
    )
    def test_percentiles_cover_the_whole_stream(self, seed, tail):
        """The distribution shifts once the reservoir is full: every
        reported percentile must still sit within 0.03 in rank of the
        exact quantile of the *whole* stream (first-N retention would
        report the warm-up's)."""
        rng = random.Random(seed)
        stream = [rng.random() for _ in range(DEFAULT_MAX_SAMPLES)]
        stream += [10.0 + rng.expovariate(1.0) for _ in range(tail)]
        hist = Histogram()
        for value in stream:
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.count == len(stream)
        assert snap.total == pytest.approx(sum(stream))
        assert (snap.min, snap.max) == (min(stream), max(stream))
        ordered = sorted(stream)
        for p, estimate in (
            (0.50, snap.p50),
            (0.95, snap.p95),
            (0.99, snap.p99),
            (0.999, snap.p999),
        ):
            lo = bisect.bisect_left(ordered, estimate) / len(ordered)
            hi = bisect.bisect_right(ordered, estimate) / len(ordered)
            assert lo - 0.03 <= p <= hi + 0.03, (p, estimate, lo, hi)

    def test_concurrent_observations(self):
        hist = Histogram()
        n_threads, per_thread = 4, 2000

        def work():
            for i in range(per_thread):
                hist.observe(float(i))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == n_threads * per_thread

    def test_snapshot_is_internally_consistent_under_writers(self):
        """snapshot() must read aggregates and percentile samples in
        one critical section: a snapshot taken mid-update may lag, but
        it can never mix states (count without its sample, a p95
        outside [min, max], a mean outside the observed range)."""
        hist = Histogram()
        stop = threading.Event()

        def writer(base: float) -> None:
            value = base
            while not stop.is_set():
                hist.observe(value)
                value += 1.0

        threads = [
            threading.Thread(target=writer, args=(float(i * 1000),))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                snap = hist.snapshot()
                if snap.count == 0:
                    continue
                assert snap.min <= snap.p50 <= snap.p95 <= snap.max
                assert snap.min <= snap.mean <= snap.max
        finally:
            stop.set()
            for t in threads:
                t.join()


class TestRegistry:
    def test_instruments_are_shared_by_name(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc()
        assert registry.counters()["a"] == 2
        registry.histogram("h").observe(1.0)
        assert registry.histograms()["h"].count == 1

    def test_timer_records_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        snap = registry.histograms()["t"]
        assert snap.count == 1
        assert 0 <= snap.max < 1.0

    def test_timer_records_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.timer("t"):
                raise RuntimeError("boom")
        assert registry.histograms()["t"].count == 1

    def test_report_mentions_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.histogram("latency_s").observe(0.25)
        report = registry.report()
        assert "requests" in report
        assert "3" in report
        assert "latency_s" in report

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.counters() == {}


class TestSources:
    """Numbers another object owns are read from it, not copied in."""

    def test_source_is_read_at_exposition_time(self):
        registry = MetricsRegistry()
        owner = {"hits": 0, "bytes": 0}
        registry.add_source(lambda: {"cache.hits": owner["hits"]})
        registry.add_source(
            lambda: {"cache.bytes": owner["bytes"]}, gauges=True
        )
        assert registry.counters() == {"cache.hits": 0}
        owner.update(hits=7, bytes=4096)
        assert registry.counters() == {"cache.hits": 7}
        assert registry.gauges() == {"cache.bytes": 4096.0}
        report = registry.report()
        assert "cache.hits" in report and "4096" in report

    def test_undeclared_source_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="cache.hitz"):
            registry.add_source(lambda: {"cache.hitz": 1})
        assert registry.counters() == {}

    def test_later_source_replaces_an_earlier_one_by_name(self):
        """One registry handed to a second engine reports the second."""
        registry = MetricsRegistry()
        registry.add_source(lambda: {"cache.hits": 1, "cache.misses": 1})
        registry.add_source(lambda: {"cache.hits": 5, "cache.misses": 6})
        assert registry.counters() == {"cache.hits": 5, "cache.misses": 6}

    def test_source_shadows_an_instrument_and_survives_reset(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(99)
        registry.add_source(lambda: {"cache.hits": 2})
        assert registry.counters()["cache.hits"] == 2
        registry.reset()
        assert registry.counters() == {"cache.hits": 2}
