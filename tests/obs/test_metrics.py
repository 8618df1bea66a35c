"""MetricsRegistry: first-class instruments + legacy *Stats pull adapters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import CacheStats
from repro.hardware.flash import FlashStats
from repro.net.metrics import NetMetrics
from repro.obs.metrics import (
    PERCENTILE_GROWTH,
    Counter,
    Gauge,
    MetricsRegistry,
    PercentileHistogram,
    global_registry,
)


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_max(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.max(7)
        assert gauge.value == 10
        gauge.max(12)
        assert gauge.value == 12

    def test_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_includes_instruments(self):
        registry = MetricsRegistry()
        registry.counter("queries").inc(3)
        registry.gauge("ram").set(64)
        registry.percentiles("lat").observe(2)
        snapshot = registry.snapshot()
        assert snapshot["queries"] == 3
        assert snapshot["ram"] == 64
        assert snapshot["lat"]["count"] == 1


class TestStatsAdapters:
    def test_flash_stats_adapter_reads_live_values(self):
        stats = FlashStats()
        registry = MetricsRegistry()
        registry.register_stats("flash", stats)
        assert registry.snapshot()["flash.page_reads"] == 0
        stats.page_reads += 7  # pull adapter: later mutations are visible
        assert registry.snapshot()["flash.page_reads"] == 7

    def test_cache_stats_adapter(self):
        stats = CacheStats(hits=3, misses=1)
        registry = MetricsRegistry()
        registry.register_stats("cache", stats)
        snapshot = registry.snapshot()
        assert snapshot["cache.hits"] == 3
        assert snapshot["cache.misses"] == 1

    def test_net_metrics_nested_and_counter_fields(self):
        metrics = NetMetrics()
        metrics.on_send("Claim", 120)
        metrics.on_deliver("n1", "agg", 120, latency_ms=4.0)
        metrics.on_retry_exhausted("contribution")
        registry = MetricsRegistry()
        registry.register_stats("net", metrics)
        snapshot = registry.snapshot()
        assert snapshot["net.frames_sent"] == 1
        assert snapshot["net.dropped_after_retry"] == 1
        assert snapshot["net.retry_exhausted_by.contribution"] == 1
        # Nested CommStats dataclass flattens, tuple edge keys become a->b.
        assert snapshot["net.comm.bytes"] == 120
        assert snapshot["net.comm.by_edge.n1->agg"] == 120

    def test_callable_source_and_unregister(self):
        registry = MetricsRegistry()
        registry.register_stats("ram", lambda: {"in_use": 42})
        assert registry.snapshot()["ram.in_use"] == 42
        registry.unregister("ram")
        assert registry.snapshot() == {}

    def test_non_numeric_fields_skipped(self):
        registry = MetricsRegistry()
        registry.register_stats("x", lambda: {"n": 1, "junk": object()})
        snapshot = registry.snapshot()
        assert snapshot["x.n"] == 1
        assert "x.junk" not in snapshot


class TestPercentileHistogram:
    def test_quantiles_within_relative_error(self):
        import random

        histogram = PercentileHistogram()
        rng = random.Random(7)
        values = [rng.lognormvariate(3.0, 1.2) for _ in range(20_000)]
        for value in values:
            histogram.observe(value)
        values.sort()
        for q in (0.5, 0.99, 0.999):
            exact = values[min(len(values) - 1, int(q * len(values)))]
            estimate = histogram.quantile(q)
            # Log buckets of growth g bound the relative error by g.
            assert exact / PERCENTILE_GROWTH <= estimate
            assert estimate <= exact * PERCENTILE_GROWTH

    def test_ordering_and_bounds(self):
        histogram = PercentileHistogram()
        for value in (1.0, 5.0, 9.0, 120.0):
            histogram.observe(value)
        assert histogram.min == 1.0
        assert histogram.max == 120.0
        assert histogram.p50 <= histogram.p99 <= histogram.p999
        assert histogram.p999 <= histogram.max

    def test_zero_and_negative_values_land_in_zero_bucket(self):
        histogram = PercentileHistogram()
        histogram.observe(0.0)
        histogram.observe(-3.0)
        assert histogram.count == 2
        assert histogram.quantile(0.5) == 0.0

    def test_empty_quantile_is_zero(self):
        assert PercentileHistogram().quantile(0.99) == 0.0

    def test_merge_equals_combined_stream(self):
        import random

        rng = random.Random(11)
        a, b, combined = (
            PercentileHistogram(),
            PercentileHistogram(),
            PercentileHistogram(),
        )
        for _ in range(5000):
            value = rng.expovariate(0.01)
            (a if rng.random() < 0.5 else b).observe(value)
            combined.observe(value)
        a.merge(b)
        assert a.count == combined.count
        assert a.buckets == combined.buckets
        # Quantiles depend only on bucket counts, so they match exactly;
        # the running sum differs by float association order.
        for q in (0.5, 0.99, 0.999):
            assert a.quantile(q) == combined.quantile(q)
        assert a.min == combined.min and a.max == combined.max
        assert a.total == pytest.approx(combined.total)

    def test_single_observation_pins_every_quantile(self):
        histogram = PercentileHistogram()
        histogram.observe(42.0)
        assert histogram.count == 1
        assert histogram.min == histogram.max == 42.0
        # One sample: every quantile is that sample's bucket.
        assert histogram.p50 == histogram.p99 == histogram.p999
        assert 42.0 / PERCENTILE_GROWTH <= histogram.p50
        assert histogram.p50 <= 42.0 * PERCENTILE_GROWTH
        summary = histogram.summary()
        assert summary["count"] == 1

    def test_merge_of_disjoint_bucket_ranges(self):
        low, high = PercentileHistogram(), PercentileHistogram()
        low_values = [0.001 * (i + 1) for i in range(50)]
        high_values = [1e6 * (i + 1) for i in range(50)]
        for value in low_values:
            low.observe(value)
        for value in high_values:
            high.observe(value)
        assert not (set(low.buckets) & set(high.buckets))  # truly disjoint
        low.merge(high)
        assert low.count == 100
        assert low.min == 0.001
        assert low.max == 5e7
        # The median straddles the gap; the tail lives in the high range.
        assert low_values[-1] <= low.quantile(0.5) or low.quantile(
            0.5
        ) >= low_values[-1] / PERCENTILE_GROWTH
        assert low.p99 >= 1e6 / PERCENTILE_GROWTH

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            max_size=60,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_pooled_observation(self, left, right):
        merged, pooled = PercentileHistogram(), PercentileHistogram()
        other = PercentileHistogram()
        for value in left:
            merged.observe(value)
            pooled.observe(value)
        for value in right:
            other.observe(value)
            pooled.observe(value)
        merged.merge(other)
        assert merged.count == pooled.count
        assert merged.buckets == pooled.buckets
        assert merged.min == pooled.min and merged.max == pooled.max
        for q in (0.5, 0.99, 0.999, 1.0):
            assert merged.quantile(q) == pooled.quantile(q)

    def test_registry_snapshot_includes_summary(self):
        registry = MetricsRegistry()
        percentiles = registry.percentiles("svc.latency")
        for value in (1.0, 2.0, 100.0):
            percentiles.observe(value)
        snapshot = registry.snapshot()
        assert snapshot["svc.latency"]["count"] == 3
        assert snapshot["svc.latency"]["p50"] <= snapshot["svc.latency"]["p99"]
        # The running summary service.top reads for batch sizes.
        assert snapshot["svc.latency"]["min"] == 1.0
        assert snapshot["svc.latency"]["max"] == 100.0
        assert snapshot["svc.latency"]["mean"] == pytest.approx(103 / 3)

    def test_registry_rejects_kind_mismatch(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.percentiles("x")


def test_global_registry_is_a_singleton():
    assert global_registry() is global_registry()
