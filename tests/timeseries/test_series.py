"""Tests for the embedded time-series store and downsampling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError, StorageError
from repro.hardware.flash import BlockAllocator, FlashGeometry, NandFlash
from repro.timeseries.downsample import downsample
from repro.timeseries.series import TimeSeriesStore


def make_allocator(page_size=128, blocks=2048) -> BlockAllocator:
    flash = NandFlash(
        FlashGeometry(page_size=page_size, pages_per_block=8, num_blocks=blocks)
    )
    return BlockAllocator(flash)


def load_series(points) -> TimeSeriesStore:
    store = TimeSeriesStore(make_allocator())
    for timestamp, value in points:
        store.append(timestamp, value)
    store.flush()
    return store


def naive(points, t0, t1, aggregate):
    inside = [value for ts, value in points if t0 <= ts <= t1]
    if aggregate == "COUNT":
        return float(len(inside))
    if not inside:
        return None
    if aggregate == "SUM":
        return sum(inside)
    if aggregate == "AVG":
        return sum(inside) / len(inside)
    if aggregate == "MIN":
        return min(inside)
    return max(inside)


SERIES = [(ts, float((ts * 13) % 97)) for ts in range(0, 1000, 2)]


class TestAppend:
    def test_timestamps_must_increase(self):
        store = TimeSeriesStore(make_allocator())
        store.append(10, 1.0)
        with pytest.raises(StorageError, match="not increasing"):
            store.append(10, 2.0)

    def test_count(self):
        store = load_series(SERIES)
        assert store.count == len(SERIES)


class TestRangeAggregate:
    @pytest.mark.parametrize("aggregate", ["COUNT", "SUM", "AVG", "MIN", "MAX"])
    def test_matches_naive(self, aggregate):
        store = load_series(SERIES)
        for t0, t1 in [(0, 998), (100, 500), (101, 103), (7, 7)]:
            assert store.range_aggregate(t0, t1, aggregate) == pytest.approx(
                naive(SERIES, t0, t1, aggregate)
            )

    def test_empty_range(self):
        store = load_series(SERIES)
        assert store.range_aggregate(1, 1, "COUNT") == 0.0  # odd ts absent
        assert store.range_aggregate(1, 1, "SUM") is None

    def test_unflushed_points_visible(self):
        store = TimeSeriesStore(make_allocator())
        store.append(5, 2.0)
        assert store.range_aggregate(0, 10, "SUM") == 2.0

    def test_invalid_inputs(self):
        store = load_series(SERIES)
        with pytest.raises(QueryError):
            store.range_aggregate(10, 5, "SUM")
        with pytest.raises(QueryError):
            store.range_aggregate(0, 10, "MEDIAN")

    def test_interior_pages_answered_from_summaries(self):
        """The E12 claim: only boundary data pages are read."""
        store = load_series(SERIES)
        store.range_aggregate(100, 900, "SUM")
        stats = store.last_range
        assert stats.data_pages <= 2  # at most the two boundary pages
        assert stats.summary_pages >= 1
        # A raw scan of the same range touches far more data pages.
        list(store.scan_range(100, 900))
        assert store.last_range.data_pages > 10

    def test_whole_series_zero_data_pages(self):
        store = load_series(SERIES)
        total = store.range_aggregate(-10**6, 10**6, "SUM")
        assert total == pytest.approx(sum(v for _, v in SERIES))
        assert store.last_range.data_pages == 0  # summaries suffice

    def test_queries_across_the_flush_boundary(self):
        """The open end of a window: flushed pages + the RAM tail.

        Points appended since the last flush have no summary record yet;
        a range straddling the flush boundary must still count every one
        of them (pinned against a naive fold, all five aggregates).
        """
        store = TimeSeriesStore(make_allocator())
        points = [(ts, float((ts * 7) % 31)) for ts in range(0, 120)]
        for ts, value in points[:80]:
            store.append(ts, value)
        store.flush()
        for ts, value in points[80:]:  # the unflushed RAM tail
            store.append(ts, value)
        assert store.data.buffered_records()  # the tail really is in RAM
        for t0, t1 in [(60, 119), (79, 80), (0, 200), (85, 110)]:
            for aggregate in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                assert store.range_aggregate(
                    t0, t1, aggregate
                ) == pytest.approx(naive(points, t0, t1, aggregate))

    def test_last_range_reset_even_when_nothing_is_read(self):
        """Regression: a query over an empty region must not leave the
        previous query's page counts in ``last_range``."""
        store = load_series(SERIES)
        store.range_aggregate(100, 900, "SUM")
        assert store.last_range.total_pages > 0
        store.range_aggregate(10**6, 10**6 + 1, "SUM")
        # The new query read summary pages only to rule pages out.
        assert store.last_range.data_pages == 0


class TestWindows:
    def test_tumbling_windows(self):
        store = load_series(SERIES)
        windows = store.windows(0, 400, width=100, aggregate="COUNT")
        assert [start for start, _ in windows] == [0, 100, 200, 300]
        assert all(count == 50.0 for _, count in windows)

    def test_window_validation(self):
        store = load_series(SERIES)
        with pytest.raises(QueryError):
            store.windows(0, 100, width=0)

    def test_sweep_accounts_every_window(self):
        """Regression: ``last_range`` after ``windows()`` is the whole
        sweep's IO, not the final window's (a 10-window E12 report used to
        under-count page reads by ~10×)."""
        store = load_series(SERIES)
        per_window = []
        start = 0
        while start < 1000:
            store.range_aggregate(start, start + 99, "SUM")
            per_window.append(store.last_range.total_pages)
            start += 100
        store.windows(0, 1000, width=100, aggregate="SUM")
        assert store.last_range.total_pages == sum(per_window)
        assert store.last_range.total_pages > max(per_window)


class TestScanRange:
    def test_points_in_order(self):
        store = load_series(SERIES)
        points = list(store.scan_range(200, 300))
        assert points == [(ts, v) for ts, v in SERIES if 200 <= ts <= 300]

    def test_partial_consumption_reports_its_own_stats(self):
        """Regression: a half-consumed scan used to leave the *previous*
        query's stats in ``last_range``, attributing its reads to nothing."""
        store = load_series(SERIES)
        store.range_aggregate(0, 998, "SUM")
        previous = store.last_range
        scan = store.scan_range(200, 300)
        next(scan)
        assert store.last_range is not previous
        assert store.last_range.data_pages >= 1  # the page it just read
        scan.close()


class TestDownsample:
    def test_bucket_averages(self):
        store = load_series(SERIES)
        coarse = downsample(store, make_allocator(), bucket_width=100, aggregate="AVG")
        points = list(coarse.scan_range(0, 10**6))
        assert len(points) == 10
        for start, value in points:
            assert value == pytest.approx(naive(SERIES, start, start + 99, "AVG"))

    def test_count_buckets(self):
        store = load_series(SERIES)
        coarse = downsample(store, make_allocator(), 250, aggregate="COUNT")
        assert [v for _, v in coarse.scan_range(0, 10**6)] == [125.0] * 4

    def test_validation(self):
        store = load_series(SERIES)
        with pytest.raises(QueryError):
            downsample(store, make_allocator(), 0)
        with pytest.raises(QueryError):
            downsample(store, make_allocator(), 10, aggregate="MODE")

    def test_space_shrinks(self):
        store = load_series(SERIES)
        coarse = downsample(store, make_allocator(), 100)
        assert coarse.count < store.count / 10


class TestProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        st.integers(0, 300),
        st.integers(0, 300),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_sum_matches_naive(self, values, a, b):
        t0, t1 = min(a, b), max(a, b)
        points = [(i, v) for i, v in enumerate(values)]
        store = load_series(points)
        assert store.range_aggregate(t0, t1, "SUM") == pytest.approx(
            naive(points, t0, t1, "SUM")
        )
