"""Embedded time-series store: the framework extended to temporal data.

Part II's conclusion lists *time series* among the data models the log-only
framework should be extended to; sensors with flash cards (the tutorial's
low-end target hardware) produce exactly this workload. The design repeats
the Keys+Bloom recipe with temporal summaries:

* **Data log** — ``(timestamp, value)`` pairs appended in timestamp order
  (sensors emit monotonically), packed into flash pages;
* **Summary log** — one record per flushed data page carrying
  ``(first_ts, last_ts, count, sum, min, max)``.

A range aggregate scans the (small) summary log; pages fully inside the
range are answered from their summary without touching the data log, only
the (at most two) boundary pages are read — the temporal analogue of the
summary scan, benchmarked as E12.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import QueryError, StorageError
from repro.hardware.flash import BlockAllocator
from repro.hardware.ram import RamArena
from repro.storage import pager
from repro.storage.log import RecordLog

_POINT = struct.Struct("<qd")  # timestamp, value
_SUMMARY = struct.Struct("<qqIddd")  # first_ts, last_ts, count, sum, min, max

AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass
class RangeStats:
    """Page-read breakdown of one range query (for E12)."""

    summary_pages: int = 0
    data_pages: int = 0

    @property
    def total_pages(self) -> int:
        return self.summary_pages + self.data_pages


@dataclass
class _PageSummary:
    position: int
    first_ts: int
    last_ts: int
    count: int
    total: float
    minimum: float
    maximum: float


class TimeSeriesStore:
    """Append-only series with per-page temporal summaries."""

    def __init__(
        self,
        allocator: BlockAllocator,
        name: str = "series",
        ram: RamArena | None = None,
    ) -> None:
        self.data = RecordLog(allocator, name=f"{name}:points", ram=ram)
        self.summaries = RecordLog(allocator, name=f"{name}:summaries", ram=ram)
        self.data.on_page_flush = self._summarize_page
        self._last_ts: int | None = None
        self._count = 0
        self.last_range = RangeStats()

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def data_pages(self) -> int:
        return self.data.page_count

    def append(self, timestamp: int, value: float) -> None:
        """Record one point; timestamps must be strictly increasing."""
        if self._last_ts is not None and timestamp <= self._last_ts:
            raise StorageError(
                f"timestamp {timestamp} not increasing (last {self._last_ts})"
            )
        self.data.append(_POINT.pack(timestamp, float(value)))
        self._last_ts = timestamp
        self._count += 1

    def flush(self) -> None:
        self.data.flush()
        self.summaries.flush()

    def _summarize_page(self, position: int, records: list[bytes]) -> None:
        points = [_POINT.unpack(record) for record in records]
        values = [value for _, value in points]
        self.summaries.append(
            struct.pack("<I", position)
            + _SUMMARY.pack(
                points[0][0],
                points[-1][0],
                len(points),
                sum(values),
                min(values),
                max(values),
            )
        )

    # ------------------------------------------------------------------
    def _iter_summaries(self, stats: RangeStats):
        for page_records in self.summaries.scan_pages():
            stats.summary_pages += 1
            for record in page_records:
                yield self._decode_summary(record)
        for record in self.summaries.buffered_records():
            yield self._decode_summary(record)

    @staticmethod
    def _decode_summary(record: bytes) -> _PageSummary:
        (position,) = struct.unpack_from("<I", record, 0)
        first, last, count, total, minimum, maximum = _SUMMARY.unpack_from(
            record, 4
        )
        return _PageSummary(position, first, last, count, total, minimum, maximum)

    def _page_points(self, position: int, stats: RangeStats):
        stats.data_pages += 1
        for record in pager.unpack_records(self.data.pages.read_page(position)):
            yield _POINT.unpack(record)

    def _buffered_points(self):
        for record in self.data.buffered_records():
            yield _POINT.unpack(record)

    # ------------------------------------------------------------------
    def range_aggregate(self, t0: int, t1: int, aggregate: str) -> float | None:
        """Aggregate of values with ``t0 <= timestamp <= t1``.

        Interior pages are answered from summaries; only boundary pages are
        read. Returns ``None`` for an empty range (COUNT returns 0.0).
        """
        if aggregate not in AGGREGATES:
            raise QueryError(
                f"unsupported aggregate {aggregate!r}; one of {AGGREGATES}"
            )
        if t0 > t1:
            raise QueryError("range start must be <= range end")
        stats = RangeStats()
        # Published up front (and mutated in place) so a caller observing
        # mid-query — or after an exception — sees this query's reads, not
        # the previous query's completed breakdown.
        self.last_range = stats
        count = 0
        total = 0.0
        minimum: float | None = None
        maximum: float | None = None

        def fold(value: float) -> None:
            nonlocal count, total, minimum, maximum
            count += 1
            total += value
            minimum = value if minimum is None else min(minimum, value)
            maximum = value if maximum is None else max(maximum, value)

        for summary in self._iter_summaries(stats):
            if summary.last_ts < t0 or summary.first_ts > t1:
                continue
            if t0 <= summary.first_ts and summary.last_ts <= t1:
                count += summary.count
                total += summary.total
                minimum = (
                    summary.minimum
                    if minimum is None
                    else min(minimum, summary.minimum)
                )
                maximum = (
                    summary.maximum
                    if maximum is None
                    else max(maximum, summary.maximum)
                )
            else:  # boundary page: read the points
                for timestamp, value in self._page_points(
                    summary.position, stats
                ):
                    if t0 <= timestamp <= t1:
                        fold(value)
        for timestamp, value in self._buffered_points():
            if t0 <= timestamp <= t1:
                fold(value)

        if aggregate == "COUNT":
            return float(count)
        if count == 0:
            return None
        if aggregate == "SUM":
            return total
        if aggregate == "AVG":
            return total / count
        if aggregate == "MIN":
            return minimum
        return maximum

    def windows(
        self, t0: int, t1: int, width: int, aggregate: str = "AVG"
    ) -> list[tuple[int, float | None]]:
        """Tumbling-window aggregates over ``[t0, t1)`` (window start, agg).

        ``last_range`` afterwards holds the *whole sweep's* page reads.
        Each window is one :meth:`range_aggregate` call, which used to
        leave only the final window's breakdown behind — an E12 report
        over a 10-window sweep silently under-counted IO by ~10×.
        """
        if width <= 0:
            raise QueryError("window width must be positive")
        results = []
        sweep = RangeStats()
        start = t0
        while start < t1:
            end = min(start + width - 1, t1 - 1)
            results.append((start, self.range_aggregate(start, end, aggregate)))
            sweep.summary_pages += self.last_range.summary_pages
            sweep.data_pages += self.last_range.data_pages
            start += width
        self.last_range = sweep
        return results

    def scan_range(self, t0: int, t1: int):
        """Yield raw ``(timestamp, value)`` points inside the range."""
        stats = RangeStats()
        # Published before the first yield: a partially consumed generator
        # used to leave the *previous* query's stats in last_range, so the
        # pages it did read were attributed to nothing.
        self.last_range = stats
        for summary in self._iter_summaries(stats):
            if summary.last_ts < t0 or summary.first_ts > t1:
                continue
            for timestamp, value in self._page_points(summary.position, stats):
                if t0 <= timestamp <= t1:
                    yield timestamp, value
        for timestamp, value in self._buffered_points():
            if t0 <= timestamp <= t1:
                yield timestamp, value
