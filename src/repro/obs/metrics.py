"""Process-wide metrics registry: one snapshot for every ``*Stats`` object.

The repo grew more than a dozen ad-hoc stats dataclasses —
:class:`~repro.hardware.flash.FlashStats`,
:class:`~repro.hardware.cache.CacheStats`,
:class:`~repro.relational.query.ExecutionStats`,
:class:`~repro.search.engine.SearchStats`,
:class:`~repro.net.metrics.NetMetrics`,
:class:`~repro.net.metrics.CommStats`, the CPU cycle counters … — each
readable only by whoever holds the owning object. The
:class:`MetricsRegistry` rolls them up without breaking any of them: legacy
stats objects register through :meth:`MetricsRegistry.register_stats`, a
*pull* adapter that walks numeric dataclass fields (recursing into nested
stats dataclasses, flattening ``dict``/``Counter`` fields) at snapshot
time. Code that wants first-class instruments uses
:meth:`counter`/:meth:`gauge`/:meth:`percentiles` directly.

``registry.snapshot()`` returns one flat JSON-ready dict — the object the
bench harness embeds into ``BENCH_<id>.json`` under ``meta["profile"]``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (levels, high-waters)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        """Keep the running maximum (high-water convenience)."""
        if value > self.value:
            self.value = value


#: Per-bucket growth factor of :class:`PercentileHistogram`. Fixed for the
#: whole process so every instance shares one bucket layout and any two can
#: merge; 2^(1/16) bounds the relative quantile error at ~4.4%.
PERCENTILE_GROWTH = 2.0 ** (1.0 / 16.0)
_LOG_GROWTH = math.log(PERCENTILE_GROWTH)
#: Bucket index collecting all observations <= 0 (latencies never are, but
#: an estimator must not crash on them).
_ZERO_BUCKET = -(2**31)


class PercentileHistogram:
    """Streaming p50/p99/p999 estimator over fixed logarithmic buckets.

    Observations land in geometric buckets ``(g^i, g^(i+1)]`` with
    ``g = PERCENTILE_GROWTH``, stored sparsely — memory is O(distinct
    magnitudes), never O(observations), which is what lets a long-lived
    service track latency forever. The layout is process-wide constant, so
    :meth:`merge` is exact bucket-count addition (shard-local histograms
    roll up to fleet-wide ones without resampling). Quantiles come back as
    the geometric midpoint of the covering bucket, clamped to the observed
    ``[min, max]``: relative error is bounded by the growth factor.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        index = (
            _ZERO_BUCKET if value <= 0.0
            else math.floor(math.log(value) / _LOG_GROWTH)
        )
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "PercentileHistogram") -> None:
        """Fold ``other`` in exactly (identical fixed layout by design)."""
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
            self.max = other.max if self.max is None else max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (``0 < q <= 1``); 0.0 when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                if index == _ZERO_BUCKET:
                    return 0.0
                midpoint = math.exp((index + 0.5) * _LOG_GROWTH)
                return min(max(midpoint, self.min), self.max)
        return self.max  # unreachable; defensive

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
        }


def _flatten_stats(prefix: str, obj, out: dict, depth: int = 0) -> None:
    """Flatten one stats object into dotted numeric entries."""
    if depth > 4:  # defensive: stats objects are shallow by construction
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            _flatten_stats(
                f"{prefix}.{field.name}", getattr(obj, field.name), out,
                depth + 1,
            )
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            name = (
                "->".join(str(part) for part in key)
                if isinstance(key, tuple)
                else str(key)
            )
            _flatten_stats(f"{prefix}.{name}", value, out, depth + 1)
        return
    if isinstance(obj, bool):
        out[prefix] = int(obj)
    elif isinstance(obj, (int, float)):
        out[prefix] = obj
    elif isinstance(obj, str):
        out[prefix] = obj
    # Anything else (iterables, objects) is not a metric: skip silently so
    # legacy dataclasses can keep non-numeric bookkeeping fields.


class MetricsRegistry:
    """Named instruments plus pull-registered legacy stats objects."""

    def __init__(self) -> None:
        self._instruments: dict[
            str, Counter | Gauge | PercentileHistogram
        ] = {}
        self._pulls: list[tuple[str, Callable[[], object]]] = []

    # ------------------------------------------------------------------
    # First-class instruments
    # ------------------------------------------------------------------
    def _get(self, name: str, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def percentiles(self, name: str) -> PercentileHistogram:
        return self._get(name, PercentileHistogram)

    # ------------------------------------------------------------------
    # Legacy-stats adapters
    # ------------------------------------------------------------------
    def register_stats(self, prefix: str, stats) -> None:
        """Adapt a legacy ``*Stats`` object: read its fields at snapshot.

        ``stats`` may be a dataclass instance (fields are walked
        recursively) or a callable returning one / returning a dict.
        Registration is cheap and non-invasive — the object keeps working
        exactly as before, it is merely *also* visible in snapshots.
        """
        fn = stats if callable(stats) else (lambda: stats)
        self._pulls.append((prefix, fn))

    def unregister(self, prefix: str) -> None:
        self._pulls = [(p, fn) for p, fn in self._pulls if p != prefix]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One flat JSON-ready dict of every instrument and pulled stat."""
        out: dict = {}
        for name, instrument in sorted(self._instruments.items()):
            if isinstance(instrument, PercentileHistogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        for prefix, fn in self._pulls:
            _flatten_stats(prefix, fn(), out)
        return out


#: The process-wide default registry (what ``repro.obs.get_registry()``
#: hands out when no profile is active).
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return _GLOBAL
