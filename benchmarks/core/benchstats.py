"""Order statistics, call timing and process accounting for the benchmark."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time

median = statistics.median


def percentile(values, q: float) -> float:
    """Nearest-rank ``q`` quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def seconds_per_call(fn, number: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean time of ``number`` calls."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - started) / number)
    return median(samples)


def peak_rss_mb(child_processes: int = 0) -> float:
    """Peak resident set of this process, plus ``child_processes`` times
    the largest reaped child's (pool workers are symmetric)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if child_processes:
        kib += child_processes * resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss
    return kib / 1024.0


async def repeated_setup(build, dispose, times: int):
    """Build the workload state ``times`` times, timing each build.

    Set-up time is reported as the median of the builds, so one slow
    import or page fault does not decide it; the last state built is the
    one the timed phase runs on.
    """
    durations = []
    state = None
    for _ in range(times):
        if state is not None:
            await dispose(state)
        gc.collect()
        started = time.perf_counter()
        state = await build()
        durations.append(time.perf_counter() - started)
    return state, durations


class Metrics(dict):
    """name -> {"value", "unit", "n"}; ``n`` is the sample count."""

    def add(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self[name] = {"value": float(value), "unit": unit, "n": int(n)}


def end_to_end(
    metrics: Metrics,
    setup_s,
    latencies_s,
    rates,
    child_processes: int = 0,
) -> None:
    """The end-to-end metrics every workload reports the same way.

    ``rates`` are ops/s of equal segments of the timed phase; the median
    segment is the goodput, so a single stall does not decide it.

    ``latencies_s`` maps each op class of the workload's mix to its ops'
    latencies. Every mix holds its classes in equal shares and their costs
    differ severalfold, so the median of the pooled ops is the median of
    whichever class sits in the middle and is blind to the others; the
    mean of the class medians answers to every class.
    """
    metrics.add("setup_s", median(setup_s), "s", len(setup_s))
    metrics.add("ops_per_s", median(rates), "1/s", len(rates))
    metrics.add(
        "latency_p50_ms",
        statistics.fmean(median(v) for v in latencies_s.values()) * 1000.0,
        "ms",
        sum(len(v) for v in latencies_s.values()),
    )
    metrics.add("peak_rss_mb", peak_rss_mb(child_processes), "MB")
