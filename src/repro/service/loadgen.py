"""Open-loop Poisson traffic against the SSI query service.

Open-loop means arrivals are scheduled by the clock, not by completions: a
saturated service keeps receiving new queries at the offered rate, queues
grow, and admission control sheds — which is precisely the regime where the
p999 latency and the saturation knee live. (A closed-loop generator, which
waits for each answer before sending the next, can never drive a server
past one-in-flight per client and hides the knee entirely.)

The generator draws exponential inter-arrival gaps from a seeded rng, picks
each query class from a :class:`~repro.service.descriptor.WorkloadMix`, and
records every outcome — answered (cached or computed), shed, errored — in a
:class:`LoadReport` whose latency distribution is a streaming
:class:`~repro.obs.metrics.PercentileHistogram`. :func:`find_knee` then
locates the saturation knee across an arrival-rate sweep: the highest
offered rate the service still answers at goodput ≥ ``threshold`` of
offered.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.obs.metrics import PercentileHistogram
from repro.service.admission import Overloaded
from repro.service.descriptor import WorkloadMix
from repro.service.server import ServedResult, SsiQueryService


@dataclass
class LoadReport:
    """Everything one open-loop run observed."""

    rate: float
    duration_s: float
    offered: int = 0
    completed: int = 0
    shed: int = 0
    errors: int = 0
    cache_hits: int = 0
    offered_by_class: dict = field(default_factory=dict)
    completed_by_class: dict = field(default_factory=dict)
    shed_by_class: dict = field(default_factory=dict)
    latency_ms: PercentileHistogram = field(
        default_factory=PercentileHistogram
    )
    #: Completed ServedResults, kept only when the run records them
    #: (bit-identity verification); None otherwise.
    results: list[ServedResult] | None = None

    @property
    def goodput(self) -> float:
        """Completed queries per second of run duration."""
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def offered_rate(self) -> float:
        return self.offered / self.duration_s if self.duration_s else 0.0

    def summary(self) -> dict:
        return {
            "rate": self.rate,
            "duration_s": self.duration_s,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "goodput_qps": self.goodput,
            "offered_qps": self.offered_rate,
            "latency_ms": self.latency_ms.summary(),
            "offered_by_class": dict(self.offered_by_class),
            "completed_by_class": dict(self.completed_by_class),
            "shed_by_class": dict(self.shed_by_class),
        }


class OpenLoopLoadGenerator:
    """Poisson arrivals over a mixed workload, fired at a service."""

    def __init__(
        self,
        service: SsiQueryService,
        mix: WorkloadMix,
        seed: int = 0,
    ) -> None:
        self.service = service
        self.mix = mix
        self.seed = seed

    async def run(
        self,
        rate: float,
        duration_s: float,
        keep_results: bool = False,
        max_queries: int | None = None,
    ) -> LoadReport:
        """Offer ``rate`` queries/s for ``duration_s`` seconds.

        Arrivals are independent of completions: each submission runs as
        its own task while the generator sleeps to the next arrival time.
        The report is complete — the run drains every in-flight query
        before returning (the *latency* of queries past the knee is part
        of the signal, so none are abandoned).
        """
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        rng = random.Random(self.seed)
        report = LoadReport(rate=rate, duration_s=duration_s)
        if keep_results:
            report.results = []
        loop = asyncio.get_running_loop()
        deadline = loop.time() + duration_s
        inflight: set[asyncio.Task] = set()

        async def one(descriptor) -> None:
            try:
                served = await self.service.submit(descriptor)
            except Overloaded:
                report.shed += 1
                by = report.shed_by_class
                by[descriptor.query_class] = (
                    by.get(descriptor.query_class, 0) + 1
                )
            except Exception:
                report.errors += 1
            else:
                report.completed += 1
                by = report.completed_by_class
                by[descriptor.query_class] = (
                    by.get(descriptor.query_class, 0) + 1
                )
                if served.cached:
                    report.cache_hits += 1
                report.latency_ms.observe(served.latency_s * 1000.0)
                if report.results is not None:
                    report.results.append(served)

        # Arrivals are pinned to an absolute schedule: when the event loop
        # is starved by query CPU (the saturated regime!), the generator
        # wakes late and submits the overdue arrivals immediately instead
        # of silently offering less — otherwise saturation would throttle
        # the offered load and hide the knee it causes.
        next_arrival = loop.time()
        while next_arrival < deadline:
            if max_queries is not None and report.offered >= max_queries:
                break
            now = loop.time()
            if next_arrival > now:
                await asyncio.sleep(next_arrival - now)
            descriptor = self.mix.pick(rng)
            report.offered += 1
            by = report.offered_by_class
            by[descriptor.query_class] = by.get(descriptor.query_class, 0) + 1
            task = asyncio.ensure_future(one(descriptor))
            inflight.add(task)
            task.add_done_callback(inflight.discard)
            next_arrival += rng.expovariate(rate)
            await asyncio.sleep(0)  # let submissions start between arrivals
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
        return report


class OpenLoopDeltaStorm:
    """Open-loop delta traffic: pre-encoded frames fired at the clock.

    The write-side sibling of :class:`OpenLoopLoadGenerator`.
    ``DELTA_BATCH`` payloads are pre-encoded by the caller —
    ciphertexts are computed before the run, so the storm measures the
    service's ingest path (decode, queue, fold), never the generator's
    encryption speed — and fired on an absolute Poisson schedule: when the
    fold saturates the loop the generator wakes late and submits the
    overdue frames immediately instead of silently offering less, exactly
    the discipline that exposes the deltas/sec knee.

    Deltas are fire-and-forget, so "completed" is read off the service's
    ``globalq.ingest.folded`` counter after a final ``ingest.drain()``
    barrier; shed and rejected come from their counters the same way. The
    resulting :class:`LoadReport` plugs straight into :func:`find_knee`.
    """

    def __init__(self, service: SsiQueryService, seed: int = 0) -> None:
        self.service = service
        self.seed = seed

    async def run(
        self,
        frames,
        rate: float,
        report_rate: float | None = None,
    ) -> LoadReport:
        """Fire ``frames`` (``(frame, delta_count)`` pairs) at ``rate``
        frames/s; ``report_rate`` labels the report (e.g. deltas/s)."""
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        rng = random.Random(self.seed)
        registry = self.service.registry
        folded_before = registry.counter("globalq.ingest.folded").value
        shed_before = registry.counter("globalq.ingest.shed").value
        rejected_before = registry.counter("globalq.ingest.rejected").value
        report = LoadReport(
            rate=report_rate if report_rate is not None else rate,
            duration_s=0.0,
        )
        loop = asyncio.get_running_loop()
        started = loop.time()
        next_arrival = started
        for frame, delta_count in frames:
            now = loop.time()
            if next_arrival > now:
                await asyncio.sleep(next_arrival - now)
            self.service.ingest.offer(frame.payload)
            report.offered += delta_count
            next_arrival += rng.expovariate(rate)
            await asyncio.sleep(0)  # let the ingest worker interleave
        await self.service.ingest.drain()
        report.duration_s = loop.time() - started
        report.completed = int(
            registry.counter("globalq.ingest.folded").value - folded_before
        )
        report.shed = int(
            registry.counter("globalq.ingest.shed").value - shed_before
        )
        report.errors = int(
            registry.counter("globalq.ingest.rejected").value
            - rejected_before
        )
        return report


def find_knee(reports: list[LoadReport], threshold: float = 0.9) -> dict:
    """The saturation knee of an arrival-rate sweep.

    The knee is the highest offered rate whose goodput still keeps up —
    completed ≥ ``threshold`` × offered. Above it the service is past
    saturation: answers lag arrivals and admission control sheds the rest.
    """
    if not reports:
        raise ValueError("need at least one load report")
    ordered = sorted(reports, key=lambda r: r.rate)
    knee = None
    for report in ordered:
        efficiency = (
            report.completed / report.offered if report.offered else 1.0
        )
        if efficiency >= threshold:
            knee = report
    first = ordered[0]
    chosen = knee if knee is not None else first
    return {
        "threshold": threshold,
        "knee_rate_qps": chosen.rate,
        "knee_goodput_qps": chosen.goodput,
        "knee_efficiency": (
            chosen.completed / chosen.offered if chosen.offered else 1.0
        ),
        "saturated_rates": [
            r.rate
            for r in ordered
            if r.offered and r.completed / r.offered < threshold
        ],
    }


__all__ = [
    "LoadReport",
    "OpenLoopDeltaStorm",
    "OpenLoopLoadGenerator",
    "find_knee",
]
