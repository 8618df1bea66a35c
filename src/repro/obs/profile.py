"""``repro.obs.profile``: one context manager to trace + snapshot a run.

The bench harness (and anything else that wants a self-describing cost
report) wraps a workload in :func:`profile`::

    with obs.profile(token=db.token) as prof:
        rows, stats = db.query(query)
    experiment.meta["profile"] = prof.to_meta()
    prof.write(directory, stem="e20")   # TRACE_e20.json + TRACE_e20.jsonl

The context manager builds a :class:`~repro.obs.tracer.Tracer` watching the
given cost models, installs it as the process-active tracer so every
instrumented hot path starts emitting spans, registers the same stats into
a fresh :class:`~repro.obs.metrics.MetricsRegistry`, and on exit restores
whatever tracer was active before (profiles nest safely) and detaches all
hooks. The result object stays usable after exit — that is when benches
read it.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from repro.obs import export
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, get_tracer, set_tracer


class ProfileResult:
    """Everything one profiled run produced: the trace and the rollup."""

    def __init__(self, tracer: Tracer, registry: MetricsRegistry) -> None:
        self.tracer = tracer
        self.registry = registry

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry's flat metrics dict (JSON-ready)."""
        return self.registry.snapshot()

    def spans_by_name(self) -> dict[str, dict]:
        return export.aggregate_by_name(self.tracer)

    def to_meta(self) -> dict:
        """The ``BENCH_<id>.json``-embeddable profile record."""
        return {
            "metrics": self.snapshot(),
            "spans_by_name": self.spans_by_name(),
            "span_count": len(self.tracer.spans),
            "event_count": len(self.tracer.events),
            "dropped_spans": self.tracer.dropped_spans,
            "sim_time_us": round(self.tracer.now_us(), 3),
        }

    def top(self, sort_key: str = "self_time_us", limit: int = 20) -> str:
        return export.top_cost_report(self.tracer, sort_key, limit)

    def flame(self, counter: str | None = None) -> str:
        return export.flame_report(self.tracer, counter)

    def write(self, directory=".", stem: str = "trace") -> dict[str, Path]:
        """Write ``TRACE_<stem>.json`` (Chrome) + ``TRACE_<stem>.jsonl``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        chrome = export.write_chrome_trace(
            self.tracer, directory / f"TRACE_{stem}.json", process_name=stem
        )
        jsonl = export.write_jsonl(
            self.tracer, directory / f"TRACE_{stem}.jsonl"
        )
        return {"chrome": chrome, "jsonl": jsonl}


@contextmanager
def profile(
    token=None,
    tokens=(),
    net_metrics=None,
    mcu=None,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    span_name: str | None = "profile",
):
    """Trace + meter a block of code against the given cost models.

    ``token`` / ``tokens`` watch full secure tokens (flash, CPU, RAM,
    page cache); ``net_metrics`` watches a :class:`NetMetrics`;
    pass a prebuilt ``tracer`` to control sources yourself. The whole run
    is wrapped in one root span (``span_name``; None to skip) so child
    costs always sum into a single tree.
    """
    tracer = tracer or Tracer()
    registry = registry or MetricsRegistry()
    watched = list(tokens)
    if token is not None:
        watched.insert(0, token)
    for index, one in enumerate(watched):
        prefix = "" if index == 0 else f"token{index}"
        tracer.watch_token(one, prefix)
        dot = f"{prefix}." if prefix else ""
        registry.register_stats(f"{dot}flash", one.flash.stats)
        registry.register_stats(f"{dot}cpu", one.mcu.stats)
        registry.register_stats(
            f"{dot}ram",
            (lambda ram=one.mcu.ram: {
                "in_use": ram.in_use,
                "high_water": ram.high_water,
                "budget_bytes": ram.budget_bytes,
            }),
        )
        if one.page_cache is not None:
            registry.register_stats(f"{dot}cache", one.page_cache.stats)
    if mcu is not None:
        tracer.watch_mcu(mcu)
        registry.register_stats("cpu", mcu.stats)
    if net_metrics is not None:
        tracer.watch_net(net_metrics)
        registry.register_stats("net", net_metrics)

    result = ProfileResult(tracer, registry)
    previous = get_tracer()
    set_tracer(tracer)
    root = tracer.span(span_name) if span_name else None
    try:
        if root is not None:
            root.__enter__()
        yield result
    finally:
        if root is not None:
            root.close()
        set_tracer(previous)
        tracer.close()
