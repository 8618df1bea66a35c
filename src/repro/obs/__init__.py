"""repro.obs — unified tracing, metrics, and flash-cost profiling.

One observability substrate for every layer of the stack:

* :class:`~repro.obs.tracer.Tracer` — nested spans with simulated-time
  durations and exact per-span attribution of flash IO, cache hits, CPU
  cycles and network bytes (see :mod:`repro.obs.tracer`);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters/gauges/histograms
  plus pull adapters that roll every legacy ``*Stats`` dataclass into one
  snapshot (see :mod:`repro.obs.metrics`);
* exporters — JSONL span log, Chrome ``trace_event`` for Perfetto, text
  top-cost and flame reports (see :mod:`repro.obs.export`);
* :func:`~repro.obs.profile.profile` — the bench-harness entry point that
  wires all of the above around one run;
* :mod:`repro.obs.check` — artifact schema validation for CI.

Instrumented hot paths call the active-tracer helpers of
:mod:`repro.obs.tracer`, re-exported here, which are no-ops costing one
``None`` check while no tracer is installed::

    from repro import obs

    with obs.span("tselect.probe", index=name, value=value):
        ...                      # flash reads land on this span

    obs.event("net.deliver", sender=a, receiver=b)

Install a tracer for a scope with :func:`tracing` (or let
:func:`profile` do it), e.g.::

    tracer = obs.Tracer()
    tracer.watch_token(token)
    with obs.tracing(tracer):
        db.query(query)
    print(obs.top_cost_report(tracer))
"""

from repro.obs.export import (
    aggregate_by_name,
    chrome_trace,
    flame_report,
    span_dict,
    top_cost_report,
    trace_records,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    PercentileHistogram,
    global_registry,
)
from repro.obs.profile import ProfileResult, profile
from repro.obs.tracer import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    current_span_id,
    current_trace_context,
    event,
    get_tracer,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullSpan",
    "NULL_SPAN",
    "PercentileHistogram",
    "ProfileResult",
    "Span",
    "Tracer",
    "aggregate_by_name",
    "chrome_trace",
    "current_span_id",
    "current_trace_context",
    "event",
    "flame_report",
    "get_tracer",
    "global_registry",
    "profile",
    "set_tracer",
    "span",
    "span_dict",
    "top_cost_report",
    "trace_records",
    "tracing",
    "write_chrome_trace",
    "write_jsonl",
]
