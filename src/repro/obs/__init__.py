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

Instrumented hot paths call the module-level helpers below, which are
no-ops costing one ``None`` check while no tracer is installed::

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

from __future__ import annotations

from contextlib import contextmanager

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
    current_trace_context,
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

#: The process-active tracer (None = tracing disabled, the default).
_active: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The currently installed tracer, or None when tracing is off."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process-active tracer; returns it."""
    global _active
    _active = tracer
    return tracer


@contextmanager
def tracing(tracer: Tracer):
    """Scope-bound :func:`set_tracer`: restores the previous tracer."""
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous


def span(name: str, **attrs):
    """A span on the active tracer, or the shared no-op span when off.

    Head sampling hooks in here: while an *unsampled* distributed trace
    context is active (:func:`repro.obs.telemetry.activate`), spans are
    suppressed to the shared no-op — the per-trace off switch. The check
    runs only when a tracer is installed, so the disabled-overhead budget
    stays one ``None`` check. Events are never suppressed (the anomaly
    always-keep channel).
    """
    tracer = _active
    if tracer is None:
        return NULL_SPAN
    context = current_trace_context()
    if context is not None and not context.sampled:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """An instant event on the active tracer (no-op when off)."""
    tracer = _active
    if tracer is not None:
        tracer.event(name, **attrs)


def current_span_id() -> int | None:
    """Id of the innermost open span, or None (off / no open span)."""
    tracer = _active
    return tracer.current_span_id() if tracer is not None else None
