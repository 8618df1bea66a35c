"""Distributed tracing for the live SSI: context, sampling, adoption.

:mod:`repro.obs.tracer` gives one *process* exact nested spans; this module
makes one *query* produce one coherent trace across the whole deployment —
querier wire frame, admission, snapshot execution, and every shard a
:class:`~repro.globalq.parallel.WorkerPool` child process runs:

* :class:`TraceContext` — the compact propagated triple (trace id, parent
  span id, head-sampling decision). It rides as an optional block in
  :mod:`repro.net.codec` frames (17 real wire bytes, so the byte-metered
  links charge for it) and pickles through worker-pool submissions;
* **deterministic head sampling** — :func:`should_sample` hashes
  ``(trace_id, rate)``, so a re-run over the same trace ids samples the
  *same* traces: sampled runs are reproducible, and sampling can never
  change an answer because the decision never feeds any query randomness;
* :func:`remote_recording` — a worker process records its shard spans into
  a throwaway local tracer and ships them home as plain dicts;
  :meth:`Tracer.adopt_remote` re-homes them under the submitting span with
  self-counters intact, preserving the E21 attribution invariant;
* :class:`AdaptiveSampler` — head sampling plus the always-keep rule:
  anomalies (sheds, SLO breaches, fault kills, recovery mounts) are
  recorded regardless of the head decision, because the flight recorder
  (:mod:`repro.obs.recorder`) listens to *events*, which sampling never
  suppresses;
* :class:`Telemetry` — the bundle a long-lived service installs: a
  wall-clock tracer watching the crypto counters, the sampler, a
  :class:`~repro.obs.recorder.FlightRecorder`, and per-class SLO monitors.
"""

from __future__ import annotations

import hashlib
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs import tracer as tracer_mod
from repro.obs.export import span_dict
from repro.obs.recorder import FlightRecorder, SloMonitor
from repro.obs.tracer import Tracer

#: Wire encoding of one TraceContext: trace id, parent span id, flags.
_WIRE = struct.Struct("<QQB")
#: Bytes a propagated context adds to a frame.
WIRE_SIZE = _WIRE.size

_FLAG_SAMPLED = 0x01

#: Hash-space denominator of the sampling decision.
_SAMPLE_SPACE = float(2**64)


@dataclass(frozen=True)
class TraceContext:
    """What crosses a wire or process boundary: id, parent, decision."""

    trace_id: int
    parent_span_id: int = 0
    sampled: bool = True

    def child(self, parent_span_id: int | None) -> "TraceContext":
        """The context to propagate from under ``parent_span_id``."""
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=parent_span_id or 0,
            sampled=self.sampled,
        )

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        flags = _FLAG_SAMPLED if self.sampled else 0
        return _WIRE.pack(
            self.trace_id & 0xFFFFFFFFFFFFFFFF,
            self.parent_span_id & 0xFFFFFFFFFFFFFFFF,
            flags,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceContext":
        trace_id, parent, flags = _WIRE.unpack_from(data, 0)
        return cls(
            trace_id=trace_id,
            parent_span_id=parent,
            sampled=bool(flags & _FLAG_SAMPLED),
        )


def derive_trace_id(*parts) -> int:
    """Deterministic nonzero 64-bit trace id from arbitrary parts."""
    digest = hashlib.sha256(
        "|".join(str(part) for part in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little") or 1


def should_sample(trace_id: int, rate: float) -> bool:
    """Deterministic head-sampling decision for ``trace_id`` at ``rate``.

    The decision is a pure function of the id and the rate — no RNG, no
    process state — so replaying the same workload samples the same
    traces, and a sampled run's trace set is a strict superset of any
    lower rate's (the hash fraction is compared against the rate).
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    digest = hashlib.sha256(b"sample:%d" % trace_id).digest()
    fraction = int.from_bytes(digest[:8], "little") / _SAMPLE_SPACE
    return fraction < rate


# ----------------------------------------------------------------------
# In-process context propagation
# ----------------------------------------------------------------------
def current_context() -> TraceContext | None:
    """The active trace context of this task, or None."""
    return tracer_mod.current_trace_context()


@contextmanager
def activate(context: TraceContext | None):
    """Make ``context`` the active trace context for the scope.

    While an *unsampled* context is active, :func:`repro.obs.span` returns
    the shared no-op span — the per-trace off switch head sampling needs.
    Events still record (the always-keep channel).
    """
    if context is None:
        yield None
        return
    token = tracer_mod.set_trace_context(context)
    try:
        yield context
    finally:
        tracer_mod.reset_trace_context(token)


def propagated(parent_span_id: int | None = None) -> TraceContext | None:
    """The context to ship across the next boundary, if any.

    Uses the active context's trace id and decision with the given (or
    current) span as the remote parent. When no context is active but a
    tracer is, an ad-hoc always-sampled context is synthesized so legacy
    profiled runs (``obs.profile``) still get child-process spans back.
    """
    context = current_context()
    if context is None:
        if tracer_mod.get_tracer() is None:
            return None
        context = TraceContext(trace_id=0, sampled=True)
    if parent_span_id is None:
        parent_span_id = tracer_mod.current_span_id()
    return context.child(parent_span_id)


# ----------------------------------------------------------------------
# Worker-process span recording
# ----------------------------------------------------------------------
@dataclass
class TracedResult:
    """A worker's return value plus the spans it recorded (picklable)."""

    result: object
    spans: list
    process: str


class _RemoteRecording:
    """Handle yielded by :func:`remote_recording`."""

    def __init__(self, tracer: Tracer, process: str) -> None:
        self.tracer = tracer
        self.process = process

    def records(self) -> list[dict]:
        out = []
        for span in self.tracer.spans:
            record = span_dict(span)
            record["process"] = self.process
            out.append(record)
        return out

    def wrap(self, result) -> TracedResult:
        return TracedResult(
            result=result, spans=self.records(), process=self.process
        )


@contextmanager
def remote_recording(context: TraceContext, label: str = ""):
    """Record spans in a worker process for adoption by the submitter.

    Installs a throwaway wall-clock tracer (watching this process's
    ``crypto.modexp_count``), activates ``context``, and yields a handle
    whose :meth:`~_RemoteRecording.wrap` bundles the shard result with the
    recorded span dicts. Yields ``None`` — recording nothing — when the
    context is unsampled or a tracer created *in this process* is active
    (the serial path, where spans record directly). A tracer inherited
    through ``fork`` has a foreign ``pid``: it is the submitter's dead
    copy, so the worker records for shipment instead of writing into it.
    """
    if context is None or not context.sampled:
        yield None
        return
    active = tracer_mod.get_tracer()
    if active is not None and active.pid == os.getpid():
        yield None
        return
    tracer = Tracer()
    tracer.use_wall_clock()
    tracer.watch_modexp()
    process = label or f"worker-{os.getpid()}"
    handle = _RemoteRecording(tracer, process)
    # A forked worker also inherits the submitter's _CURRENT span; it
    # belongs to the dead tracer copy, and parenting under it would ship
    # a dangling intra-batch link. The batch root's parent is the trace
    # context's remote parent, nothing local.
    current_token = tracer_mod._CURRENT.set(None)
    try:
        with tracer_mod.tracing(tracer):
            with activate(context):
                yield handle
    finally:
        tracer_mod._CURRENT.reset(current_token)


def adopt(value, parent) -> object:
    """Unwrap a possibly-traced worker result, adopting its spans.

    ``parent`` is the open span awaiting the worker (a real
    :class:`~repro.obs.tracer.Span` or the shared no-op). Plain results
    pass through untouched, so call sites need no branching.
    """
    if not isinstance(value, TracedResult):
        return value
    tracer = tracer_mod.get_tracer()
    if tracer is not None and value.spans:
        real_parent = parent if isinstance(parent, tracer_mod.Span) else None
        tracer.adopt_remote(value.spans, real_parent)
    return value.result


# ----------------------------------------------------------------------
# The service bundle
# ----------------------------------------------------------------------
class AdaptiveSampler:
    """Head sampling with counters; anomalies bypass it by construction.

    ``context_for(*parts)`` derives a deterministic trace id from the
    parts (e.g. canonical descriptor + arrival index) and stamps the
    sampling decision. Anomalous traces need no special-casing here: the
    flight recorder triggers on *events*, which :func:`repro.obs.event`
    never samples away.
    """

    def __init__(self, rate: float = 1.0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sampling rate must be within [0, 1]")
        self.rate = rate
        self.decisions = 0
        self.kept = 0

    def context_for(self, *parts) -> TraceContext:
        trace_id = derive_trace_id(*parts)
        sampled = should_sample(trace_id, self.rate)
        self.decisions += 1
        if sampled:
            self.kept += 1
        return TraceContext(trace_id=trace_id, sampled=sampled)

    def status(self) -> dict:
        return {
            "rate": self.rate,
            "decisions": self.decisions,
            "kept": self.kept,
        }


class Telemetry:
    """Everything a long-lived service installs to become inspectable.

    One object bundles the wall-clock tracer, the head sampler, the
    flight recorder, and optional per-class SLO monitors; the service
    holds it and the bench/tests read it back. Use as a context manager
    (or call :meth:`install`/:meth:`shutdown`)::

        telemetry = Telemetry(sample_rate=0.01, slo_p99_ms={"agg": 250.0})
        with telemetry:
            service = SsiQueryService(population, config, telemetry=telemetry)
            ...
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        slo_p99_ms: dict[str, float] | None = None,
        slo_window: int = 32,
        recorder_capacity: int = 256,
        dump_dir=None,
        max_dumps: int = 8,
        ram=None,
        max_spans: int = 200_000,
    ) -> None:
        self.tracer = Tracer(max_spans=max_spans)
        self.tracer.use_wall_clock()
        self.tracer.watch_modexp()
        self.sampler = AdaptiveSampler(sample_rate)
        self.recorder = FlightRecorder(
            capacity=recorder_capacity,
            dump_dir=dump_dir,
            max_dumps=max_dumps,
            ram=ram,
        )
        self.slo = SloMonitor(
            slo_p99_ms or {},
            window=slo_window,
            on_breach=self._on_breach,
        )
        self._previous = None
        self._installed = False

    # ------------------------------------------------------------------
    def install(self) -> "Telemetry":
        """Attach the recorder and make the tracer process-active."""
        if self._installed:
            return self
        self.recorder.attach(self.tracer)
        self._previous = tracer_mod.get_tracer()
        tracer_mod.set_tracer(self.tracer)
        self._installed = True
        return self

    def shutdown(self) -> None:
        """Restore the previous tracer and detach every hook (idempotent)."""
        if not self._installed:
            return
        tracer_mod.set_tracer(self._previous)
        self.recorder.detach()
        self.tracer.close()
        self._installed = False

    def __enter__(self) -> "Telemetry":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def observe_latency(self, query_class: str, latency_ms: float) -> None:
        """Feed one completion into the per-class SLO monitors."""
        self.slo.observe(query_class, latency_ms)

    def _on_breach(self, query_class: str, p99_ms: float, slo_ms: float) -> None:
        tracer_mod.event(
            "slo.breach",
            query_class=query_class,
            p99_ms=round(p99_ms, 3),
            slo_ms=slo_ms,
        )
        self.recorder.trigger(
            "slo_breach",
            query_class=query_class,
            p99_ms=round(p99_ms, 3),
            slo_ms=slo_ms,
        )

    def status(self) -> dict:
        return {
            "sampler": self.sampler.status(),
            "recorder": self.recorder.status(),
            "slo": self.slo.status(),
            "spans_recorded": len(self.tracer.spans),
            "events_recorded": len(self.tracer.events),
            "dropped_spans": self.tracer.dropped_spans,
        }


__all__ = [
    "AdaptiveSampler",
    "Telemetry",
    "TraceContext",
    "TracedResult",
    "WIRE_SIZE",
    "activate",
    "adopt",
    "current_context",
    "derive_trace_id",
    "propagated",
    "remote_recording",
    "should_sample",
]
