"""Nested spans with simulated-time durations and exact cost attribution.

The tutorial's Part II argument is a *cost* argument: every design exists
because NAND page reads, block erases and the 128 KB RAM bound dominate.
The :class:`Tracer` makes those costs *attributable*: a span brackets one
logical operation (a query, one Tselect probe, one protocol phase), and its
duration and counters are **deltas of the existing cost models** — the
flash chip's :class:`~repro.hardware.flash.FlashStats`, the page cache's
:class:`~repro.hardware.cache.CacheStats`, the MCU cycle counters, the
network's :class:`~repro.net.metrics.NetMetrics` — never wall-clock time.

Attribution is exact by construction:

* ``span.counters`` is the *inclusive* delta (children included) of every
  watched counter over the span's lifetime;
* ``span.self_counters`` subtracts the children's inclusive deltas, so
  summing ``self_counters`` over any complete trace reproduces the watched
  totals with no double-count and no leakage (asserted by the test suite);
* flash page reads are additionally *tagged*: the chip reports each page
  number to the innermost open span, so "which pages did this one probe
  touch, and why" is a question the trace can answer.

Span context propagates through a :class:`contextvars.ContextVar`, so spans
opened inside asyncio tasks nest under the span that spawned the task —
the natural cross-hop link for :mod:`repro.net` message flows.

A second context var carries the *distributed* trace context
(:class:`~repro.obs.telemetry.TraceContext`): trace id, the parent span id
on the far side of a wire or process boundary, and the head-sampling
decision. A span opened with no local parent but an active trace context
re-parents under the context's remote parent — that is how one query's
spans line up into a single tree across wire frames and worker processes.
When both sides share one tracer (the in-process simulated network), the
re-parented child's counters are subtracted from the still-open parent the
same way nested spans are, so the attribution invariant survives the hop.

When no tracer is installed (the default), every instrumentation site costs
one ``None`` check and returns a shared no-op span — the "disabled
overhead" budget of the hot paths.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Callable, Iterable

from repro.obs.metrics import global_registry

#: Innermost open span of the current (task-local) execution context.
_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Active distributed trace context (duck-typed: any object with
#: ``trace_id``, ``parent_span_id`` and ``sampled`` attributes — in
#: practice a :class:`repro.obs.telemetry.TraceContext`). ``None`` means
#: "no distributed trace": spans behave exactly as before this existed.
_TRACE: contextvars.ContextVar[object | None] = contextvars.ContextVar(
    "repro_obs_trace_context", default=None
)


def current_trace_context():
    """The active distributed trace context, or None."""
    return _TRACE.get()


def set_trace_context(context):
    """Activate ``context``; returns a token for :func:`reset_trace_context`."""
    return _TRACE.set(context)


def reset_trace_context(token) -> None:
    _TRACE.reset(token)

#: Pages tagged per span before further tags are only counted, not stored.
MAX_TAGGED_PAGES = 4096


class Span:
    """One timed, counted operation; nested spans form the trace tree."""

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "process",
        "attrs",
        "start_us",
        "end_us",
        "track",
        "pages",
        "pages_overflow",
        "links",
        "counters",
        "self_counters",
        "levels",
        "_start_counts",
        "_child_counts",
        "_remote_parent",
        "_token",
        "_closed",
    )

    def __init__(
        self, tracer: "Tracer", name: str, parent: "Span | None", attrs: dict
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = tracer._next_span_id()
        self.process = None
        self._remote_parent = False
        context = _TRACE.get()
        self.trace_id = (
            (context.trace_id or None) if context is not None else None
        )
        if parent is not None:
            self.parent_id = parent.span_id
        else:
            self.parent_id = None
            if context is not None and context.parent_span_id:
                # No local parent but a distributed one: link under the
                # span that submitted the frame / shard we now serve.
                self.parent_id = context.parent_span_id
                self._remote_parent = True
        self.attrs = attrs
        self.start_us = 0.0
        self.end_us = 0.0
        self.track = 0
        self.pages: list[int] = []
        self.pages_overflow = 0
        self.links: list[int] = []
        self.counters: dict[str, float] = {}
        self.self_counters: dict[str, float] = {}
        self.levels: dict[str, float] = {}
        self._start_counts: dict[str, float] = {}
        self._child_counts: dict[str, float] = {}
        self._token = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on an open span."""
        self.attrs.update(attrs)
        return self

    def link(self, span_id: int | None) -> "Span":
        """Record a causal link to another span (e.g. across a network hop)."""
        if span_id is not None:
            self.links.append(span_id)
        return self

    def tag_page(self, page_no: int) -> None:
        """Attribute one flash page read to this span."""
        if len(self.pages) < MAX_TAGGED_PAGES:
            self.pages.append(page_no)
        else:
            self.pages_overflow += 1

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.start_us = tracer.now_us()
        self._start_counts = tracer._collect_counts()
        self.track = tracer._current_track()
        self._token = _CURRENT.set(self)
        tracer._open[self.span_id] = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        tracer = self.tracer
        tracer._open.pop(self.span_id, None)
        self.end_us = tracer.now_us()
        end_counts = tracer._collect_counts()
        start = self._start_counts
        counters = {}
        for key, value in end_counts.items():
            delta = value - start.get(key, 0.0)
            if delta:
                counters[key] = delta
        self.counters = counters
        child = self._child_counts
        self.self_counters = {
            key: value - child.get(key, 0.0)
            for key, value in counters.items()
            if value - child.get(key, 0.0)
        }
        self.levels = tracer._collect_levels()
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        parent = _CURRENT.get()
        if parent is None and self._remote_parent:
            # Re-parented across a wire hop: if the submitting span is
            # still open on this tracer (in-process simulated network),
            # charge our inclusive deltas to it like any nested child —
            # both sides watched the same counters, so without this the
            # parent's self_counters would double-count ours.
            parent = tracer._open.get(self.parent_id)
        if parent is not None and parent.tracer is tracer:
            accum = parent._child_counts
            for key, value in counters.items():
                accum[key] = accum.get(key, 0.0) + value
        tracer._record(self)


class NullSpan:
    """Shared no-op span returned when tracing is disabled."""

    __slots__ = ()

    span_id = None
    parent_id = None
    trace_id = None
    process = None
    pages: tuple = ()
    links: tuple = ()
    counters: dict = {}
    self_counters: dict = {}

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> "NullSpan":
        return self

    def link(self, span_id) -> "NullSpan":
        return self

    def tag_page(self, page_no: int) -> None:
        return None

    def close(self) -> None:
        return None


NULL_SPAN = NullSpan()


class Tracer:
    """Produces spans whose costs come from watched simulation counters.

    Counter *sources* are callables returning ``{name: number}`` snapshots
    of monotonic counters (flash ops, cache hits, bytes sent, CPU cycles).
    *Time sources* return simulated microseconds and sum into the trace
    clock. *Level sources* are non-monotonic gauges (RAM high-water)
    sampled at span close.
    """

    def __init__(self, max_spans: int = 200_000, max_events: int = 200_000):
        import os

        self.max_spans = max_spans
        self.max_events = max_events
        #: Process the tracer was created in. A forked pool worker inherits
        #: the parent's installed tracer; comparing pids is how
        #: :func:`repro.obs.telemetry.remote_recording` tells "serial,
        #: in-process" from "child process holding a dead copy".
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.events: list[dict] = []
        self.dropped_spans = 0
        self.dropped_events = 0
        #: Called with each span as it is recorded (flight recorder hook).
        self.on_record: Callable[[Span], None] | None = None
        #: Called with each event record as it is appended.
        self.on_event: Callable[[dict], None] | None = None
        #: Human labels of asyncio-task tracks (Perfetto thread names).
        self.track_names: dict[int, str] = {}
        self._sources: list[tuple[str, Callable[[], dict]]] = []
        self._time_sources: list[Callable[[], float]] = []
        self._levels: list[tuple[str, Callable[[], float]]] = []
        self._detach: list[Callable[[], None]] = []
        self._span_counter = 0
        self._tracks: dict[int, int] = {}
        self._open: dict[int, Span] = {}

    # ------------------------------------------------------------------
    # Source registration
    # ------------------------------------------------------------------
    def add_source(self, prefix: str, fn: Callable[[], dict]) -> None:
        """Register a monotonic counter source, namespaced by ``prefix``."""
        self._sources.append((prefix, fn))

    def add_time_source(self, fn: Callable[[], float]) -> None:
        """Register a simulated-time contributor (microseconds)."""
        self._time_sources.append(fn)

    def add_level(self, name: str, fn: Callable[[], float]) -> None:
        """Register a gauge sampled at every span close."""
        self._levels.append((name, fn))

    def watch_flash(self, flash, prefix: str = "flash") -> None:
        """Watch a :class:`NandFlash`: op counters, sim time, page tags."""
        stats = flash.stats
        cost = flash.cost_model
        self.add_source(
            prefix,
            lambda: {
                "page_reads": stats.page_reads,
                "page_programs": stats.page_programs,
                "block_erases": stats.block_erases,
            },
        )
        self.add_time_source(lambda: stats.time_us(cost))
        previous = getattr(flash, "trace_read", None)
        hook = self._on_page_read  # bind once so detach can compare with `is`
        flash.trace_read = hook

        def detach(flash=flash, previous=previous, hook=hook):
            if flash.trace_read is hook:
                flash.trace_read = previous

        self._detach.append(detach)

    def watch_cache(self, cache, prefix: str = "cache") -> None:
        """Watch a :class:`PageCache`'s hit/miss/eviction counters."""
        stats = cache.stats
        self.add_source(
            prefix,
            lambda: {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
            },
        )

    def watch_mcu(self, mcu, prefix: str = "cpu") -> None:
        """Watch a :class:`Microcontroller`: cycle counters + CPU time."""
        stats = mcu.stats
        self.add_source(prefix, lambda: {"cycles": stats.total_cycles})
        self.add_time_source(mcu.elapsed_us)

    def watch_ram(self, ram, prefix: str = "ram") -> None:
        """Sample a :class:`RamArena`'s levels at span close."""
        self.add_level(f"{prefix}.in_use", lambda: ram.in_use)
        self.add_level(f"{prefix}.high_water", lambda: ram.high_water)

    def watch_net(self, metrics, prefix: str = "net") -> None:
        """Watch a :class:`NetMetrics`: frames, bytes, drops, retries."""
        self.add_source(
            prefix,
            lambda: {
                "frames_sent": metrics.frames_sent,
                "frames_delivered": metrics.frames_delivered,
                "frames_dropped": metrics.frames_dropped,
                "bytes_sent": metrics.bytes_sent,
                "bytes_delivered": metrics.comm.bytes,
                "dropped_after_retry": metrics.dropped_after_retry,
            },
        )

    def use_wall_clock(self) -> None:
        """Add a wall-clock time source (microseconds since installation).

        The simulated clock is the default because Part II costs *are*
        simulated; the long-lived service, though, is a real wall-clock
        system (its latency SLOs are wall seconds), so its telemetry
        tracer opts into real time. Offset to zero at installation so
        trace timestamps stay small and diffable.
        """
        import time

        epoch = time.perf_counter()
        self.add_time_source(lambda: (time.perf_counter() - epoch) * 1e6)

    def watch_modexp(self, prefix: str = "crypto") -> None:
        """Watch the process-wide ``crypto.modexp_count`` counter.

        Every full-width modular exponentiation in :mod:`repro.crypto`
        lands in the global registry; watching it lets spans attribute
        crypto cost the same way flash spans attribute page reads.
        """
        counter = global_registry().counter("crypto.modexp_count")
        self.add_source(prefix, lambda: {"modexp_count": counter.value})

    def watch_token(self, token, prefix: str = "") -> None:
        """Watch every cost model of one :class:`SecurePortableToken`."""
        dot = f"{prefix}." if prefix else ""
        self.watch_flash(token.flash, f"{dot}flash")
        self.watch_mcu(token.mcu, f"{dot}cpu")
        self.watch_ram(token.mcu.ram, f"{dot}ram")
        if token.page_cache is not None:
            self.watch_cache(token.page_cache, f"{dot}cache")

    def close(self) -> None:
        """Detach every hook installed on watched objects (idempotent)."""
        while self._detach:
            self._detach.pop()()

    # ------------------------------------------------------------------
    # Span / event production
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """Open a nested span; use as a context manager."""
        return Span(self, name, _CURRENT.get(), attrs)

    def event(self, name: str, **attrs) -> None:
        """Record an instant event attached to the current span."""
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        current = _CURRENT.get()
        record = {
            "name": name,
            "ts_us": self.now_us(),
            "span_id": current.span_id if current is not None else None,
            "attrs": attrs,
        }
        self.events.append(record)
        if self.on_event is not None:
            self.on_event(record)

    def label_current_track(self, name: str) -> None:
        """Name the current asyncio task's track (Perfetto thread name)."""
        self.track_names[self._current_track()] = name

    def current_span(self) -> Span | None:
        return _CURRENT.get()

    def current_span_id(self) -> int | None:
        current = _CURRENT.get()
        return current.span_id if current is not None else None

    def now_us(self) -> float:
        """The simulated clock: sum of every watched cost model's time."""
        return sum(fn() for fn in self._time_sources)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_span_id(self) -> int:
        self._span_counter += 1
        return self._span_counter

    def _collect_counts(self) -> dict[str, float]:
        counts: dict[str, float] = {}
        for prefix, fn in self._sources:
            for key, value in fn().items():
                counts[f"{prefix}.{key}"] = value
        return counts

    def _collect_levels(self) -> dict[str, float]:
        return {name: fn() for name, fn in self._levels}

    def _current_track(self) -> int:
        """Small integer id of the current asyncio task (0 outside tasks)."""
        try:
            import asyncio

            task = asyncio.current_task()
        except RuntimeError:
            task = None
        if task is None:
            return 0
        key = id(task)
        track = self._tracks.get(key)
        if track is None:
            track = len(self._tracks) + 1
            self._tracks[key] = track
        return track

    def _record(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(span)
        if self.on_record is not None:
            self.on_record(span)

    # ------------------------------------------------------------------
    # Cross-process span adoption
    # ------------------------------------------------------------------
    def adopt_remote(self, records: list[dict], parent: "Span | None") -> list:
        """Re-home spans recorded in another process under ``parent``.

        ``records`` are :func:`repro.obs.export.span_dict` dicts shipped
        back from a worker (see
        :func:`repro.obs.telemetry.remote_recording`), in recording order
        (children before parents). Each gets a fresh span id in this
        tracer's id space; intra-batch parent links are remapped, batch
        roots re-parent under ``parent``. Remote timestamps are rebased so
        the batch lands inside the adopting span's window (worker
        ``perf_counter`` clocks are not comparable across processes).

        Attribution stays exact: each batch root's inclusive counters are
        added to ``parent._child_counts``, so a parent that mirrors the
        same counters in-process (e.g. ``crypto.modexp_count`` echoed via
        ``count_modexp``) subtracts the children's share from its own
        self_counters instead of double-counting.
        """
        if not records:
            return []
        starts = [r["start_us"] for r in records]
        offset = (parent.start_us if parent is not None else 0.0) - min(starts)
        # Two passes: records arrive children-before-parents (recording
        # order), so every remote id must be mapped before links resolve.
        spans: list[Span] = []
        id_map: dict[int, int] = {}
        for record in records:
            span = Span(self, record["name"], None, dict(record.get("attrs", {})))
            id_map[record["span_id"]] = span.span_id
            spans.append(span)
        for record, span in zip(records, spans):
            remote_parent = record.get("parent_id")
            # A record flagged remote_parent points at the *submitting*
            # tracer's id space — never resolve it through id_map even if
            # the integer collides with a worker-local span id.
            is_batch_root = bool(record.get("remote_parent")) or (
                remote_parent not in id_map
            )
            span._remote_parent = False
            if not is_batch_root:
                span.parent_id = id_map[remote_parent]
            elif parent is not None:
                span.parent_id = parent.span_id
            else:
                span.parent_id = remote_parent
                span._remote_parent = remote_parent is not None
            span.trace_id = record.get("trace_id") or (
                parent.trace_id if parent is not None else None
            )
            span.process = record.get("process")
            span.track = parent.track if parent is not None else 0
            span.start_us = record["start_us"] + offset
            span.end_us = record["end_us"] + offset
            span.counters = dict(record.get("counters", {}))
            span.self_counters = dict(record.get("self_counters", {}))
            span.levels = dict(record.get("levels", {}))
            span.pages = list(record.get("pages", ()))
            span.pages_overflow = record.get("pages_overflow", 0)
            span.links = list(record.get("links", ()))
            span._closed = True
            if parent is not None and is_batch_root:
                accum = parent._child_counts
                for key, value in span.counters.items():
                    accum[key] = accum.get(key, 0.0) + value
            self._record(span)
        return spans

    def _on_page_read(self, page_no: int) -> None:
        current = _CURRENT.get()
        if current is not None:
            current.tag_page(page_no)

    # ------------------------------------------------------------------
    def totals(self, counter: str, self_only: bool = True) -> float:
        """Sum one counter over every recorded span (``self`` by default)."""
        if self_only:
            return sum(s.self_counters.get(counter, 0.0) for s in self.spans)
        return sum(
            s.counters.get(counter, 0.0)
            for s in self.spans
            if s.parent_id is None
        )

    def spans_named(self, name: str) -> Iterable[Span]:
        return [span for span in self.spans if span.name == name]


# ----------------------------------------------------------------------
# The process-active tracer: what ``obs.span``/``obs.event`` report to
# ----------------------------------------------------------------------
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
