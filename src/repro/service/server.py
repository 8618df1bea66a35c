"""The long-lived SSI query service: requests, scheduling, accounting.

Everything before this PR runs a query the way a benchmark does — build the
population, run one protocol, exit. :class:`SsiQueryService` runs the SSI
the way the tutorial deploys it: a persistent server multiplexing many
concurrent [TNP14] queries over one shared population while tokens churn
and citizens ``forget()``. Three mechanisms make that safe:

* **admission + scheduling** — arrivals pass the
  :class:`~repro.service.admission.AdmissionController` (bounded queues,
  typed :class:`~repro.service.admission.Overloaded` shedding, round-robin
  class fairness); one scheduler loop executes admitted queries one at a
  time, in fair-queue order, on one dedicated thread, so protocol CPU never
  blocks the event loop (``run_query`` holds the GIL: a second executor
  thread only stretches both overlapped queries);
* **snapshot execution** — each execution freezes the population
  (:meth:`ServicePopulation.snapshot`) and derives its seed from the
  (descriptor, version) pair, so the answer is bit-identical to the one-shot
  batch driver run over the same snapshot — concurrency cannot perturb it;
* **version-exact caching** — results are cached per canonical descriptor
  and served only while the population version is unchanged
  (:class:`~repro.service.cache.ResultCache`).

This module owns the request frames (``QUERY``/``SUBSCRIBE``/``TELEMETRY``:
one decode → handle → reply function, :meth:`SsiQueryService._answer`) and
the query scheduler. Deltas belong to :mod:`repro.service.ingest` (queue and
fold thread) and window state to :mod:`repro.service.standing`.

Latency accounting flows through ``repro.obs``: per-query spans plus
streaming :class:`~repro.obs.metrics.PercentileHistogram` latency
(p50/p99/p999) overall and per query class.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.crypto.paillier import PaillierPublicKey
from repro.errors import NetError, ProtocolError, QueryError
from repro.globalq.continuous import WindowSpec
from repro.globalq.parallel import DEFAULT_SHARD_SIZE, WorkerPool
from repro.net.codec import (
    KIND_DELTA_BATCH,
    KIND_QUERY,
    KIND_REJECT,
    KIND_RESULT,
    KIND_SUBSCRIBE,
    KIND_TELEMETRY,
    KIND_UPDATE,
    Frame,
    decode_json_payload,
    encode_json_payload,
)
from repro.obs import telemetry as obs_telemetry
from repro.service.admission import AdmissionController, Overloaded
from repro.service.cache import CacheEntry, ResultCache
from repro.service.descriptor import QueryDescriptor, derive_seed
from repro.service.ingest import IngestPipeline
from repro.service.population import PopulationSnapshot, ServicePopulation
from repro.service.reference import run_query
from repro.service.standing import StandingRegistry
from repro.workloads.people import CITIES


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one service instance."""

    #: Total admitted-but-waiting queries before shedding.
    max_queue_depth: int = 64
    #: Result-cache entries (0 disables caching).
    cache_capacity: int = 32
    #: Sharded-collection workers per execution (1 = inline).
    workers: int = 1
    shard_size: int = DEFAULT_SHARD_SIZE
    #: Base seed mixed into every per-query seed derivation.
    seed: int = 0
    #: Public attribute domain (noise fakes, histogram prior).
    domain: tuple[str, ...] = tuple(CITIES)
    #: Keep each result's population snapshot on the ServedResult/cache
    #: entry so tests can re-verify answers bit-identically.
    record_snapshots: bool = False
    #: Optional persistent process pool shared across executions.
    pool: WorkerPool | None = None
    #: Queued deltas (across all subscriptions) before ingest shedding.
    ingest_queue_depth: int = 4096
    #: Max deltas folded per ingest batch (one executor round trip).
    ingest_batch_max: int = 256
    #: Deltas per fold shard of the batch fold engine (None = default).
    #: Like ``shard_size`` it never depends on the worker count, so every
    #: (workers, batch) cell folds bit-identical pane products.
    fold_shard_size: int | None = None

    def __post_init__(self) -> None:
        if self.ingest_queue_depth < 1:
            raise ValueError("ingest_queue_depth must be >= 1")
        if self.ingest_batch_max < 1:
            raise ValueError("ingest_batch_max must be >= 1")


@dataclass(frozen=True)
class ServedResult:
    """One answered query, with everything needed to reproduce it."""

    descriptor: QueryDescriptor
    result: dict[str, float]
    #: Population version the answer reflects.
    version: int
    #: Deterministic seed the execution drew its randomness from.
    seed: int
    cached: bool
    #: Submit-to-answer latency (seconds, wall clock).
    latency_s: float
    #: Present when the service records snapshots (bit-identity checks).
    snapshot: PopulationSnapshot | None = None
    stats: dict = field(default_factory=dict)


@dataclass
class QueryTicket:
    """One admitted query waiting for the scheduler loop."""

    descriptor: QueryDescriptor
    submitted_at: float
    future: asyncio.Future
    #: Distributed trace context the execution runs under (or None).
    trace: obs_telemetry.TraceContext | None = None


def _subscribe_args(request: dict):
    """Validate a ``SUBSCRIBE`` body — the descriptor dict plus ``window``
    (width/slide), the querier's modulus ``public_n`` (hex string) and an
    optional integer ``start``; anything malformed is a QueryError."""
    descriptor = QueryDescriptor.from_dict(request)
    spec = WindowSpec.from_dict(request.get("window") or {})
    start = request.get("start")
    if start is not None and type(start) is not int:
        raise QueryError("start must be an integer")
    try:
        public_n = int(request.get("public_n"), 16)
    except (TypeError, ValueError):
        raise QueryError("public_n must be a hex integer string") from None
    if public_n < 2:
        raise QueryError("public_n must be a modulus > 1")
    public = PaillierPublicKey(n=public_n, n_squared=public_n * public_n)
    return descriptor, spec, public, start


class SsiQueryService:
    """Persistent SSI serving concurrent [TNP14] queries.

    Pass a :class:`repro.obs.telemetry.Telemetry` bundle to make the
    service a traced system: every arrival gets a deterministic sampled
    trace context (or inherits the querier's from the wire frame), sheds
    and SLO breaches trigger its flight recorder, and ``TELEMETRY`` wire
    frames answer with a live snapshot.
    """

    def __init__(
        self,
        population: ServicePopulation,
        config: ServiceConfig | None = None,
        registry: obs.MetricsRegistry | None = None,
        telemetry: "obs_telemetry.Telemetry | None" = None,
    ) -> None:
        self.population = population
        self.config = config or ServiceConfig()
        self.registry = registry or obs.MetricsRegistry()
        self.telemetry = telemetry
        if telemetry is not None and telemetry.recorder.registry is None:
            # Bundles should freeze *this* service's counters (shed depths,
            # per-class rejects), not the process-global registry.
            telemetry.recorder.registry = self.registry
        self.admission = AdmissionController(self.config.max_queue_depth)
        self.cache = ResultCache(self.config.cache_capacity, population)
        #: Standing subscriptions: encrypted delta-maintenance of live
        #: windowed aggregates, coherent with the cache by construction.
        #: Batch folds shard onto the service's persistent worker pool.
        self.standing = StandingRegistry(
            population,
            cache=self.cache,
            registry=self.registry,
            fold_pool=self.config.pool,
            fold_shard_size=self.config.fold_shard_size,
        )
        #: The one way a wire delta reaches :attr:`standing`.
        self.ingest = IngestPipeline(
            self.standing,
            self.registry,
            depth=self.config.ingest_queue_depth,
            batch_max=self.config.ingest_batch_max,
            telemetry=telemetry,
        )
        self.registry.register_stats("service.admission", self.admission.stats)
        self.registry.register_stats("service.cache", self.cache.stats)
        self._scheduler: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # One execution thread next to the ingest pipeline's one fold
        # thread: fair-queue order is execution order.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ssi-query"
        )
        self._scheduler = asyncio.ensure_future(self._scheduler_loop())
        self.ingest.start()

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for ticket in self.admission.drain():
            if not ticket.future.done():
                ticket.future.set_exception(NetError("service stopped"))
        self._scheduler.cancel()
        try:
            await self._scheduler
        except asyncio.CancelledError:
            pass
        self._scheduler = None
        await self.ingest.stop()
        self._executor.shutdown(wait=True)
        self._executor = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        descriptor: QueryDescriptor,
        trace: obs_telemetry.TraceContext | None = None,
    ) -> ServedResult:
        """Answer ``descriptor``; raises :class:`Overloaded` when shed.

        ``trace`` carries the querier's distributed trace context (e.g.
        decoded off a wire frame); when absent and the service has a
        telemetry bundle, a deterministic head-sampled context is derived
        from the canonical descriptor and the arrival index.
        """
        if not self._running:
            raise NetError("service is not running")
        started = time.perf_counter()
        arrivals = self.registry.counter("service.arrivals")
        arrivals.inc()
        if trace is None and self.telemetry is not None:
            trace = self.telemetry.sampler.context_for(
                descriptor.canonical(), arrivals.value
            )
        hit = self.cache.get(descriptor)
        if hit is not None:
            with obs_telemetry.activate(trace), obs.span(
                "service.cache_hit",
                query_class=descriptor.query_class,
                version=hit.version,
            ):
                return self._serve(descriptor, hit, True, started)
        ticket = QueryTicket(
            descriptor=descriptor,
            submitted_at=started,
            future=asyncio.get_running_loop().create_future(),
            trace=trace,
        )
        try:
            self.admission.submit(descriptor.query_class, ticket)
        except Overloaded as exc:
            self._account_shed(exc, trace)
            raise
        self.registry.gauge("service.queue_depth").max(self.admission.depth)
        return await ticket.future

    def _account_shed(
        self,
        exc: Overloaded,
        trace: obs_telemetry.TraceContext | None,
    ) -> None:
        """Make a shed reconstructable: per-class count, depth, recorder."""
        depth = self.admission.depth
        self.registry.counter("service.shed").inc()
        self.registry.counter(f"service.shed.{exc.query_class}").inc()
        self.registry.gauge("service.shed_queue_depth").set(depth)
        with obs_telemetry.activate(trace):
            obs.event(
                "service.shed",
                query_class=exc.query_class,
                queued=exc.queued,
                limit=exc.limit,
                queue_depth=depth,
            )
        if self.telemetry is not None:
            self.telemetry.recorder.trigger(
                "overloaded",
                query_class=exc.query_class,
                queued=exc.queued,
                limit=exc.limit,
                queue_depth=depth,
            )

    # ------------------------------------------------------------------
    # The scheduler loop
    # ------------------------------------------------------------------
    async def _scheduler_loop(self) -> None:
        tracer = obs.get_tracer()
        if tracer is not None:
            tracer.label_current_track("ssi-scheduler")
        while True:
            ticket = await self.admission.next_ticket()
            if ticket.future.done():
                continue  # submitter went away (e.g. timed out)
            try:
                served = await self._execute(ticket)
            except asyncio.CancelledError:
                if not ticket.future.done():
                    ticket.future.set_exception(NetError("service stopped"))
                raise
            except Exception as exc:  # surface, never kill the loop
                if not ticket.future.done():
                    ticket.future.set_exception(exc)
                self.registry.counter("service.errors").inc()
            else:
                if not ticket.future.done():
                    ticket.future.set_result(served)

    async def _execute(self, ticket: QueryTicket) -> ServedResult:
        descriptor = ticket.descriptor
        # An identical descriptor queued ahead of this one may have filled
        # the cache since admission — re-check (this is what coalesces
        # queued duplicates).
        hit = self.cache.get(descriptor, recheck=True)
        if hit is not None:
            return self._serve(descriptor, hit, True, ticket.submitted_at)
        snapshot = self.population.snapshot()
        seed = derive_seed(descriptor, snapshot.version, self.config.seed)
        loop = asyncio.get_running_loop()
        with obs_telemetry.activate(ticket.trace), obs.span(
            "service.query",
            query_class=descriptor.query_class,
            version=snapshot.version,
            population=len(snapshot.nodes),
        ):
            # Copied *inside* the span so the executor thread inherits
            # both the open span and the trace context — shard spans
            # of the collection then nest under service.query.
            ctx = contextvars.copy_context()
            report = await loop.run_in_executor(
                self._executor,
                ctx.run,
                run_query,
                descriptor,
                snapshot.nodes,
                self.population.fleet,
                seed,
                self.config.domain,
                self.config.workers,
                self.config.shard_size,
                self.config.pool,
            )
        entry = CacheEntry(
            version=snapshot.version,
            result=report.result,
            seed=seed,
            snapshot=snapshot if self.config.record_snapshots else None,
            stats={
                "num_pds": report.num_pds,
                "tuples_sent": report.tuples_sent,
                "token_invocations": report.token_invocations,
                "comm_bytes": report.comm_bytes,
            },
        )
        self.cache.put(descriptor, entry)
        return self._serve(descriptor, entry, False, ticket.submitted_at)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _serve(
        self,
        descriptor: QueryDescriptor,
        entry: CacheEntry,
        cached: bool,
        started: float,
    ) -> ServedResult:
        """The answer for ``entry``, latency-stamped and accounted."""
        served = ServedResult(
            descriptor=descriptor,
            result=entry.result,
            version=entry.version,
            seed=entry.seed,
            cached=cached,
            latency_s=time.perf_counter() - started,
            snapshot=entry.snapshot,
            stats=entry.stats,
        )
        latency_ms = served.latency_s * 1000.0
        self.registry.counter("service.completed").inc()
        if cached:
            self.registry.counter("service.cache_hits_served").inc()
        self.registry.percentiles("service.latency_ms").observe(latency_ms)
        self.registry.percentiles(
            f"service.latency_ms.{descriptor.query_class}"
        ).observe(latency_ms)
        if self.telemetry is not None:
            self.telemetry.observe_latency(descriptor.query_class, latency_ms)
        return served

    def metrics_snapshot(self) -> dict:
        return self.registry.snapshot()

    def telemetry_snapshot(self) -> dict:
        """The TELEMETRY endpoint's payload: live registry + recorder."""
        snap: dict = {"metrics": self.metrics_snapshot()}
        if self.telemetry is not None:
            snap["telemetry"] = self.telemetry.status()
        return snap

    @property
    def latency(self) -> obs.PercentileHistogram:
        return self.registry.percentiles("service.latency_ms")

    # ------------------------------------------------------------------
    # Wire front-end
    # ------------------------------------------------------------------
    async def serve_endpoint(self, endpoint) -> None:
        """Serve the frames arriving on a bus endpoint until cancelled.

        ``DELTA_BATCH`` frames are fire-and-forget: offered to the ingest
        pipeline inline (poison frames count immediately), folded off the
        loop. ``QUERY``/``SUBSCRIBE``/``TELEMETRY`` frames are requests,
        each answered by its own :meth:`_answer` task — the receive loop
        never blocks on an execution, so wire queriers genuinely contend
        for the scheduler (and overflow genuinely sheds). Other kinds are
        ignored. The demo and tests wrap this in a task.
        """
        dispatched: set[asyncio.Task] = set()
        seq = 0
        try:
            while True:
                frame = await endpoint.recv()
                if frame.kind == KIND_DELTA_BATCH:
                    self.ingest.offer(frame.payload)
                elif frame.kind in self._HANDLERS:
                    seq += 1
                    task = asyncio.ensure_future(
                        self._answer(endpoint, frame, seq)
                    )
                    dispatched.add(task)
                    task.add_done_callback(dispatched.discard)
        finally:
            for task in dispatched:
                task.cancel()

    async def _answer(self, endpoint, frame: Frame, seq: int) -> None:
        """Decode, handle and reply to one request frame.

        Always exactly one reply, whatever the kind: the handler's
        (canonical JSON echoing ``request_id``), else a ``REJECT`` whose
        ``error`` says why — ``overloaded`` (shed, with the typed admission
        fields), ``bad_request`` (the payload or a field of it does not
        parse) or ``failed`` (the handler raised) — and ``detail`` the
        reason. A poison frame or a crashed execution never leaves the
        requester waiting or the endpoint down.
        """
        request_id = trace = None
        # The frame's trace context links this span under the requester's
        # sending span; the child context handed to the handler then links
        # admission/execution under this one.
        with obs_telemetry.activate(frame.trace), obs.span(
            "service.frame", kind=frame.kind_name, sender=frame.sender
        ) as frame_span:
            if frame.trace is not None:
                trace = frame.trace.child(frame_span.span_id)
            kind = KIND_REJECT  # unless the handler answers
            try:
                request = decode_json_payload(frame.payload or b"{}")
                request_id = request.get("request_id")
                frame_span.set(request_id=request_id)
                kind, body = await self._HANDLERS[frame.kind](
                    self, request, frame.sender, trace
                )
            except Overloaded as exc:
                body = {
                    "error": "overloaded",
                    "detail": str(exc),
                    "query_class": exc.query_class,
                    "queued": exc.queued,
                    "limit": exc.limit,
                }
            except (QueryError, ProtocolError) as exc:
                self.registry.counter("service.query.rejected").inc()
                body = {"error": "bad_request", "detail": str(exc)}
            except Exception as exc:  # the endpoint must keep answering
                self.registry.counter("service.query.failed").inc()
                obs.event(
                    "service.query.failed",
                    request_id=request_id,
                    error=repr(exc),
                )
                body = {"error": "failed", "detail": repr(exc)}
            reply = Frame(
                kind=kind,
                sender=endpoint.name,
                seq=seq,
                payload=encode_json_payload(
                    {"request_id": request_id, **body}
                ),
                trace=trace,
            )
            await endpoint.send(frame.sender, reply)

    async def _handle_query(self, request: dict, sender: str, trace):
        served = await self.submit(
            QueryDescriptor.from_dict(request), trace=trace
        )
        return KIND_RESULT, {
            "result": served.result,
            "version": served.version,
            "seed": served.seed,
            "cached": served.cached,
            "latency_ms": served.latency_s * 1000.0,
        }

    async def _handle_subscribe(self, request: dict, sender: str, trace):
        """Register a standing query; the ack echoes the subscription id.
        Wire-fed unless it asks for ``local_source``: the PDSs push their
        own ``DELTA_BATCH`` frames, the service only folds."""
        descriptor, spec, public, start = _subscribe_args(request)
        sub = self.standing.subscribe(
            descriptor,
            spec,
            public,
            start=start,
            requester=sender,
            local_source=bool(request.get("local_source", False)),
        )
        self.registry.counter("service.subscriptions").inc()
        return KIND_SUBSCRIBE, {
            "subscription": sub.sub_id,
            "version": self.population.version,
            "start": sub.start,
            "window": sub.spec.to_dict(),
        }

    async def _handle_telemetry(self, request: dict, sender: str, trace):
        return KIND_TELEMETRY, self.telemetry_snapshot()

    #: Request kind -> handler returning ``(reply kind, reply body)``.
    _HANDLERS = {
        KIND_QUERY: _handle_query,
        KIND_SUBSCRIBE: _handle_subscribe,
        KIND_TELEMETRY: _handle_telemetry,
    }

    # ------------------------------------------------------------------
    # Standing-query publication
    # ------------------------------------------------------------------
    async def publish_windows(self, now: int, endpoint=None) -> int:
        """Advance simulated time; push ``UPDATE`` frames to subscribers.

        Every subscription with a wire ``requester`` gets one ``UPDATE``
        frame per sealed boundary (ciphertexts hex-encoded in the JSON
        control payload — the querier, the only key holder, decrypts).
        Returns the number of updates published. Queued ingest drains
        first: a pane must never seal under a delta that already arrived
        (it would be dropped as late on fold).
        """
        await self.ingest.drain()
        published = self.standing.advance(now)
        sent = 0
        for sub_id, updates in published.items():
            sub = self.standing.subscription(sub_id)
            sent += len(updates)
            if endpoint is None or sub.requester is None:
                continue
            for update in updates:
                frame = Frame(
                    kind=KIND_UPDATE,
                    sender=endpoint.name,
                    seq=update.index,
                    payload=encode_json_payload(
                        {
                            "subscription": sub_id,
                            "index": update.index,
                            "window_start": update.window_start,
                            "window_end": update.window_end,
                            "live_value": f"{update.live_value:x}",
                            "live_count": f"{update.live_count:x}",
                            "window_value": f"{update.window_value:x}",
                            "window_count": f"{update.window_count:x}",
                            "deltas": update.deltas,
                            "version": update.version,
                        }
                    ),
                )
                await endpoint.send(sub.requester, frame)
        return sent
