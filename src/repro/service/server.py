"""The long-lived SSI query service: scheduling, caching, accounting.

Everything before this PR runs a query the way a benchmark does — build the
population, run one protocol, exit. :class:`SsiQueryService` runs the SSI
the way the tutorial deploys it: a persistent server multiplexing many
concurrent [TNP14] queries over one shared population while tokens churn
and citizens ``forget()``. Three mechanisms make that safe:

* **admission + scheduling** — arrivals pass the
  :class:`~repro.service.admission.AdmissionController` (bounded queues,
  typed :class:`~repro.service.admission.Overloaded` shedding, round-robin
  class fairness); exactly ``max_in_flight`` worker loops execute admitted
  queries on a thread pool, so protocol CPU never blocks the event loop;
* **snapshot execution** — each execution freezes the population
  (:meth:`ServicePopulation.snapshot`) and derives its seed from the
  (descriptor, version) pair, so the answer is bit-identical to the one-shot
  batch driver run over the same snapshot — concurrency cannot perturb it;
* **version-exact caching** — results are cached per canonical descriptor
  and served only while the population version is unchanged
  (:class:`~repro.service.cache.ResultCache`).

Latency accounting flows through ``repro.obs``: per-query spans plus
streaming :class:`~repro.obs.metrics.PercentileHistogram` latency
(p50/p99/p999) overall and per query class.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.crypto.paillier import PaillierPublicKey
from repro.errors import NetError, ProtocolError, QueryError
from repro.globalq.continuous import EncryptedDelta, WindowSpec
from repro.globalq.parallel import DEFAULT_SHARD_SIZE, WorkerPool
from repro.net.codec import (
    KIND_DELTA,
    KIND_DELTA_BATCH,
    KIND_QUERY,
    KIND_REJECT,
    KIND_RESULT,
    KIND_SUBSCRIBE,
    KIND_TELEMETRY,
    KIND_UPDATE,
    Frame,
    decode_delta,
    decode_delta_batch,
    decode_json_payload,
    encode_json_payload,
)
from repro.obs import telemetry as obs_telemetry
from repro.service.admission import AdmissionController, Overloaded
from repro.service.cache import CacheEntry, ResultCache
from repro.service.descriptor import QueryDescriptor, derive_seed
from repro.service.population import PopulationSnapshot, ServicePopulation
from repro.service.reference import run_query
from repro.service.standing import StandingRegistry
from repro.workloads.people import CITIES


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one service instance."""

    #: Concurrent executions (worker loops / executor threads).
    max_in_flight: int = 4
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
    #: Executor for embedded-spj queries: None = engine default (columnar
    #: batches), 0 = legacy tuple-at-a-time, N = explicit batch row count.
    #: Never part of the descriptor — both executors answer identically.
    embedded_batch_size: int | None = None
    #: Queued deltas (across all subscriptions) before ingest shedding.
    ingest_queue_depth: int = 4096
    #: Max deltas folded per ingest batch (one executor round trip).
    ingest_batch_max: int = 256
    #: Deltas per fold shard of the batch fold engine (None = default).
    #: Like ``shard_size`` it never depends on the worker count, so every
    #: (workers, batch) cell folds bit-identical pane products.
    fold_shard_size: int | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
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
    """One admitted query waiting for a worker loop."""

    descriptor: QueryDescriptor
    submitted_at: float
    future: asyncio.Future
    #: Distributed trace context the execution runs under (or None).
    trace: obs_telemetry.TraceContext | None = None


class _IngestQueue:
    """Bounded per-subscription delta queues with round-robin fairness.

    One deque per subscription, drained one delta per subscription per
    rotation — a PDS storm against one subscription cannot starve the
    others, the exact fairness discipline the admission controller applies
    to query classes. The bound is global (total queued deltas): overflow
    raises a typed :class:`Overloaded` so the wire layer sheds with the
    same vocabulary as query admission. Pure data structure — all calls
    happen on the event-loop thread.
    """

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.size = 0
        self._queues: OrderedDict[int, deque] = OrderedDict()

    def push(self, sub_id: int, delta: EncryptedDelta) -> None:
        if self.size >= self.depth:
            raise Overloaded("ingest", queued=self.size, limit=self.depth)
        queue = self._queues.get(sub_id)
        if queue is None:
            queue = self._queues[sub_id] = deque()
        queue.append(delta)
        self.size += 1

    def pop_batch(self, limit: int) -> list[tuple[int, EncryptedDelta]]:
        """Up to ``limit`` deltas, one per subscription per rotation."""
        out: list[tuple[int, EncryptedDelta]] = []
        while self._queues and len(out) < limit:
            sub_id, queue = self._queues.popitem(last=False)
            out.append((sub_id, queue.popleft()))
            self.size -= 1
            if queue:
                self._queues[sub_id] = queue  # back of the rotation
        return out


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
        self.registry.register_stats("service.admission", self.admission.stats)
        self.registry.register_stats("service.cache", self.cache.stats)
        self._workers: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._running = False
        # Ingest pipeline: deltas queue here off the reader loop and fold
        # in batches on a dedicated executor thread, never on the loop.
        self._ingest_queue = _IngestQueue(self.config.ingest_queue_depth)
        self._ingest_pending = 0
        self._ingest_task: asyncio.Task | None = None
        self._ingest_executor: ThreadPoolExecutor | None = None
        self._ingest_event: asyncio.Event | None = None
        self._ingest_idle: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_in_flight,
            thread_name_prefix="ssi-query",
        )
        self._workers = [
            asyncio.ensure_future(self._worker_loop(i))
            for i in range(self.config.max_in_flight)
        ]
        # One dedicated fold thread: batch folds serialize through the
        # registry lock anyway, and a separate executor keeps a delta storm
        # from stealing query-execution threads (and vice versa).
        self._ingest_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ssi-ingest"
        )
        self._ingest_event = asyncio.Event()
        self._ingest_idle = asyncio.Event()
        self._ingest_idle.set()
        self._ingest_task = asyncio.ensure_future(self._ingest_loop())

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for ticket in self.admission.drain():
            if not ticket.future.done():
                ticket.future.set_exception(NetError("service stopped"))
        for task in self._workers:
            task.cancel()
        if self._ingest_task is not None:
            self._ingest_task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        if self._ingest_task is not None:
            try:
                await self._ingest_task
            except asyncio.CancelledError:
                pass
            self._ingest_task = None
        if self._ingest_executor is not None:
            self._ingest_executor.shutdown(wait=True)
            self._ingest_executor = None
        if self._executor is not None:
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
            with obs_telemetry.activate(trace):
                with obs.span(
                    "service.cache_hit",
                    query_class=descriptor.query_class,
                    version=hit.version,
                ):
                    latency = time.perf_counter() - started
                    served = ServedResult(
                        descriptor=descriptor,
                        result=hit.result,
                        version=hit.version,
                        seed=hit.seed,
                        cached=True,
                        latency_s=latency,
                        snapshot=hit.snapshot,
                        stats=hit.stats,
                    )
                    self._account(served)
            return served
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
    # Worker loops
    # ------------------------------------------------------------------
    async def _worker_loop(self, index: int) -> None:
        tracer = obs.get_tracer()
        if tracer is not None:
            tracer.label_current_track(f"ssi-worker-{index}")
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
        # The population may have changed (and the cache been refilled by a
        # sibling worker) between admission and dequeue — re-check.
        hit = self.cache.get(descriptor)
        if hit is not None:
            served = ServedResult(
                descriptor=descriptor,
                result=hit.result,
                version=hit.version,
                seed=hit.seed,
                cached=True,
                latency_s=time.perf_counter() - ticket.submitted_at,
                snapshot=hit.snapshot,
                stats=hit.stats,
            )
            self._account(served)
            return served
        snapshot = self.population.snapshot()
        seed = derive_seed(descriptor, snapshot.version, self.config.seed)
        loop = asyncio.get_running_loop()
        with obs_telemetry.activate(ticket.trace):
            with obs.span(
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
                    self.config.embedded_batch_size,
                )
        stats = {
            "num_pds": report.num_pds,
            "tuples_sent": report.tuples_sent,
            "token_invocations": report.token_invocations,
            "comm_bytes": report.comm_bytes,
        }
        entry = CacheEntry(
            version=snapshot.version,
            result=report.result,
            seed=seed,
            snapshot=snapshot if self.config.record_snapshots else None,
            stats=stats,
        )
        self.cache.put(descriptor, entry)
        served = ServedResult(
            descriptor=descriptor,
            result=report.result,
            version=snapshot.version,
            seed=seed,
            cached=False,
            latency_s=time.perf_counter() - ticket.submitted_at,
            snapshot=entry.snapshot,
            stats=stats,
        )
        self._account(served)
        return served

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _account(self, served: ServedResult) -> None:
        latency_ms = served.latency_s * 1000.0
        self.registry.counter("service.completed").inc()
        if served.cached:
            self.registry.counter("service.cache_hits_served").inc()
        self.registry.percentiles("service.latency_ms").observe(latency_ms)
        self.registry.percentiles(
            f"service.latency_ms.{served.descriptor.query_class}"
        ).observe(latency_ms)
        if self.telemetry is not None:
            self.telemetry.observe_latency(
                served.descriptor.query_class, latency_ms
            )

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
        """Answer ``QUERY`` frames arriving on a bus endpoint.

        Payloads are canonical JSON: a query is ``{"request_id", the
        descriptor fields}``; the reply is a ``RESULT`` (answer + version +
        provenance) or a ``REJECT`` carrying the typed overload fields.
        Each request is dispatched as its own task — the receive loop never
        blocks on an execution, so wire queriers genuinely contend for the
        scheduler (and overflow genuinely sheds). Runs until cancelled —
        the demo and tests wrap it in a task.
        """
        dispatched: set[asyncio.Task] = set()
        seq = 0
        try:
            while True:
                frame = await endpoint.recv()
                if frame.kind == KIND_TELEMETRY:
                    seq += 1
                    task = asyncio.ensure_future(
                        self._answer_telemetry(endpoint, frame, seq)
                    )
                elif frame.kind == KIND_QUERY:
                    seq += 1
                    task = asyncio.ensure_future(
                        self._answer_frame(endpoint, frame, seq)
                    )
                elif frame.kind == KIND_SUBSCRIBE:
                    seq += 1
                    task = asyncio.ensure_future(
                        self._answer_subscribe(endpoint, frame, seq)
                    )
                elif frame.kind == KIND_DELTA:
                    # Fire-and-forget: decode inline (poison frames count
                    # immediately), fold off-loop via the ingest queue.
                    self._ingest_delta(frame)
                    continue
                elif frame.kind == KIND_DELTA_BATCH:
                    self._ingest_delta_batch(frame)
                    continue
                else:
                    continue
                dispatched.add(task)
                task.add_done_callback(dispatched.discard)
        finally:
            for task in dispatched:
                task.cancel()

    async def _answer_telemetry(self, endpoint, frame: Frame, seq: int) -> None:
        request = decode_json_payload(frame.payload) if frame.payload else {}
        reply = Frame(
            kind=KIND_TELEMETRY,
            sender=endpoint.name,
            seq=seq,
            payload=encode_json_payload(
                {
                    "request_id": request.get("request_id"),
                    **self.telemetry_snapshot(),
                }
            ),
        )
        await endpoint.send(frame.sender, reply)

    async def _answer_frame(self, endpoint, frame: Frame, seq: int) -> None:
        """Answer one ``QUERY`` frame: always exactly one reply.

        ``RESULT`` on success, else a ``REJECT`` whose ``error`` says why:
        ``overloaded`` (shed, with the typed admission fields),
        ``bad_request`` (payload or descriptor does not parse) or
        ``failed`` (the execution raised). A poison frame or a crashed
        execution never leaves the querier waiting or the endpoint down.
        """

        async def reject(request_id, error: str, trace=None, **fields):
            payload = {"request_id": request_id, "error": error, **fields}
            await endpoint.send(
                frame.sender,
                Frame(
                    kind=KIND_REJECT,
                    sender=endpoint.name,
                    seq=seq,
                    payload=encode_json_payload(payload),
                    trace=trace,
                ),
            )

        try:
            request = decode_json_payload(frame.payload)
        except ProtocolError as exc:
            self.registry.counter("service.query.rejected").inc()
            await reject(None, "bad_request", detail=str(exc))
            return
        request_id = request.get("request_id")
        # The frame's trace context links this span under the querier's
        # sending span; the child context handed to submit() then links
        # admission/execution under this one.
        with obs_telemetry.activate(frame.trace):
            with obs.span(
                "service.frame",
                kind=frame.kind_name,
                sender=frame.sender,
                request_id=request_id,
            ) as frame_span:
                child = None
                if frame.trace is not None:
                    child = frame.trace.child(frame_span.span_id)
                try:
                    descriptor = QueryDescriptor.from_dict(request)
                    served = await self.submit(descriptor, trace=child)
                except Overloaded as exc:
                    await reject(
                        request_id,
                        "overloaded",
                        child,
                        query_class=exc.query_class,
                        queued=exc.queued,
                        limit=exc.limit,
                    )
                    return
                except QueryError as exc:
                    self.registry.counter("service.query.rejected").inc()
                    await reject(
                        request_id, "bad_request", child, detail=str(exc)
                    )
                    return
                except Exception as exc:  # the endpoint must keep answering
                    self.registry.counter("service.query.failed").inc()
                    obs.event(
                        "service.query.failed",
                        request_id=request_id,
                        error=repr(exc),
                    )
                    await reject(
                        request_id, "failed", child, detail=repr(exc)
                    )
                    return
                reply = Frame(
                    kind=KIND_RESULT,
                    sender=endpoint.name,
                    seq=seq,
                    payload=encode_json_payload(
                        {
                            "request_id": request_id,
                            "result": served.result,
                            "version": served.version,
                            "seed": served.seed,
                            "cached": served.cached,
                            "latency_ms": served.latency_s * 1000.0,
                        }
                    ),
                    trace=child,
                )
                await endpoint.send(frame.sender, reply)

    # ------------------------------------------------------------------
    # Standing queries over the wire
    # ------------------------------------------------------------------
    async def _answer_subscribe(self, endpoint, frame: Frame, seq: int) -> None:
        """Register a standing query from a ``SUBSCRIBE`` frame.

        The payload is the canonical descriptor dict plus ``window``
        (width/slide), the querier's public modulus ``public_n`` (hex) and
        an optional ``start``. Wire subscriptions are wire-fed: the PDSs
        push their own ``DELTA`` frames, the service only folds. The reply
        echoes the subscription id and the population version, or a
        ``REJECT`` with the validation error.
        """
        request = decode_json_payload(frame.payload)
        request_id = request.get("request_id")
        try:
            descriptor = QueryDescriptor.from_dict(request)
            spec = WindowSpec.from_dict(request.get("window") or {})
            public_n = int(request["public_n"], 16)
            public = PaillierPublicKey(n=public_n, n_squared=public_n * public_n)
            sub = self.standing.subscribe(
                descriptor,
                spec,
                public,
                start=request.get("start"),
                requester=frame.sender,
                local_source=bool(request.get("local_source", False)),
            )
        except (KeyError, ValueError, QueryError, ProtocolError) as exc:
            reply = Frame(
                kind=KIND_REJECT,
                sender=endpoint.name,
                seq=seq,
                payload=encode_json_payload(
                    {"request_id": request_id, "error": str(exc)}
                ),
            )
            await endpoint.send(frame.sender, reply)
            return
        self.registry.counter("service.subscriptions").inc()
        reply = Frame(
            kind=KIND_SUBSCRIBE,
            sender=endpoint.name,
            seq=seq,
            payload=encode_json_payload(
                {
                    "request_id": request_id,
                    "subscription": sub.sub_id,
                    "version": self.population.version,
                    "start": sub.start,
                    "window": sub.spec.to_dict(),
                }
            ),
        )
        await endpoint.send(frame.sender, reply)

    # ------------------------------------------------------------------
    # Delta ingest pipeline
    # ------------------------------------------------------------------
    def _reject_delta_frame(self) -> None:
        """One malformed/poison delta frame: counted, never fatal.

        Any decode failure lands here — not just :class:`ProtocolError`
        but anything a hostile payload can throw — so a poison frame can
        never tear down ``serve_endpoint``'s reader loop. Both names
        count: ``globalq.delta.rejected`` (the delta family's tally) and
        ``service.delta.rejected`` (the service-level guard).
        """
        self.registry.counter("globalq.delta.rejected").inc()
        self.registry.counter("service.delta.rejected").inc()

    def ingest_frame(self, frame: Frame) -> None:
        """Feed one ``DELTA``/``DELTA_BATCH`` frame into the ingest
        pipeline — the reader loop's dispatch, callable directly by
        in-process drivers (the delta storm bench, demos)."""
        if frame.kind == KIND_DELTA_BATCH:
            self._ingest_delta_batch(frame)
        elif frame.kind == KIND_DELTA:
            self._ingest_delta(frame)
        else:
            raise ProtocolError(f"not a delta frame: {frame.kind_name}")

    def _ingest_delta(self, frame: Frame) -> None:
        """Queue one wire ``DELTA`` frame; malformed frames are counted."""
        try:
            entry = decode_delta(frame.payload)
        except Exception:
            self._reject_delta_frame()
            return
        self._enqueue_deltas([entry])

    def _ingest_delta_batch(self, frame: Frame) -> None:
        """Queue one ``DELTA_BATCH`` frame's worth of deltas."""
        try:
            entries = decode_delta_batch(frame.payload)
        except Exception:
            self._reject_delta_frame()
            return
        self.registry.histogram("globalq.ingest.frame_batch").observe(
            len(entries)
        )
        self._enqueue_deltas(entries)

    def _enqueue_deltas(self, entries) -> None:
        """Push decoded deltas onto the bounded ingest queue (or fold
        inline when the service isn't running its ingest worker)."""
        if self._ingest_task is None:
            # No worker (service not started): legacy synchronous fold so
            # direct registry-style use keeps working.
            for sub_id, delta in entries:
                try:
                    self.standing.ingest(sub_id, delta)
                except ProtocolError:
                    self._reject_delta_frame()
            return
        accepted = 0
        for sub_id, delta in entries:
            try:
                self._ingest_queue.push(sub_id, delta)
            except Overloaded as exc:
                self._account_ingest_shed(exc)
            else:
                accepted += 1
        if accepted:
            self._ingest_pending += accepted
            self._ingest_idle.clear()
            self._ingest_event.set()
            self.registry.gauge("globalq.ingest.queue_depth").max(
                self._ingest_queue.size
            )

    def _account_ingest_shed(self, exc: Overloaded) -> None:
        self.registry.counter("globalq.ingest.shed").inc()
        obs.event(
            "globalq.ingest.shed",
            queued=exc.queued,
            limit=exc.limit,
        )
        if self.telemetry is not None:
            self.telemetry.recorder.trigger(
                "ingest_overloaded",
                queued=exc.queued,
                limit=exc.limit,
            )

    async def _ingest_loop(self) -> None:
        """Drain the ingest queue in batches on the ingest executor.

        The fold itself (big-int multiplication, possibly sharded onto the
        worker pool) runs on the dedicated ingest thread — the event loop
        only pops the queue and does the accounting, so a delta storm
        cannot stall frame receive or query scheduling.
        """
        tracer = obs.get_tracer()
        if tracer is not None:
            tracer.label_current_track("ssi-ingest")
        loop = asyncio.get_running_loop()
        while True:
            await self._ingest_event.wait()
            self._ingest_event.clear()
            while self._ingest_queue.size:
                batch = self._ingest_queue.pop_batch(
                    self.config.ingest_batch_max
                )
                started = time.perf_counter()
                try:
                    folded, rejected = await loop.run_in_executor(
                        self._ingest_executor,
                        self.standing.ingest_many,
                        batch,
                    )
                except asyncio.CancelledError:
                    raise
                except Exception:  # surface in metrics, never die
                    folded, rejected = 0, len(batch)
                    self.registry.counter("service.errors").inc()
                elapsed = time.perf_counter() - started
                self._ingest_pending -= len(batch)
                self._account_ingest(len(batch), folded, rejected, elapsed)
            if self._ingest_pending == 0:
                self._ingest_idle.set()

    def _account_ingest(
        self, batch: int, folded: int, rejected: int, elapsed: float
    ) -> None:
        self.registry.counter("globalq.ingest.deltas").inc(batch)
        if folded:
            self.registry.counter("globalq.ingest.folded").inc(folded)
        if rejected:
            self.registry.counter("globalq.ingest.rejected").inc(rejected)
        self.registry.histogram("globalq.ingest.batch_size").observe(batch)
        self.registry.percentiles("globalq.ingest.fold_ms").observe(
            elapsed * 1000.0
        )
        if elapsed > 0:
            self.registry.gauge("globalq.ingest.deltas_per_s").set(
                round(batch / elapsed, 1)
            )

    async def drain_ingest(self) -> None:
        """Wait until every queued delta has folded (publication barrier)."""
        if self._ingest_task is None or self._ingest_idle is None:
            return
        if self._ingest_pending:
            await self._ingest_idle.wait()

    async def publish_windows(self, now: int, endpoint=None) -> int:
        """Advance simulated time; push ``UPDATE`` frames to subscribers.

        Every subscription with a wire ``requester`` gets one ``UPDATE``
        frame per sealed boundary (ciphertexts hex-encoded in the JSON
        control payload — the querier, the only key holder, decrypts).
        Returns the number of updates published. Queued ingest drains
        first: a pane must never seal under a delta that already arrived
        (it would turn into a late-delta protocol error on fold).
        """
        await self.drain_ingest()
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
