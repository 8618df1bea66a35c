"""Asynchronous [TNP14] drivers over the :mod:`repro.net` runtime.

:meth:`repro.globalq.protocol.ProtocolFamily.run` executes the three
protocol phases as in-process calls. :class:`AsyncGlobalQuery` takes the
same family object (:mod:`repro.globalq.secureagg`,
:mod:`repro.globalq.noise`, :mod:`repro.globalq.histogram`) and runs the
*same* three phases as concurrent actors on a simulated network:

1. **Collection** — contributions are prepared by the family's own
   sharded collector (bit-identical to the synchronous driver's), then
   every PDS node is its own task under churn; each contribution is a
   ``CONTRIB`` frame retransmitted with exponential backoff until the SSI
   ACKs it. The SSI deduplicates retransmissions by ``(sender,
   sequence)``, so the collected bag is exactly the synchronous one no
   matter how lossy the links are.
2. **Partitioning** — the family's own rule (the family *is* the
   partitioning rule), over
   :class:`~repro.globalq.ssi.SupportingServerInfrastructure` so covert
   SSI behaviours and observation recording carry over.
3. **Aggregation** — a pool of connected tokens concurrently ``CLAIM``
   partitions from the SSI; a token that churns away mid-partition is timed
   out and its partition reassigned; partial aggregates travel to the
   querier as ``PARTIAL`` frames (acked, deduplicated by partition id).

Because collection is exactly-once and aggregation is deterministic per
partition, the final answer equals the synchronous driver's answer on the
same seeds — under message loss, node churn, and token failures. That
equivalence is the subsystem's correctness anchor
(``tests/test_net_protocol.py``).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro import obs
from repro.errors import NetTimeout, ProtocolError, RetriesExhausted
from repro.globalq.protocol import (
    ProtocolFamily,
    ProtocolReport,
    merge_outcomes,
)
from repro.globalq.queries import AggregateQuery
from repro.globalq.ssi import SupportingServerInfrastructure
from repro.globalq.tokens import PdsNode, TrustedAggregator
from repro.net.bus import LinkProfile, MessageBus
from repro.net.codec import (
    KIND_ACK,
    KIND_ASSIGN,
    KIND_CLAIM,
    KIND_CONTRIB,
    KIND_DONE,
    KIND_FIN,
    KIND_PARTIAL,
    KIND_PLAN,
    KIND_WAIT,
    Frame,
    decode_contribution,
    decode_outcome,
    decode_partition,
    encode_contribution,
    encode_outcome,
    encode_partition,
    pack_u32,
    unpack_u32,
)
from repro.net.messages import (
    AggregationOutcome,
    ContributionBag,
    EncryptedContribution,
    Partition,
)
from repro.net.retry import RetryPolicy, with_retries
from repro.net.runtime import ChurnModel, NodeRuntime

#: Sequence number reserved for the SSI -> querier PLAN exchange.
_PLAN_SEQ = 0xFFFFFFFF


async def _cancel_all(tasks: list[asyncio.Task]) -> None:
    """Cancel tasks and wait them out, re-cancelling if a cancel is eaten
    by a timeout race (belt and braces on top of Endpoint.recv's own
    cancellation-safe timeout handling)."""
    for task in tasks:
        task.cancel()
    for _ in range(10):
        done, pending = await asyncio.wait(tasks, timeout=0.5)
        if not pending:
            return
        for task in pending:
            task.cancel()
    raise RuntimeError(f"{len(pending)} protocol tasks refused cancellation")


@dataclass
class _TokenStats:
    """Counters shared by the token-worker tasks of one run."""

    decryptions: int = 0
    invocations: int = 0
    walkaways: int = 0  # tokens that disconnected mid-partition


class _SsiActor:
    """The untrusted-but-available side: collect, assign, reap, finish."""

    def __init__(
        self,
        core: SupportingServerInfrastructure,
        endpoint,
        assign_timeout: float,
    ) -> None:
        self.core = core
        self.endpoint = endpoint
        self.assign_timeout = assign_timeout
        self.seen: set[tuple[str, int]] = set()
        self.partitions: dict[int, Partition] | None = None
        self.pending: list[int] = []
        self.assigned: dict[int, float] = {}
        self.completed: set[int] = set()
        self.reassignments = 0
        self._plan_acked = False
        self._plan_resend_at = 0.0

    def open_aggregation(self, partitions: dict[int, Partition]) -> None:
        self.partitions = partitions
        self.pending = sorted(partitions)

    def _reap(self, now: float) -> None:
        """Reassign partitions whose token never finished (churned away)."""
        overdue = [
            pid for pid, deadline in self.assigned.items() if deadline <= now
        ]
        for pid in overdue:
            del self.assigned[pid]
            if pid not in self.completed:
                self.pending.append(pid)
                self.reassignments += 1

    async def serve(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            now = loop.time()
            self._reap(now)
            if (
                self.partitions is not None
                and not self._plan_acked
                and now >= self._plan_resend_at
            ):
                await self.endpoint.send(
                    "querier",
                    Frame(
                        KIND_PLAN, self.endpoint.name, _PLAN_SEQ,
                        pack_u32(len(self.partitions)),
                    ),
                )
                self._plan_resend_at = loop.time() + 0.05
            try:
                frame = await self.endpoint.recv(timeout=0.02)
            except NetTimeout:
                continue  # idle tick: loop back for reap / plan resend
            except ProtocolError:
                continue  # garbage frame: drop it
            # Drain the burst already queued through the non-blocking fast
            # path — with thousands of nodes uploading at once, one frame
            # per timer tick cannot keep up with the retransmission storm.
            drained = 0
            while frame is not None and drained < 1024:
                await self._handle(frame)
                drained += 1
                try:
                    frame = self.endpoint.try_recv()
                except ProtocolError:
                    frame = None  # garbage frame ends this drain round

    async def _handle(self, frame: Frame) -> None:
        if frame.kind == KIND_CONTRIB:
            key = (frame.sender, frame.seq)
            if key not in self.seen:
                self.seen.add(key)
                # The behaviour knobs (drop/duplicate/forge) apply here,
                # exactly as in the synchronous collection phase.
                self.core.collect(
                    ContributionBag.of([decode_contribution(frame.payload)])
                )
            # Always ACK — a weakly malicious SSI acknowledges what it
            # drops, precisely so the sender will not retry.
            await self.endpoint.send(
                frame.sender,
                Frame(KIND_ACK, self.endpoint.name, frame.seq),
            )
        elif frame.kind == KIND_ACK and frame.seq == _PLAN_SEQ:
            self._plan_acked = True
        elif frame.kind == KIND_CLAIM:
            await self._handle_claim(frame)
        elif frame.kind == KIND_DONE:
            pid = unpack_u32(frame.payload)
            self.completed.add(pid)
            self.assigned.pop(pid, None)
            if pid in self.pending:
                self.pending.remove(pid)

    async def _handle_claim(self, frame: Frame) -> None:
        if self.partitions is None:
            reply = Frame(KIND_WAIT, self.endpoint.name, frame.seq)
        elif self.pending:
            pid = self.pending.pop(0)
            loop = asyncio.get_running_loop()
            self.assigned[pid] = loop.time() + self.assign_timeout
            reply = Frame(
                KIND_ASSIGN, self.endpoint.name, frame.seq,
                encode_partition(pid, self.partitions[pid].contributions()),
            )
        elif len(self.completed) >= len(self.partitions):
            reply = Frame(KIND_FIN, self.endpoint.name, frame.seq)
        else:
            reply = Frame(KIND_WAIT, self.endpoint.name, frame.seq)
        await self.endpoint.send(frame.sender, reply)


class _QuerierActor:
    """The querying citizen's token: collects deduplicated partials."""

    def __init__(self, endpoint) -> None:
        self.endpoint = endpoint
        self.expected: int | None = None
        self.outcomes: dict[int, AggregationOutcome] = {}
        self.done = asyncio.Event()

    async def serve(self) -> None:
        while True:
            try:
                frame = await self.endpoint.recv(timeout=0.05)
            except (NetTimeout, ProtocolError):
                continue
            await self._handle(frame)
            while True:
                try:
                    frame = self.endpoint.try_recv()
                except ProtocolError:
                    break
                if frame is None:
                    break
                await self._handle(frame)

    async def _handle(self, frame: Frame) -> None:
        if frame.kind == KIND_PLAN:
            self.expected = unpack_u32(frame.payload)
            await self.endpoint.send(
                frame.sender,
                Frame(KIND_ACK, self.endpoint.name, _PLAN_SEQ),
            )
        elif frame.kind == KIND_PARTIAL:
            pid, outcome = decode_outcome(frame.payload)
            await self.endpoint.send(
                frame.sender,
                Frame(KIND_ACK, self.endpoint.name, frame.seq),
            )
            if pid not in self.outcomes:
                self.outcomes[pid] = outcome
                # Tell the SSI to stop reassigning this partition.
                # Fire-and-forget: if lost, the reaper merely hands the
                # partition out again and the duplicate is ignored here.
                await self.endpoint.send(
                    "ssi",
                    Frame(KIND_DONE, self.endpoint.name, pid, pack_u32(pid)),
                )
        if (
            self.expected is not None
            and len(self.outcomes) >= self.expected
        ):
            self.done.set()


@dataclass
class AsyncGlobalQuery:
    """Asynchronous driver for one [TNP14] protocol family.

    ``family`` is the very object the synchronous driver runs — it brings
    the fleet, the collection options, the partition rule, the SSI
    behaviour and the rng. Produces the same
    :class:`~repro.globalq.protocol.ProtocolReport`, with ``comm_*`` read
    off the network metrics and ``report.net_metrics`` holding the full
    :class:`~repro.net.metrics.NetMetrics`.
    """

    family: ProtocolFamily
    num_tokens: int = 8
    token_failure_rate: float = 0.0
    churn: ChurnModel | None = None
    link: LinkProfile | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    queue_size: int = 4096
    assign_timeout: float = 0.5
    deadline: float = 60.0
    time_scale: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.family, ProtocolFamily):
            raise ProtocolError(f"unknown protocol family {self.family!r}")
        if not 0.0 <= self.token_failure_rate < 1.0:
            raise ValueError("token failure rate must be in [0, 1)")
        if self.num_tokens < 1:
            raise ValueError("need at least one aggregator token")

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run_sync(
        self, nodes: list[PdsNode], query: AggregateQuery
    ) -> ProtocolReport:
        """Convenience wrapper: drive the event loop to completion."""
        return asyncio.run(self.run(nodes, query))

    async def run(
        self, nodes: list[PdsNode], query: AggregateQuery
    ) -> ProtocolReport:
        family = self.family
        rng = family.rng
        bus = MessageBus(
            rng=random.Random(rng.getrandbits(32)),
            default_link=self.link or LinkProfile(),
            time_scale=self.time_scale,
        )
        metrics = bus.metrics
        tracer = obs.get_tracer()
        if tracer is not None:
            # Per-run metrics start at zero, so watching them mid-trace
            # attributes the whole run to the spans below.
            tracer.watch_net(metrics)
        ssi_endpoint = bus.register("ssi", queue_size=self.queue_size)
        querier_endpoint = bus.register("querier", queue_size=self.queue_size)
        token_endpoints = [
            bus.register(f"token-{i}", queue_size=256)
            for i in range(self.num_tokens)
        ]
        runtime = NodeRuntime(
            bus, churn=self.churn,
            rng=random.Random(rng.getrandbits(32)),
        )

        # Local evaluation happens inside each token before any traffic,
        # through the family's own sharded collector — bit-identical to
        # the synchronous driver for the same fleet and collection seed.
        prepared: list[tuple[str, list[EncryptedContribution]]] = []
        tuples_sent = fakes_sent = 0
        for pds_id, contributions, fake_count in family.collect(
            nodes, query
        ).per_pds():
            tuples_sent += len(contributions)
            fakes_sent += fake_count
            name = f"pds-{pds_id}"
            runtime.register_node(name, queue_size=64)
            prepared.append((name, contributions))

        core = SupportingServerInfrastructure(family.ssi_behavior, rng)
        ssi = _SsiActor(core, ssi_endpoint, self.assign_timeout)
        querier = _QuerierActor(querier_endpoint)
        stats = _TokenStats()
        service_tasks = [
            asyncio.ensure_future(ssi.serve()),
            asyncio.ensure_future(querier.serve()),
        ]
        worker_tasks: list[asyncio.Task] = []
        try:
            metrics.set_phase("collection")
            # Stagger the first transmissions across a short window so ten
            # thousand nodes do not fire their first CONTRIB on the same
            # loop tick (a real deployment's uplinks are not synchronized).
            stagger = random.Random(rng.getrandbits(32))
            window = min(0.5, 0.00025 * len(prepared))
            with obs.span(
                "protocol.collection",
                family=family.name,
                nodes=len(prepared),
            ):
                await asyncio.wait_for(
                    runtime.run(
                        {
                            name: self._push_contributions(
                                bus.endpoint(name),
                                contributions,
                                metrics,
                                start_delay=stagger.random() * window,
                            )
                            for name, contributions in prepared
                        }
                    ),
                    timeout=self.deadline,
                )

            metrics.set_phase("partitioning")
            with obs.span("protocol.partitioning", family=family.name) as sp:
                partitions = dict(enumerate(family.partition(core)))
                ssi.open_aggregation(partitions)
                sp.set(partitions=len(partitions))

            metrics.set_phase("aggregation")
            with obs.span(
                "protocol.aggregation",
                family=family.name,
                tokens=self.num_tokens,
            ):
                worker_tasks = [
                    asyncio.ensure_future(
                        self._token_worker(endpoint, stats, metrics)
                    )
                    for endpoint in token_endpoints
                ]
                try:
                    await asyncio.wait_for(querier.done.wait(), self.deadline)
                except asyncio.TimeoutError:
                    raise ProtocolError(
                        f"async query missed its {self.deadline:.0f}s "
                        f"deadline ({len(querier.outcomes)} partials of "
                        f"{querier.expected})"
                    ) from None

            metrics.set_phase("merge")
            with obs.span("protocol.merge", family=family.name):
                ordered = [
                    querier.outcomes[pid] for pid in sorted(querier.outcomes)
                ]
                result, failures, duplicates = merge_outcomes(ordered, query)
        finally:
            await _cancel_all(service_tasks + worker_tasks)
            await bus.close()

        return ProtocolReport(
            result=result,
            protocol=f"async-{family.label}",
            num_pds=len(nodes),
            tuples_sent=tuples_sent,
            fake_tuples_sent=fakes_sent,
            token_decryptions=stats.decryptions,
            token_invocations=stats.invocations + 1,  # + the querier merge
            comm_bytes=metrics.comm.bytes,
            comm_messages=metrics.comm.messages,
            integrity_failures=failures,
            duplicates_detected=duplicates,
            aggregator_retries=ssi.reassignments,
            ssi_tag_histogram=dict(core.observations.group_tag_counts),
            ssi_bucket_histogram=dict(core.observations.bucket_counts),
            net_metrics=metrics,
        )

    # ------------------------------------------------------------------
    # Actor bodies
    # ------------------------------------------------------------------
    async def _push_contributions(
        self, endpoint, contributions, metrics, start_delay: float = 0.0
    ) -> None:
        """One PDS node's collection task: reliable upload of each tuple."""
        if start_delay > 0.0:
            await asyncio.sleep(start_delay)
        for sequence, contribution in enumerate(contributions):
            frame = Frame(
                KIND_CONTRIB, endpoint.name, sequence,
                encode_contribution(contribution),
            )

            async def attempt(_attempt, frame=frame, sequence=sequence):
                await endpoint.send("ssi", frame)
                await endpoint.recv_match(
                    lambda f: f.kind == KIND_ACK and f.seq == sequence,
                    timeout=self.retry.timeout,
                )

            try:
                await with_retries(
                    attempt, self.retry, self.family.rng,
                    description=f"{endpoint.name} contribution {sequence}",
                )
            except RetriesExhausted:
                metrics.on_retry_exhausted("contribution")
                raise

    async def _token_worker(
        self, endpoint, stats: _TokenStats, metrics
    ) -> None:
        """One connected token: claim partitions until the SSI says FIN."""
        rng = self.family.rng
        claim_seq = 0
        while True:
            claim_seq += 1
            seq = claim_seq

            async def claim(_attempt, seq=seq):
                await endpoint.send(
                    "ssi", Frame(KIND_CLAIM, endpoint.name, seq)
                )
                return await endpoint.recv_match(
                    lambda f: f.seq == seq
                    and f.kind in (KIND_ASSIGN, KIND_WAIT, KIND_FIN),
                    timeout=self.retry.timeout,
                )

            try:
                reply = await with_retries(
                    claim, self.retry, rng,
                    description=f"{endpoint.name} claim",
                )
            except RetriesExhausted:
                metrics.on_retry_exhausted("claim")
                return  # token gives up; remaining tokens carry the load
            if reply.kind == KIND_FIN:
                return
            if reply.kind == KIND_WAIT:
                await asyncio.sleep(self.retry.base_delay)
                continue
            pid, partition = decode_partition(reply.payload)
            if (
                self.token_failure_rate
                and rng.random() < self.token_failure_rate
            ):
                # The token disconnects inside its secure perimeter; the
                # SSI's reaper reassigns the (ciphertext) partition.
                stats.walkaways += 1
                continue
            outcome = TrustedAggregator(self.family.fleet).aggregate(
                [contribution.blob for contribution in partition]
            )
            stats.decryptions += len(partition)
            stats.invocations += 1
            payload = encode_outcome(pid, outcome)

            async def push_partial(_attempt, pid=pid, payload=payload):
                await endpoint.send(
                    "querier",
                    Frame(KIND_PARTIAL, endpoint.name, pid, payload),
                )
                await endpoint.recv_match(
                    lambda f: f.kind == KIND_ACK and f.seq == pid,
                    timeout=self.retry.timeout,
                )

            try:
                await with_retries(
                    push_partial, self.retry, rng,
                    description=f"{endpoint.name} partial {pid}",
                )
            except RetriesExhausted:
                metrics.on_retry_exhausted("partial")
                continue  # partition will be reaped and reassigned
