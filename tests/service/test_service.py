"""Service scheduling: concurrency, bit-identity under churn, the wire path.

The headline assertion is the issue's acceptance criterion: with at least
eight mixed-class queries in flight and churn enabled, every completed
query's aggregate is bit-identical to the one-shot batch driver run over
the snapshot/seed the service recorded for it.
"""

import asyncio
import hashlib
import os
import random
import signal
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import NetError, NetTimeout
from repro.globalq.parallel import WorkerPool
from repro.globalq.queries import AggregateQuery
from repro.net.bus import MessageBus
from repro.net.codec import (
    KIND_NAMES,
    KIND_QUERY,
    KIND_REJECT,
    KIND_RESULT,
    KIND_SUBSCRIBE,
    KIND_TELEMETRY,
    Frame,
    decode_json_payload,
    encode_json_payload,
)
from repro.net.runtime import ChurnModel
from repro.obs.telemetry import Telemetry
from repro.service import (
    MembershipChurn,
    Overloaded,
    QueryDescriptor,
    ServiceConfig,
    SsiQueryService,
    run_query,
    slim_population,
    standard_mix,
)
from repro.service.descriptor import FAMILY_SECURE_AGG
from repro.service.reference import build_protocol


def run(coro):
    return asyncio.run(coro)


COUNT = QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.count())


class TestAcceptance:
    def test_concurrent_mixed_load_under_churn_is_bit_identical(self):
        """≥ 8 in-flight mixed queries + churn: every answer reproducible."""

        async def scenario():
            population = slim_population(150)
            service = SsiQueryService(
                population,
                ServiceConfig(
                    max_queue_depth=64,
                    cache_capacity=8,
                    record_snapshots=True,
                ),
            )
            service.start()
            churn = MembershipChurn(
                population,
                ChurnModel(offline_fraction=0.3, mean_online=0.02),
                rng=random.Random(5),
            )
            churn.start()
            mix = standard_mix()
            rng = random.Random(99)
            tasks = [
                asyncio.ensure_future(service.submit(mix.pick(rng)))
                for _ in range(16)
            ]
            served = await asyncio.gather(*tasks)
            await churn.stop()
            await service.stop()
            return population, service, served, churn

        population, service, served, churn = run(scenario())
        assert churn.flips > 0 or population.churn_events > 0
        assert len(served) == 16
        versions = {r.version for r in served}
        for result in served:
            reference = run_query(
                result.descriptor,
                result.snapshot.nodes,
                population.fleet,
                result.seed,
                service.config.domain,
            )
            assert reference.result == result.result
            assert result.snapshot.version == result.version
        # Churn actually interleaved with execution: the batch spans
        # multiple population versions (else the test proved nothing).
        assert len(versions) >= 1
        histogram = service.latency
        assert histogram.count == 16
        assert histogram.p50 <= histogram.p99 <= histogram.p999


class TestSchedulerMechanics:
    def test_threaded_queries_leave_fleet_key_state_untouched(self):
        """Regression: every ``TrustedAggregator`` drew a nonce seed from
        the one ``TokenFleet`` rng all executor threads share, although it
        only ever decrypts.

        The threads also share the fleet's keyed cipher states, so each
        concurrent query must emit the ciphertext stream and the report of
        its own serial run."""
        population = slim_population(80)
        nodes = population.snapshot().nodes
        fleet = population.fleet
        domain = ServiceConfig().domain

        def served(descriptor, seed):
            """(digest of the collected stream, the served report)."""
            stream = hashlib.sha256()
            bag = build_protocol(descriptor, fleet, seed, domain).collect(
                list(nodes), descriptor.query
            )
            for contribution in bag.contributions():
                stream.update(contribution.blob)
                stream.update(contribution.group_tag or b"-")
            return stream.hexdigest(), run_query(
                descriptor, nodes, fleet, seed, domain
            )

        before = fleet._rng.getstate()
        descriptors = standard_mix().descriptors() * 4
        serial = [
            served(descriptor, seed)
            for seed, descriptor in enumerate(descriptors)
        ]
        assert len({digest for digest, _ in serial}) == len(descriptors)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as executor:
                futures = [
                    executor.submit(served, descriptor, seed)
                    for seed, descriptor in enumerate(descriptors)
                ]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert all(report.integrity_failures == 0 for _, report in threaded)
        assert fleet._rng.getstate() == before

    def test_sheds_when_queues_full(self):
        async def scenario():
            population = slim_population(120)
            service = SsiQueryService(
                population,
                ServiceConfig(max_queue_depth=2, cache_capacity=0),
            )
            service.start()
            tasks = [
                asyncio.ensure_future(service.submit(COUNT))
                for _ in range(8)
            ]
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            await service.stop()
            return service, outcomes

        service, outcomes = run(scenario())
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        done = [o for o in outcomes if not isinstance(o, Exception)]
        # Depth 2 + the one executor: at most a handful admitted, the rest
        # shed with the typed rejection.
        assert shed and done
        assert all(exc.limit == 2 for exc in shed)
        assert service.admission.stats.shed == len(shed)
        snapshot = service.metrics_snapshot()
        assert snapshot["service.shed"] == len(shed)

    def test_executions_never_overlap(self):
        """One executor: the ``service.query`` spans of queries submitted
        together are pairwise disjoint on the wall clock."""

        async def scenario():
            with Telemetry(sample_rate=1.0) as bundle:
                service = SsiQueryService(
                    slim_population(120),
                    ServiceConfig(cache_capacity=0),
                    telemetry=bundle,
                )
                service.start()
                descriptors = standard_mix().descriptors() * 2
                await asyncio.gather(*map(service.submit, descriptors))
                await service.stop()
            return bundle.tracer.spans_named("service.query")

        spans = sorted(run(scenario()), key=lambda span: span.start_us)
        assert len(spans) == 8
        for earlier, later in zip(spans, spans[1:]):
            assert earlier.end_us <= later.start_us

    def test_queued_duplicates_run_one_execution(self):
        """k identical descriptors submitted at once: one executes, the
        dequeue-time re-check serves the other k-1 from its entry."""

        async def scenario():
            service = SsiQueryService(slim_population(120))
            service.start()
            served = await asyncio.gather(
                *(service.submit(COUNT) for _ in range(6))
            )
            await service.stop()
            return service, served

        service, served = run(scenario())
        assert [r.cached for r in served] == [False] + [True] * 5
        assert len({(str(r.result), r.version, r.seed) for r in served}) == 1
        assert service.cache.stats.insertions == 1
        snapshot = service.metrics_snapshot()
        assert snapshot["service.cache_hits_served"] == 5

    def test_fair_queue_order_is_execution_order(self):
        """Queued classes A,A,A,B execute round-robin: A,B,A,A."""

        async def scenario():
            service = SsiQueryService(
                slim_population(120), ServiceConfig(cache_capacity=0)
            )
            service.start()
            executed = []

            async def submit(descriptor):
                await service.submit(descriptor)
                executed.append(descriptor.query_class)

            a, b = standard_mix().descriptors()[:2]
            await asyncio.gather(*map(submit, [a, a, a, b]))
            await service.stop()
            return [a.query_class, b.query_class], executed

        (a, b), executed = run(scenario())
        assert a != b
        assert executed == [a, b, a, a]

    def test_submit_requires_running_service(self):
        async def scenario():
            service = SsiQueryService(slim_population(5))
            with pytest.raises(NetError, match="not running"):
                await service.submit(COUNT)

        run(scenario())

    def test_stop_fails_queued_tickets(self):
        async def scenario():
            population = slim_population(60)
            service = SsiQueryService(
                population,
                ServiceConfig(cache_capacity=0),
            )
            service.start()
            tasks = [
                asyncio.ensure_future(service.submit(COUNT))
                for _ in range(4)
            ]
            await asyncio.sleep(0)
            await service.stop()
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = run(scenario())
        assert any(isinstance(o, NetError) for o in outcomes)

    def test_per_class_latency_recorded(self):
        async def scenario():
            population = slim_population(40)
            service = SsiQueryService(population)
            service.start()
            mix = standard_mix()
            for descriptor in mix.descriptors():
                await service.submit(descriptor)
            await service.stop()
            return service, mix

        service, mix = run(scenario())
        snapshot = service.metrics_snapshot()
        assert snapshot["service.latency_ms"]["count"] == 4
        for descriptor in mix.descriptors():
            key = f"service.latency_ms.{descriptor.query_class}"
            assert snapshot[key]["count"] == 1


class TestWireFrontend:
    def test_query_frames_round_trip(self):
        async def scenario():
            bus = MessageBus()
            ssi = bus.register("ssi")
            querier = bus.register("querier")
            population = slim_population(50)
            service = SsiQueryService(
                population,
                ServiceConfig(record_snapshots=True),
            )
            service.start()
            server = asyncio.ensure_future(service.serve_endpoint(ssi))
            request = dict(COUNT.to_dict(), request_id=1)
            await querier.send(
                "ssi",
                Frame(KIND_QUERY, "querier", 1, encode_json_payload(request)),
            )
            reply = await querier.recv(timeout=5.0)
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            await service.stop()
            return reply

        reply = run(scenario())
        assert reply.kind == KIND_RESULT
        body = decode_json_payload(reply.payload)
        assert body["request_id"] == 1
        assert body["result"] == {"*": 50.0}
        assert body["cached"] is False

    def test_overload_reported_as_reject_frame(self):
        async def scenario():
            bus = MessageBus()
            ssi = bus.register("ssi")
            querier = bus.register("querier")
            population = slim_population(50)
            service = SsiQueryService(
                population,
                ServiceConfig(max_queue_depth=0, cache_capacity=0),
            )
            service.start()
            server = asyncio.ensure_future(service.serve_endpoint(ssi))
            request = dict(COUNT.to_dict(), request_id=7)
            await querier.send(
                "ssi",
                Frame(KIND_QUERY, "querier", 1, encode_json_payload(request)),
            )
            reply = await querier.recv(timeout=5.0)
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            await service.stop()
            return reply

        reply = run(scenario())
        assert reply.kind == KIND_REJECT
        body = decode_json_payload(reply.payload)
        assert body["request_id"] == 7
        assert body["error"] == "overloaded"
        assert body["limit"] == 0


SUBSCRIBE_BODY = dict(
    COUNT.to_dict(), window={"width": 2}, public_n=f"{(1 << 64) + 13:x}",
    start=0,
)

#: A well-formed payload per request kind and the reply kind it earns.
GOOD = {
    KIND_QUERY: (dict(COUNT.to_dict(), request_id="good"), KIND_RESULT),
    KIND_SUBSCRIBE: (dict(SUBSCRIBE_BODY, request_id="good"), KIND_SUBSCRIBE),
    KIND_TELEMETRY: ({"request_id": "good"}, KIND_TELEMETRY),
}

#: (request kind, poison payload, request id the REJECT echoes, a fragment
#: of its detail). Garbage bytes and non-object JSON for every kind; then
#: each field a handler reads, wrong-typed (TELEMETRY reads none).
POISON = [
    (kind, payload, None, "JSON")
    for kind in GOOD
    for payload in (b"garbage", b"{not json", b"[1, 2]")
] + [
    (kind, encode_json_payload(dict(body, request_id=request_id)),
     request_id, fragment)
    for request_id, (kind, body, fragment) in enumerate(
        [
            (KIND_QUERY, dict(COUNT.to_dict(), family="no-such"), "no-such"),
            (KIND_QUERY, {"family": FAMILY_SECURE_AGG}, "aggregate"),
            (KIND_QUERY, dict(COUNT.to_dict(), where=5), "descriptor"),
            (KIND_SUBSCRIBE, {"family": FAMILY_SECURE_AGG}, "aggregate"),
            (KIND_SUBSCRIBE, dict(SUBSCRIBE_BODY, window=[1]), "window"),
            (KIND_SUBSCRIBE, dict(SUBSCRIBE_BODY, window={"width": "x"}),
             "window"),
            (KIND_SUBSCRIBE, dict(SUBSCRIBE_BODY, start="x"), "start"),
            (KIND_SUBSCRIBE, dict(SUBSCRIBE_BODY, start=1.5), "start"),
            (KIND_SUBSCRIBE, dict(SUBSCRIBE_BODY, public_n=5), "public_n"),
            (KIND_SUBSCRIBE, dict(SUBSCRIBE_BODY, public_n="zz"), "public_n"),
            (KIND_SUBSCRIBE, dict(SUBSCRIBE_BODY, public_n=None), "public_n"),
            (KIND_SUBSCRIBE, dict(SUBSCRIBE_BODY, public_n="-5"), "public_n"),
        ],
        start=2,
    )
]


class TestQueryFrameGuard:
    """Every request frame gets exactly one reply, and the endpoint lives on.

    Regression: only ``Overloaded`` was guarded, so a malformed payload, an
    unknown family or a crashed execution left the querier waiting forever
    ("Task exception was never retrieved") — first for ``QUERY``, then
    still for ``SUBSCRIBE`` and ``TELEMETRY``, whose handlers decoded
    outside any guard (and ``"start": "x"`` was accepted).
    """

    @staticmethod
    async def exchange(config, frames, between=None):
        """Send ``(kind, payload)`` frames one at a time on one endpoint;
        the replies, with a check that nothing else was sent back."""
        bus = MessageBus()
        ssi = bus.register("ssi")
        querier = bus.register("querier")
        service = SsiQueryService(slim_population(50), config)
        service.start()
        server = asyncio.ensure_future(service.serve_endpoint(ssi))
        replies = []
        try:
            for seq, (kind, payload) in enumerate(frames):
                if between is not None:
                    between(seq)
                await querier.send("ssi", Frame(kind, "querier", seq, payload))
                reply = await querier.recv(timeout=30.0)
                replies.append(
                    (reply.kind, decode_json_payload(reply.payload))
                )
            with pytest.raises(NetTimeout):  # exactly one reply each
                await querier.recv(timeout=0.05)
            assert not server.done()
        finally:
            server.cancel()
            await service.stop()
        return replies, service.metrics_snapshot()

    @pytest.mark.parametrize(
        "kind, poison, request_id, fragment",
        POISON,
        ids=[
            f"{KIND_NAMES[kind]}-{index}"
            for index, (kind, *_rest) in enumerate(POISON)
        ],
    )
    def test_poison_frames_are_rejected_and_the_next_query_is_served(
        self, kind, poison, request_id, fragment
    ):
        body, reply_kind = GOOD[kind]
        good = (kind, encode_json_payload(body))
        query = (KIND_QUERY, encode_json_payload(GOOD[KIND_QUERY][0]))
        replies, metrics = run(
            self.exchange(
                ServiceConfig(cache_capacity=0),
                [(kind, poison), good, (kind, poison), good, query],
            )
        )
        assert [reply for reply, _ in replies] == [
            KIND_REJECT, reply_kind, KIND_REJECT, reply_kind, KIND_RESULT,
        ]
        for reject in (replies[0][1], replies[2][1]):
            assert reject["error"] == "bad_request"
            assert reject["request_id"] == request_id
            assert fragment in reject["detail"]
        for _, served in replies[1::2] + replies[4:]:
            assert served["request_id"] == "good"
        assert replies[4][1]["result"] == {"*": 50.0}
        assert metrics["service.query.rejected"] == 2
        assert "service.query.failed" not in metrics
        if kind == KIND_SUBSCRIBE:
            assert metrics["service.subscriptions"] == 2

    def test_pool_death_fails_one_query_then_the_service_recovers(self):
        with WorkerPool(workers=2) as pool:

            def kill_a_worker(seq):
                if seq == 1:
                    victim = pool.submit(os.getpid).result(timeout=30)
                    os.kill(victim, signal.SIGKILL)

            replies, metrics = run(
                self.exchange(
                    ServiceConfig(
                        cache_capacity=0, workers=2,
                        shard_size=16, pool=pool,
                    ),
                    [(KIND_QUERY, encode_json_payload(GOOD[KIND_QUERY][0]))]
                    * 3,
                    between=kill_a_worker,
                )
            )
        (_, first), (failed_kind, failed), (_, after) = replies
        assert failed_kind == KIND_REJECT
        assert failed["error"] == "failed"
        assert failed["request_id"] == "good"
        assert "BrokenProcessPool" in failed["detail"]
        assert first["result"] == after["result"] == {"*": 50.0}
        assert metrics["service.query.failed"] == 1
        assert "service.query.rejected" not in metrics
