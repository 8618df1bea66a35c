"""Standing subscriptions at the service: wire frames + cache coherence.

Covers the two service-side seams of the delta-maintenance PR:

* the SUBSCRIBE/DELTA_BATCH/UPDATE wire path — a querier registers a
  standing query by frame, PDS deltas fold over the wire, boundary updates
  come back as frames the querier decrypts;
* the satellite-2 regression — a ``forget()`` landing between a worker's
  dequeue-time cache re-check and its ``put()`` must not let a cached
  result be served (or inserted) for a version a subscriber already saw a
  delta supersede. The purge, the delta fold and the floor raise all run
  in one synchronous listener chain, and get/put are atomic against it.
"""

import asyncio
import random

import pytest

from repro.crypto.paillier import generate_keypair
from repro.globalq.continuous import (
    DeltaBatcher,
    DeltaEmitter,
    StandingAggregate,
    StandingView,
    WindowSpec,
    recollect,
    update_from_wire,
)
from repro.globalq.queries import AggregateQuery
from repro.net.bus import MessageBus
from repro.net.codec import (
    KIND_DELTA_BATCH,
    KIND_SUBSCRIBE,
    KIND_UPDATE,
    Frame,
    decode_json_payload,
    encode_delta_batch,
    encode_json_payload,
)
from repro.service import (
    CacheEntry,
    QueryDescriptor,
    ResultCache,
    ServiceConfig,
    SsiQueryService,
    slim_population,
)
from repro.service.descriptor import FAMILY_SECURE_AGG
from repro.service.standing import StandingRegistry


def run(coro):
    return asyncio.run(coro)


def delta_frame(seq, sub_id, delta):
    """One delta on the wire: a one-entry ``DELTA_BATCH`` frame."""
    return Frame(
        KIND_DELTA_BATCH, "pds-0", seq, encode_delta_batch([(sub_id, delta)])
    )


PUBLIC, PRIVATE = generate_keypair(bits=128, rng=random.Random(99))
SUM = QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.sum("salary"))
COUNT = QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.count())


class TestRegistryCoherence:
    """The ResultCache must never serve across a folded delta."""

    def test_forget_purges_and_raises_the_floor(self):
        population = slim_population(20)
        cache = ResultCache(8, population)
        registry = StandingRegistry(population, cache=cache)
        registry.subscribe(SUM, WindowSpec(width=4), PUBLIC)
        entry = CacheEntry(
            version=population.version, result={"*": 1.0}, seed=0
        )
        assert cache.put(SUM, entry) is True
        assert cache.get(SUM) is entry
        # The forget's listener chain purges AND raises the floor before
        # _notify returns — by the time any thread observes the new
        # version, the stale entry is unservable.
        population.forget(5)
        assert cache.get(SUM) is None
        # Satellite-2 interleaving: a worker that re-checked the cache
        # before the forget now finishes and puts its (old-version)
        # result — the atomic version check refuses it.
        assert cache.put(SUM, entry) is False
        assert cache.stats.stale_results_dropped == 1

    def test_floor_refuses_entries_at_a_superseded_version(self):
        """A delta without a membership event (wire-fed) blocks caching."""
        population = slim_population(10)
        cache = ResultCache(8, population)
        registry = StandingRegistry(population, cache=cache)
        sub = registry.subscribe(
            COUNT, WindowSpec(width=2), PUBLIC, local_source=False
        )
        emitter = DeltaEmitter(PUBLIC, COUNT.query, seed=1)
        delta = emitter.refresh(population.node(0), True, 0)
        assert registry.ingest_many([(sub.sub_id, delta)]) == (1, 0)
        # The floor is now version+1: an entry at the *current* version is
        # still refused, because the subscriber's view is already ahead.
        entry = CacheEntry(
            version=population.version, result={"*": 10.0}, seed=0
        )
        assert cache.put(COUNT, entry) is False
        assert cache.stats.coherence_refusals >= 1
        # Once the population itself moves, caching resumes.
        population.set_online(1, False)
        entry = CacheEntry(
            version=population.version, result={"*": 9.0}, seed=0
        )
        assert cache.put(COUNT, entry) is True

    def test_get_purges_below_floor(self):
        population = slim_population(10)
        cache = ResultCache(8, population)
        entry = CacheEntry(
            version=population.version, result={"*": 1.0}, seed=0
        )
        cache.put(SUM, entry)
        # Simulate a wire delta raising the floor with no version bump.
        cache.note_delta(SUM.canonical(), population.version + 1)
        assert cache.get(SUM) is None
        assert cache.stats.coherence_refusals >= 1

    def test_churn_interleaving_under_service_load(self):
        """End-to-end: churn + standing subscription + concurrent queries.

        Every non-cached answer must equal plaintext recollection at its
        recorded version... and every *cached* answer must reflect the
        population state the subscriber's folded aggregate reflects — no
        hit may straddle a folded delta.
        """

        async def scenario():
            population = slim_population(60)
            service = SsiQueryService(
                population,
                ServiceConfig(cache_capacity=8, record_snapshots=True),
            )
            sub = service.standing.subscribe(SUM, WindowSpec(width=4), PUBLIC)
            service.start()
            rng = random.Random(5)
            answers = []
            for step in range(1, 13):
                if rng.random() < 0.5:
                    population.forget(rng.randrange(len(population)))
                else:
                    pds = rng.randrange(len(population))
                    population.set_online(pds, not population.is_online(pds))
                served = await service.submit(SUM)
                folded = PRIVATE.decrypt_signed(sub.standing.current()[0])
                answers.append((served, folded, population.version))
                service.standing.advance(step)
            await service.stop()
            return answers

        for served, folded, version in run(scenario()):
            # The folded ciphertext state and the served aggregate describe
            # the same population state whenever the answer is current.
            if served.version == version:
                assert served.result.get("*", 0.0) == float(folded)


class TestGroupedFold:
    """Bootstrap, population events and wire batches share one fold path."""

    def test_grouped_bootstrap_equals_folding_one_delta_at_a_time(self):
        spec = WindowSpec(width=4, slide=2)
        population = slim_population(40)
        population.set_online(3, False)
        # shard size 8: the bootstrap group splits into several shards.
        registry = StandingRegistry(population, fold_shard_size=8)
        sub = registry.subscribe(SUM, spec, PUBLIC, emitter_seed=9)
        # The reference: the same emitter stream through the one-at-a-time
        # StandingAggregate.fold, no grouping, no engine.
        emitter = DeltaEmitter(PUBLIC, SUM.query, seed=9)
        reference = StandingAggregate(PUBLIC.n, spec)
        online = list(population.online_nodes())
        for node in online:
            assert reference.fold(emitter.refresh(node, True, 0))
        assert sub.standing.current() == reference.current()
        # One group, accounted like a wire batch of the same size.
        assert sub.deltas_emitted == len(online) == 39
        counter = registry.registry.counter
        assert counter("globalq.delta.folded").value == len(online)
        assert counter("globalq.delta.emitted").value == len(online)
        # A population event is a group of one through the same function.
        population.forget(5)
        assert reference.fold(
            emitter.refresh(population.node(5), population.is_online(5), 0)
        )
        assert sub.standing.current() == reference.current()
        assert counter("globalq.delta.folded").value == len(online) + 1
        (published,) = registry.advance(2)[sub.sub_id]
        (expected,) = reference.advance(2)
        assert (published.live_value, published.live_count) == (
            expected.live_value, expected.live_count
        )
        assert (published.window_value, published.window_count) == (
            expected.window_value, expected.window_count
        )
        assert PRIVATE.decrypt_signed(published.live_value) == recollect(
            population.online_nodes(), SUM.query
        )[0]

    def test_ingest_many_drops_unknown_and_late_entries(self):
        """The batch path never raises on one bad entry: unknown
        subscriptions and sealed-pane deltas count as rejected, replays as
        duplicates, and the rest of the batch folds."""
        population = slim_population(6)
        registry = StandingRegistry(population)
        sub = registry.subscribe(
            COUNT, WindowSpec(width=2), PUBLIC, local_source=False
        )
        emitter = DeltaEmitter(PUBLIC, COUNT.query, seed=1)
        first = emitter.refresh(population.node(0), True, 0)
        assert registry.ingest_many([(sub.sub_id, first)]) == (1, 0)
        registry.advance(2)
        late = emitter.refresh(population.node(1), True, 1)
        good = emitter.refresh(population.node(2), True, 2)
        assert registry.ingest_many(
            [(99, good), (sub.sub_id, late), (sub.sub_id, good),
             (sub.sub_id, good)]
        ) == (1, 2)
        counter = registry.registry.counter
        assert counter("globalq.delta.duplicates").value == 1
        assert PRIVATE.decrypt_signed(sub.standing.current()[1]) == 2


class TestWireStandingPath:
    def test_subscribe_delta_update_round_trip(self):
        async def scenario():
            bus = MessageBus()
            ssi = bus.register("ssi")
            querier = bus.register("querier")
            pds = bus.register("pds-0")
            population = slim_population(12)
            service = SsiQueryService(population, ServiceConfig())
            service.start()
            server = asyncio.ensure_future(service.serve_endpoint(ssi))

            request = dict(
                SUM.to_dict(),
                request_id=1,
                window={"width": 2, "slide": 2},
                public_n=f"{PUBLIC.n:x}",
                start=0,
            )
            await querier.send(
                "ssi",
                Frame(KIND_SUBSCRIBE, "querier", 1, encode_json_payload(request)),
            )
            ack = await querier.recv(timeout=5.0)
            body = decode_json_payload(ack.payload)
            sub_id = body["subscription"]

            # The PDS fleet pushes its own bootstrap deltas over the wire.
            emitter = DeltaEmitter(PUBLIC, SUM.query, seed=2)
            for node in population.online_nodes():
                delta = emitter.refresh(node, True, 0)
                await pds.send(
                    "ssi", delta_frame(delta.pds_id, sub_id, delta)
                )
            await asyncio.sleep(0.05)  # let the receive loop drain
            sent = await service.publish_windows(2, endpoint=ssi)
            update_frame = await querier.recv(timeout=5.0)

            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            await service.stop()
            return population, ack, sent, update_frame

        population, ack, sent, update_frame = run(scenario())
        assert ack.kind == KIND_SUBSCRIBE
        assert sent == 1
        assert update_frame.kind == KIND_UPDATE
        update = update_from_wire(decode_json_payload(update_frame.payload))
        view = StandingView(PRIVATE, SUM.query)
        window = view.ingest(update)
        assert (window.total, window.count) == recollect(
            population.online_nodes(), SUM.query
        )

    def test_malformed_subscribe_is_rejected(self):
        async def scenario():
            bus = MessageBus()
            ssi = bus.register("ssi")
            querier = bus.register("querier")
            service = SsiQueryService(slim_population(5), ServiceConfig())
            service.start()
            server = asyncio.ensure_future(service.serve_endpoint(ssi))
            bad = dict(
                COUNT.to_dict(),
                request_id=2,
                window={"width": 10, "slide": 3},  # slide doesn't divide
                public_n=f"{PUBLIC.n:x}",
            )
            await querier.send(
                "ssi",
                Frame(KIND_SUBSCRIBE, "querier", 1, encode_json_payload(bad)),
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
        body = decode_json_payload(reply.payload)
        assert "error" in body

    def test_delta_batch_round_trip_matches_recollection(self):
        """A coalesced DELTA_BATCH frame folds to the same published
        window a one-frame-one-fold stream would — the batched wire path
        end to end, equality gate armed."""

        async def scenario():
            bus = MessageBus()
            ssi = bus.register("ssi")
            querier = bus.register("querier")
            pds = bus.register("pds-0")
            population = slim_population(16)
            service = SsiQueryService(population, ServiceConfig())
            service.start()
            server = asyncio.ensure_future(service.serve_endpoint(ssi))

            request = dict(
                SUM.to_dict(),
                request_id=1,
                window={"width": 2, "slide": 2},
                public_n=f"{PUBLIC.n:x}",
                start=0,
            )
            await querier.send(
                "ssi",
                Frame(KIND_SUBSCRIBE, "querier", 1, encode_json_payload(request)),
            )
            ack = await querier.recv(timeout=5.0)
            sub_id = decode_json_payload(ack.payload)["subscription"]

            # PDS side: every bootstrap delta coalesces into one frame.
            emitter = DeltaEmitter(PUBLIC, SUM.query, seed=2)
            batcher = DeltaBatcher(PUBLIC.n, WindowSpec(width=2, slide=2))
            for node in population.online_nodes():
                delta = emitter.refresh(node, True, 0)
                batcher.add(sub_id, delta)
            await pds.send(
                "ssi",
                Frame(
                    KIND_DELTA_BATCH,
                    "pds-0",
                    1,
                    encode_delta_batch(batcher.flush()),
                ),
            )
            await asyncio.sleep(0.05)
            sent = await service.publish_windows(2, endpoint=ssi)
            update_frame = await querier.recv(timeout=5.0)
            batches = service.registry.counter("globalq.ingest.deltas").value

            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            await service.stop()
            return population, sent, update_frame, batches

        population, sent, update_frame, ingested = run(scenario())
        assert sent == 1
        assert ingested == len(population)
        update = update_from_wire(decode_json_payload(update_frame.payload))
        view = StandingView(PRIVATE, SUM.query)
        window = view.ingest(update)
        assert (window.total, window.count) == recollect(
            population.online_nodes(), SUM.query
        )

    def test_overflowing_ingest_queue_sheds_not_grows(self):
        """Past the knee the bounded ingest queue sheds with the typed
        counter — offered == folded + shed, queue depth stays bounded."""

        async def scenario():
            population = slim_population(8)
            service = SsiQueryService(
                population,
                ServiceConfig(ingest_queue_depth=4, ingest_batch_max=2),
            )
            sub = service.standing.subscribe(
                COUNT, WindowSpec(width=4), PUBLIC, local_source=False
            )
            service.start()
            emitter = DeltaEmitter(PUBLIC, COUNT.query, seed=3)
            offered = 0
            # Burst without yielding: the worker cannot drain in between,
            # so everything past the bound must shed.
            for node in population.online_nodes():
                delta = emitter.refresh(node, True, 0)
                frame = delta_frame(delta.pds_id, sub.sub_id, delta)
                service.ingest.offer(frame.payload)
                offered += 1
            await service.ingest.drain()
            registry = service.registry
            folded = registry.counter("globalq.ingest.folded").value
            shed = registry.counter("globalq.ingest.shed").value
            depth = registry.gauge("globalq.ingest.queue_depth").value
            await service.stop()
            return offered, folded, shed, depth

        offered, folded, shed, depth = run(scenario())
        assert shed > 0
        assert folded + shed == offered
        assert depth <= 4

    def test_malformed_delta_is_counted_not_fatal(self):
        async def scenario():
            bus = MessageBus()
            ssi = bus.register("ssi")
            pds = bus.register("pds-0")
            service = SsiQueryService(slim_population(5), ServiceConfig())
            service.start()
            server = asyncio.ensure_future(service.serve_endpoint(ssi))
            await pds.send(
                "ssi", Frame(KIND_DELTA_BATCH, "pds-0", 1, b"garbage")
            )
            await asyncio.sleep(0.05)
            rejected = service.registry.counter("globalq.delta.rejected").value
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            await service.stop()
            return rejected

        assert run(scenario()) == 1

    def test_poison_frame_does_not_tear_down_the_endpoint(self):
        """Satellite regression: a truncated entry and a garbage payload
        both count under service.delta.rejected and the reader loop
        survives — a good delta sent *after* the poison still folds."""

        async def scenario():
            bus = MessageBus()
            ssi = bus.register("ssi")
            pds = bus.register("pds-0")
            population = slim_population(6)
            service = SsiQueryService(population, ServiceConfig())
            sub = service.standing.subscribe(
                COUNT, WindowSpec(width=4), PUBLIC, local_source=False
            )
            service.start()
            server = asyncio.ensure_future(service.serve_endpoint(ssi))

            emitter = DeltaEmitter(PUBLIC, COUNT.query, seed=4)
            delta = emitter.refresh(population.node(0), True, 0)
            good = delta_frame(3, sub.sub_id, delta)
            await pds.send(
                "ssi", Frame(KIND_DELTA_BATCH, "pds-0", 1, good.payload[:-3])
            )
            await pds.send(
                "ssi", Frame(KIND_DELTA_BATCH, "pds-0", 2, b"\x02garbage")
            )
            await pds.send("ssi", good)
            await asyncio.sleep(0.05)
            await service.ingest.drain()
            rejected = service.registry.counter(
                "service.delta.rejected"
            ).value
            folded = service.registry.counter("globalq.delta.folded").value

            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            await service.stop()
            return rejected, folded

        rejected, folded = run(scenario())
        assert rejected == 2
        assert folded == 1
