"""Result-cache exactness: hits never change answers, churn always recomputes.

The two properties the satellite checklist names:

* serve → churn/forget → serve **recomputes**, and the recomputation equals
  a fresh one-shot batch run over the current population;
* a cache **hit** never changes an aggregate — it is byte-for-byte the
  answer the service would compute fresh at the same version (hypothesis
  property over random populations/mutations).
"""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.globalq.queries import AggregateQuery, plaintext_answer
from repro.service import (
    CacheEntry,
    QueryDescriptor,
    ResultCache,
    ServiceConfig,
    SsiQueryService,
    derive_seed,
    run_query,
    slim_population,
    standard_mix,
)
from repro.service.descriptor import FAMILY_SECURE_AGG


def run(coro):
    return asyncio.run(coro)


def make_service(count=80, **overrides):
    population = slim_population(count)
    defaults = dict(cache_capacity=8, record_snapshots=True)
    defaults.update(overrides)
    return population, SsiQueryService(population, ServiceConfig(**defaults))


SUM = QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.sum("salary"))


class TestVersionExactness:
    def test_hit_until_churn_then_recompute(self):
        async def scenario():
            population, service = make_service()
            service.start()
            first = await service.submit(SUM)
            hit = await service.submit(SUM)
            population.set_online(3, False)
            after = await service.submit(SUM)
            await service.stop()
            return population, first, hit, after

        population, first, hit, after = run(scenario())
        assert not first.cached and hit.cached
        assert hit.result == first.result and hit.version == first.version
        # Churn forced a recomputation at the new version...
        assert not after.cached
        assert after.version == population.version
        # ...equal to a fresh one-shot batch run over the current population.
        fresh = run_query(
            SUM,
            population.snapshot().nodes,
            population.fleet,
            derive_seed(SUM, population.version),
            ("paris",),
        )
        assert after.result == fresh.result
        # And the node really is gone from the answer.
        assert after.result["*"] < first.result["*"]

    def test_forget_invalidates_and_excludes_records(self):
        async def scenario():
            population, service = make_service()
            service.start()
            before = await service.submit(SUM)
            removed = population.forget(7)
            after = await service.submit(SUM)
            await service.stop()
            return population, before, after, removed

        population, before, after, removed = run(scenario())
        assert removed == 1
        assert not after.cached
        truth = plaintext_answer(
            [n.records for n in population.snapshot().nodes], SUM.query
        )
        assert after.result == truth
        assert after.result["*"] < before.result["*"]

    def test_every_mix_class_recomputes_after_forget(self):
        async def scenario():
            population, service = make_service(count=60)
            service.start()
            mix = standard_mix()
            first = [await service.submit(d) for d in mix.descriptors()]
            population.forget(11)
            second = [await service.submit(d) for d in mix.descriptors()]
            await service.stop()
            return population, service, first, second

        population, service, first, second = run(scenario())
        for before, after in zip(first, second):
            assert not after.cached
            assert after.version == population.version
            fresh = run_query(
                after.descriptor,
                after.snapshot.nodes,
                population.fleet,
                after.seed,
                service.config.domain,
            )
            assert after.result == fresh.result


    def test_every_arrival_counts_as_one_hit_or_one_miss(self):
        """Regression: the scheduler's dequeue-time re-check counted a
        second miss for every executed query."""

        async def scenario():
            population, service = make_service(count=40)
            service.start()
            descriptors = standard_mix().descriptors()
            for descriptor in descriptors * 2:  # 4 executed, then 4 hits
                await service.submit(descriptor)
            population.forget(3)
            # Three at once: one executes, its queued twins hit on re-check.
            await asyncio.gather(*(service.submit(SUM) for _ in range(3)))
            await service.stop()
            return service.metrics_snapshot()

        snapshot = run(scenario())
        assert snapshot["service.arrivals"] == 11
        assert snapshot["service.cache.hits"] == 6
        assert snapshot["service.cache.misses"] == 5


class TestCacheMechanics:
    def test_put_refuses_stale_snapshot(self):
        population = slim_population(10)
        cache = ResultCache(4, population)
        entry = CacheEntry(version=population.version, result={"*": 1.0}, seed=0)
        population.set_online(2, False)  # version moved past the entry
        assert not cache.put(SUM, entry)
        assert cache.stats.stale_results_dropped == 1
        assert cache.get(SUM) is None

    def test_lru_eviction(self):
        population = slim_population(4)
        cache = ResultCache(2, population)
        descriptors = [
            QueryDescriptor(
                FAMILY_SECURE_AGG, AggregateQuery.count(), partition_size=n
            )
            for n in (2, 3, 4)
        ]
        for descriptor in descriptors:
            cache.put(
                descriptor,
                CacheEntry(population.version, {"*": 0.0}, seed=0),
            )
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(descriptors[0]) is None  # oldest evicted
        assert cache.get(descriptors[2]) is not None

    def test_capacity_zero_disables(self):
        population = slim_population(4)
        cache = ResultCache(0, population)
        assert not cache.enabled
        assert not cache.put(SUM, CacheEntry(0, {"*": 0.0}, seed=0))
        assert cache.get(SUM) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1, slim_population(2))


class TestHitNeverChangesAggregates:
    @settings(max_examples=15, deadline=None)
    @given(
        count=st.integers(min_value=5, max_value=40),
        mutations=st.lists(
            st.tuples(st.sampled_from(["churn", "forget"]), st.integers(0, 4)),
            max_size=4,
        ),
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_property(self, count, mutations, repeats):
        async def scenario():
            population, service = make_service(count=count, cache_capacity=4)
            service.start()
            mix = standard_mix()
            rng = random.Random(count)
            for kind, offset in mutations:
                pds_id = offset % len(population)
                if kind == "churn":
                    population.set_online(pds_id, rng.random() < 0.5)
                else:
                    population.forget(pds_id)
            descriptor = mix.pick(rng)
            baseline = await service.submit(descriptor)
            replays = [
                await service.submit(descriptor) for _ in range(repeats)
            ]
            await service.stop()
            return population, baseline, replays

        population, baseline, replays = run(scenario())
        fresh = run_query(
            baseline.descriptor,
            baseline.snapshot.nodes,
            population.fleet,
            baseline.seed,
            ServiceConfig().domain,
        )
        assert baseline.result == fresh.result
        for replay in replays:
            # Population unchanged since baseline: every replay is a hit
            # and the aggregate is byte-identical.
            assert replay.cached
            assert replay.result == baseline.result
            assert replay.version == baseline.version
            assert replay.seed == baseline.seed
