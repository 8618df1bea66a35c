"""The embedded-spj family: Part II aggregates served by the SSI service.

The family routes a descriptor to the service-hosted columnar engine
instead of a population protocol. The contract under test: the answer
equals the tuple-at-a-time reference engine's, is reproducible via the same
``run_query`` reference path as every other family, and the descriptor
round-trips through its canonical form.
"""

import asyncio
import random

import pytest

from repro.errors import QueryError
from repro.globalq.queries import AggregateQuery
from repro.hardware.token import SecurePortableToken
from repro.relational.query import EmbeddedDatabase
from repro.service import (
    FAMILY_EMBEDDED,
    QueryDescriptor,
    ServiceConfig,
    SsiQueryService,
    embedded_mix,
    run_embedded,
    run_query,
    slim_population,
)
from repro.service import reference
from repro.workloads import tpcd

#: Small hosted database: keeps the get-or-build registry cheap in tests.
ROWS = 400


def run(coro):
    return asyncio.run(coro)


class TestEmbeddedRunner:
    def test_batch_and_legacy_executors_answer_identically(self, monkeypatch):
        """The hosted engine runs columnar batches; the tuple-at-a-time
        engine over the same data is the reference it must match."""
        legacy_db = EmbeddedDatabase(
            SecurePortableToken(),
            tpcd.tpcd_schema(),
            tpcd.ROOT_TABLE,
            batch_size=0,
        )
        tpcd.load(legacy_db, tpcd.generate(ROWS, seed=31))
        for descriptor in embedded_mix(ROWS).descriptors():
            batch = run_embedded(descriptor)
            with monkeypatch.context() as patch:
                patch.setitem(reference._EMBEDDED_DBS, ROWS, legacy_db)
                legacy = run_embedded(descriptor)
            assert batch.result == legacy.result
            assert batch.protocol == FAMILY_EMBEDDED
            assert batch.num_pds == 1
            assert batch.tuples_sent == 0  # nothing leaves the token

    def test_run_query_routes_embedded_without_population(self):
        """The reference path needs no nodes/fleet/seed for this family."""
        descriptor = embedded_mix(ROWS).descriptors()[0]
        report = run_query(descriptor, [], None, seed=123, domain=())
        assert report.result == run_embedded(descriptor).result

    def test_descriptor_canonical_roundtrip_keeps_embedded_rows(self):
        for descriptor in embedded_mix(ROWS).descriptors():
            assert descriptor.embedded_rows == ROWS
            restored = QueryDescriptor.from_canonical(descriptor.canonical())
            assert restored == descriptor
        # embedded_rows is part of the canonical form (it determines the
        # answer), so differing sizes must never share a cache key.
        a, b = embedded_mix(ROWS).descriptors()[0], embedded_mix(
            ROWS + 1
        ).descriptors()[0]
        assert a.canonical() != b.canonical()

    def test_malformed_embedded_queries_are_rejected(self):
        flat_attr = QueryDescriptor(
            FAMILY_EMBEDDED,
            AggregateQuery.sum("Price"),
            embedded_rows=ROWS,
        )
        with pytest.raises(QueryError):
            run_embedded(flat_attr)
        range_where = QueryDescriptor(
            FAMILY_EMBEDDED,
            AggregateQuery.count(
                where=(("LINEITEM.Quantity", ">", 10),)
            ),
            embedded_rows=ROWS,
        )
        with pytest.raises(QueryError):
            run_embedded(range_where)


class TestServiceIntegration:
    def _serve(self, config: ServiceConfig):
        async def scenario():
            population = slim_population(20)
            service = SsiQueryService(population, config)
            service.start()
            mix = embedded_mix(ROWS)
            rng = random.Random(7)
            tasks = [
                asyncio.ensure_future(service.submit(mix.pick(rng)))
                for _ in range(8)
            ]
            served = await asyncio.gather(*tasks)
            await service.stop()
            return served

        return run(scenario())

    def test_service_serves_embedded_queries_reproducibly(self):
        served = self._serve(
            ServiceConfig(cache_capacity=0)
        )
        assert len(served) == 8
        for result in served:
            assert result.descriptor.family == FAMILY_EMBEDDED
            reference = run_embedded(result.descriptor)
            assert reference.result == result.result
