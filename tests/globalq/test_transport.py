"""What crosses the worker boundary: flat data, and the same answer.

Three guards on ``repro.globalq.parallel``'s process boundary, none of
them timed:

* a shard's :class:`ContributionBag` survives a pickle round-trip as is,
  and the aggregate-outcome codec round-trips every shape a partition can
  take (hypothesis);
* a collection and a protocol run over ``WorkerPool(2)`` produce exactly
  what the inline ones produce, field by field, for every family, SSI
  misbehaviour and token failure rate;
* the pickles a pooled run ships name no per-PDS or per-contribution
  class — the transport cost the columnar bag exists to remove.
"""

import dataclasses
import pickle
import pickletools
import random
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.globalq.parallel import (
    ShardedCollector,
    WorkerPool,
    pack_outcomes,
    unpack_outcomes,
)
from repro.globalq.ssi import HONEST, SsiBehavior
from repro.globalq.tokens import TokenFleet
from repro.net.messages import (
    Accumulator,
    AggregationOutcome,
    ContributionBag,
)
from tests.globalq.test_golden import COLLECTION_MODES
from tests.globalq.test_keying import FAMILIES
from tests.globalq.test_parallel import NODES, QUERY

UINT32 = st.integers(0, 2**32 - 1)


@st.composite
def shards(draw):
    """A shard's bag: PDSs with 0-5 tuples, tag / bucket columns or not."""
    counts = draw(st.lists(st.integers(0, 5), max_size=8))
    total = sum(counts)

    def column(values):
        return st.lists(values, min_size=total, max_size=total)

    return ContributionBag(
        draw(st.lists(UINT32, min_size=len(counts), max_size=len(counts))),
        counts,
        [draw(st.integers(0, count)) for count in counts],
        draw(column(st.binary(max_size=80))),
        draw(st.none() | column(st.binary(max_size=16))),
        draw(st.none() | column(st.integers(-(2**31), 2**31))),
    )


@st.composite
def outcomes(draw):
    accumulator = Accumulator()
    for group, value in draw(
        st.lists(
            st.tuples(
                st.text(max_size=8),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=6,
        )
    ):
        accumulator.add(group, value)
    return AggregationOutcome(
        accumulator=accumulator,
        real_tuples=draw(UINT32),
        fake_tuples=draw(UINT32),
        integrity_failures=draw(UINT32),
        seen_pds_sequences=draw(st.sets(st.tuples(UINT32, UINT32), max_size=8)),
    )


def through_pickle(value):
    return pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))


class TestCodecs:
    @given(shards())
    @settings(max_examples=200, deadline=None)
    def test_shard_result_round_trips(self, shard):
        # A shard's bag is what a worker returns, with no codec between:
        # empty shards, PDSs without tuples, zero-length blobs, and with or
        # without tag / bucket columns, it arrives as it left.
        back = through_pickle(shard)
        assert back == shard
        assert list(back.per_pds()) == list(shard.per_pds())

    @given(st.lists(outcomes(), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_aggregate_outcomes_round_trip(self, run):
        back = unpack_outcomes(through_pickle(pack_outcomes(run)))
        assert len(back) == len(run)
        for got, want in zip(back, run):
            # Group order is part of the contract: the merged result's key
            # order follows the accumulators' insertion order.
            assert list(got.accumulator.sums.items()) == list(
                want.accumulator.sums.items()
            )
            assert list(got.accumulator.counts.items()) == list(
                want.accumulator.counts.items()
            )
            assert (
                got.real_tuples,
                got.fake_tuples,
                got.integrity_failures,
                got.seen_pds_sequences,
            ) == (
                want.real_tuples,
                want.fake_tuples,
                want.integrity_failures,
                want.seen_pds_sequences,
            )


@pytest.mark.parametrize("mode", sorted(COLLECTION_MODES))
def test_pooled_bag_equals_inline_field_by_field(mode, pool):
    def collect(**where):
        return ShardedCollector(shard_size=16, base_seed=5, **where).collect(
            NODES, QUERY, TokenFleet(3), **COLLECTION_MODES[mode]
        )

    inline, pooled = collect(), collect(pool=pool)
    for field in dataclasses.fields(inline):
        assert getattr(pooled, field.name) == getattr(inline, field.name), (
            field.name
        )


DRIVERS = {
    "honest": {"ssi_behavior": HONEST},
    "drop": {"ssi_behavior": SsiBehavior(drop_fraction=0.2)},
    "duplicate": {"ssi_behavior": SsiBehavior(duplicate_fraction=0.3)},
    "forge": {"ssi_behavior": SsiBehavior(forge_count=4)},
    "flaky-tokens": {"aggregator_failure_rate": 0.3},
}


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as worker_pool:
        yield worker_pool


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pooled_report_equals_inline_field_by_field(family, driver, pool):
    def run(**where):
        rng = random.Random(11)
        report = FAMILIES[family](
            TokenFleet(3), rng=rng, shard_size=16, collection_seed=5,
            **DRIVERS[driver], **where,
        ).run(NODES, QUERY)
        # The next draw pins the retry loop's rng consumption as well.
        return report, rng.random()

    (inline, inline_draw), (pooled, pooled_draw) = run(), run(pool=pool)
    for field in dataclasses.fields(inline):
        assert getattr(pooled, field.name) == getattr(inline, field.name), (
            field.name
        )
    assert list(pooled.result) == list(inline.result)  # group order too
    assert pooled_draw == inline_draw
    if family == "secure-agg":
        # The misbehaviour is live, not vacuous. Random partitions split
        # replays apart, so the cross-partition check (fed by the seen
        # pairs each worker ships back) has something to catch.
        witness = {
            "forge": inline.integrity_failures == 4,
            "duplicate": inline.duplicates_detected > 0,
            "flaky-tokens": inline.aggregator_retries > 0,
        }
        assert witness.get(driver, True)


class RecordingPool:
    """A pool double: runs shards inline, but through real pickles.

    Keeps every pickle a ``WorkerPool`` would have written — each
    submitted function and task, each returned result — for inspection.
    """

    workers = 2

    def __init__(self) -> None:
        self.pickles: list[bytes] = []

    def _ship(self, value):
        data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        self.pickles.append(data)
        return pickle.loads(data)

    def submit(self, fn, *args):
        fn, args = self._ship((fn, args))
        future = Future()
        future.set_result(self._ship(fn(*args)))
        return future


def pickled_strings(data: bytes) -> set[str]:
    """Every string a pickle carries — class references are among them."""
    return {
        arg
        for _opcode, arg, _position in pickletools.genops(data)
        if isinstance(arg, str)
    }


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pooled_run_ships_no_per_node_objects(family):
    pool = RecordingPool()
    report = FAMILIES[family](
        TokenFleet(3), rng=random.Random(11), shard_size=16, pool=pool
    ).run(NODES, QUERY)
    inline = FAMILIES[family](
        TokenFleet(3), rng=random.Random(11), shard_size=16
    ).run(NODES, QUERY)
    assert report == inline
    # Both phases crossed: tasks out and results back, per shard.
    assert len(pool.pickles) >= 2 * (len(NODES) // 16 + 1)
    # Where the per-PDS and per-contribution classes live: the token side
    # (fleet, PDS node, aggregator), the driver, the records — and, among
    # the wire types, everything but the columnar bag a shard returns.
    banned_modules = (
        "repro.globalq.protocol",
        "repro.globalq.tokens",
        "repro.workloads.people",
    )
    banned_classes = {
        "Accumulator",
        "AggregationOutcome",
        "EncryptedContribution",
        "Partition",
        "Payload",
        "PdsNode",
        "PersonRecord",
    }
    shipped_bag = False
    for data in pool.pickles:
        strings = pickled_strings(data)
        named = {
            text for text in strings if text.startswith(banned_modules)
        } | (strings & banned_classes)
        assert not named, named
        shipped_bag |= "ContributionBag" in strings
    assert shipped_bag
