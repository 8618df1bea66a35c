"""The async driver's correctness anchor: same answers as the synchronous
[TNP14] drivers, on the same seeds, over a lossy churning network.

Both drivers run the same family object through the same sharded collector,
so the bag the SSI collects is bit-identical; exactly-once collection
(retransmit + SSI dedup) plus deterministic per-partition aggregation plus
commutative merging then means the asynchronous answer must *equal* the
synchronous one — message loss, node churn and token walkaways included.
COUNT answers are compared exactly (integer-valued floats survive any
summation order); SUM/AVG use approx.
"""

import random

import pytest

from repro.errors import ProtocolError
from repro.globalq.async_protocol import AsyncGlobalQuery
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import NoiseProtocol
from repro.globalq.queries import (
    WHITE_NOISE,
    AggregateQuery,
    NoisePlan,
    plaintext_answer,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.ssi import SsiBehavior, SupportingServerInfrastructure
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.net import ChurnModel, LinkProfile
from repro.workloads.people import CITIES, generate_population

COUNT_QUERY = AggregateQuery.count(group_by="city", where=(("kind", "profile"),))
NOISE = NoisePlan(WHITE_NOISE, 1.0, tuple(CITIES))
LOSSY = LinkProfile(latency_ms=10.0, jitter_ms=5.0, loss=0.05)
CHURNY = ChurnModel(offline_fraction=0.10, mean_online=0.03)


def make_nodes(num_pds: int, seed: int = 41):
    population = generate_population(num_pds, seed=seed, skew=1.1)
    return population, [
        PdsNode(i, records) for i, records in enumerate(population)
    ]


def prior():
    return {city: 1.0 / (rank + 1) for rank, city in enumerate(CITIES)}


SECURE_AGGREGATION = SecureAggregationProtocol.name
NOISE_BASED = NoiseProtocol.name
HISTOGRAM_BASED = HistogramProtocol.name
FAMILIES = (SECURE_AGGREGATION, NOISE_BASED, HISTOGRAM_BASED)


def sync_protocol(family: str, **options):
    """The family object both drivers run (fresh rng per call)."""
    options.setdefault("rng", random.Random(1))
    if family == NOISE_BASED:
        return NoiseProtocol(TokenFleet(3), noise=NOISE, **options)
    if family == HISTOGRAM_BASED:
        return HistogramProtocol(
            TokenFleet(3), EquiDepthBucketizer(prior(), 3), **options
        )
    return SecureAggregationProtocol(TokenFleet(3), **options)


def async_driver(family, **overrides) -> AsyncGlobalQuery:
    """``family``: a name (default options) or a ready family object."""
    if isinstance(family, str):
        family = sync_protocol(family)
    kwargs = dict(link=LOSSY, churn=CHURNY, token_failure_rate=0.1)
    kwargs.update(overrides)
    return AsyncGlobalQuery(family, **kwargs)


@pytest.fixture
def ssi_bags(monkeypatch):
    """Every SSI core built during the test, for comparing collected bags."""
    cores = []
    original = SupportingServerInfrastructure.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        cores.append(self)

    monkeypatch.setattr(
        SupportingServerInfrastructure, "__init__", recording_init
    )
    return lambda: [
        sorted(
            (blob, tag or b"", bucket or 0)
            for blob, tag, bucket in zip(core.blobs, core.tags, core.buckets)
        )
        for core in cores
    ]


class TestAsyncEqualsSync:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_count_exact_under_loss_and_churn(self, family, ssi_bags):
        population, nodes = make_nodes(120)
        sync_report = sync_protocol(family).run(nodes, COUNT_QUERY)
        report = async_driver(family).run_sync(nodes, COUNT_QUERY)
        sync_bag, async_bag = ssi_bags()
        assert async_bag == sync_bag and len(sync_bag) == report.tuples_sent
        assert report.fake_tuples_sent == sync_report.fake_tuples_sent
        assert report.result == sync_report.result
        assert report.result == plaintext_answer(population, COUNT_QUERY)
        assert report.protocol.startswith(f"async-{family}")

    @pytest.mark.parametrize(
        "query",
        [
            AggregateQuery.sum(
                "kwh", group_by="city", where=(("kind", "energy"),)
            ),
            AggregateQuery.avg("age", where=(("kind", "profile"),)),
        ],
    )
    def test_sum_avg_match_plaintext(self, query):
        population, nodes = make_nodes(100)
        report = async_driver(SECURE_AGGREGATION).run_sync(nodes, query)
        expected = plaintext_answer(population, query)
        assert report.result.keys() == expected.keys()
        for group, value in expected.items():
            assert report.result[group] == pytest.approx(value)

    def test_perfect_network_no_drops_no_retries(self):
        population, nodes = make_nodes(60)
        report = async_driver(
            NOISE_BASED,
            link=LinkProfile(),
            churn=None,
            token_failure_rate=0.0,
        ).run_sync(nodes, COUNT_QUERY)
        assert report.result == plaintext_answer(population, COUNT_QUERY)
        metrics = report.net_metrics
        assert metrics.frames_dropped == 0
        assert report.aggregator_retries == 0

    def test_acceptance_scale_2000_nodes(self):
        """The PR's acceptance bar: 2000 nodes, 5% loss, 10% churn —
        the async answer equals the synchronous answer exactly."""
        population, nodes = make_nodes(2000)
        sync_report = NoiseProtocol(
            TokenFleet(3), noise=NOISE, rng=random.Random(1)
        ).run(nodes, COUNT_QUERY)
        report = async_driver(
            NOISE_BASED, num_tokens=16, deadline=120.0
        ).run_sync(nodes, COUNT_QUERY)
        assert report.result == sync_report.result
        assert report.result == plaintext_answer(population, COUNT_QUERY)
        assert report.num_pds == 2000
        metrics = report.net_metrics
        # The lossy churning network really did lose traffic...
        assert metrics.drops["loss"] > 0
        assert metrics.drops["offline"] > 0
        # ...and every retransmission is visible in the send counters.
        assert metrics.frames_sent > metrics.frames_delivered


class TestNetworkEffects:
    def test_loss_costs_retransmissions(self):
        _, nodes = make_nodes(80)
        clean = async_driver(
            NOISE_BASED, link=LinkProfile(), churn=None,
            token_failure_rate=0.0,
        ).run_sync(nodes, COUNT_QUERY)
        lossy = async_driver(
            NOISE_BASED, link=LinkProfile(loss=0.2), churn=None,
            token_failure_rate=0.0,
        ).run_sync(nodes, COUNT_QUERY)
        assert lossy.result == clean.result
        assert (
            lossy.net_metrics.frames_sent > clean.net_metrics.frames_sent
        )

    def test_token_walkaways_force_reassignment(self):
        _, nodes = make_nodes(80)
        report = async_driver(
            sync_protocol(SECURE_AGGREGATION, partition_size=8),
            link=LinkProfile(),
            churn=None,
            token_failure_rate=0.6,
            assign_timeout=0.05,
        ).run_sync(nodes, COUNT_QUERY)
        assert report.aggregator_retries > 0
        assert report.result == plaintext_answer(
            generate_population(80, seed=41, skew=1.1), COUNT_QUERY
        )

    def test_comm_accounting_flows_into_report(self):
        _, nodes = make_nodes(50)
        report = async_driver(NOISE_BASED).run_sync(nodes, COUNT_QUERY)
        metrics = report.net_metrics
        assert report.comm_bytes == metrics.comm.bytes > 0
        assert report.comm_messages == metrics.comm.messages > 0
        assert metrics.latency_by_phase["collection"].count > 0

    def test_deadline_enforced(self):
        _, nodes = make_nodes(30)
        driver = async_driver(
            NOISE_BASED, num_tokens=1, token_failure_rate=0.0,
            deadline=0.001,
        )
        with pytest.raises((ProtocolError, TimeoutError)):
            driver.run_sync(nodes, COUNT_QUERY)


class TestWeaklyMaliciousSsi:
    def test_forgeries_detected_query_completes(self):
        """A covert SSI injecting forged blobs cannot break completion,
        and every forgery fails authentication inside a token."""
        _, nodes = make_nodes(60)
        report = async_driver(
            sync_protocol(
                SECURE_AGGREGATION, ssi_behavior=SsiBehavior(forge_count=5)
            ),
            token_failure_rate=0.0,
        ).run_sync(nodes, COUNT_QUERY)
        assert report.integrity_failures == 5

    def test_drops_shrink_the_answer_but_never_hang(self):
        population, nodes = make_nodes(60)
        report = async_driver(
            sync_protocol(
                NOISE_BASED, ssi_behavior=SsiBehavior(drop_fraction=0.3)
            ),
            token_failure_rate=0.0,
        ).run_sync(nodes, COUNT_QUERY)
        truth = plaintext_answer(population, COUNT_QUERY)
        assert sum(report.result.values()) < sum(truth.values())

    def test_duplicates_detected(self):
        _, nodes = make_nodes(60)
        report = async_driver(
            sync_protocol(
                SECURE_AGGREGATION,
                ssi_behavior=SsiBehavior(duplicate_fraction=0.5),
            ),
            token_failure_rate=0.0,
        ).run_sync(nodes, COUNT_QUERY)
        assert report.duplicates_detected > 0


class TestDriverValidation:
    def test_unknown_family(self):
        # A family is an object now, not a name to look rules up by.
        with pytest.raises(ProtocolError, match="unknown protocol family"):
            AsyncGlobalQuery("noise-based")

    def test_histogram_needs_bucketizer(self):
        with pytest.raises(TypeError, match="bucketizer"):
            HistogramProtocol(TokenFleet(3))

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            AsyncGlobalQuery(
                sync_protocol(NOISE_BASED), token_failure_rate=1.0
            )
        with pytest.raises(ValueError):
            AsyncGlobalQuery(sync_protocol(NOISE_BASED), num_tokens=0)
