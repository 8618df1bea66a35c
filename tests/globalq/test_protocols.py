"""Integration tests: all three [TNP14] protocol families.

The load-bearing claims: every family returns the exact plaintext answer
under an honest SSI, and their *leak profiles* differ exactly as the
tutorial says (nothing / group frequencies / flattened buckets).
"""

import random

import pytest

from repro.globalq.attacks import histogram_flatness
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import NoiseProtocol
from repro.globalq.queries import (
    COMPLEMENTARY_NOISE,
    WHITE_NOISE,
    AggregateQuery,
    NoisePlan,
    plaintext_answer,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.workloads.people import CITIES, generate_population


@pytest.fixture(scope="module")
def setup():
    population = generate_population(80, seed=7, skew=1.2)
    nodes = [PdsNode(i, records) for i, records in enumerate(population)]
    fleet = TokenFleet(seed=1)
    return population, nodes, fleet


QUERIES = [
    AggregateQuery.count(group_by="city", where=(("kind", "profile"),)),
    AggregateQuery.sum("kwh", group_by="city", where=(("kind", "energy"),)),
    AggregateQuery.avg("age", where=(("kind", "profile"),)),
    AggregateQuery.count(where=(("diagnosis", "flu"),)),
]


def city_prior():
    return {city: 1.0 / (rank + 1) for rank, city in enumerate(CITIES)}


class TestSecureAggregation:
    @pytest.mark.parametrize("query", QUERIES)
    def test_exact_answers(self, setup, query):
        population, nodes, fleet = setup
        report = SecureAggregationProtocol(fleet, rng=random.Random(3)).run(
            nodes, query
        )
        expected = plaintext_answer(population, query)
        assert report.result.keys() == expected.keys()
        for group in expected:
            assert report.result[group] == pytest.approx(expected[group])

    def test_no_tags_leaked(self, setup):
        _, nodes, fleet = setup
        report = SecureAggregationProtocol(fleet, rng=random.Random(3)).run(
            nodes, QUERIES[0]
        )
        assert report.ssi_tag_histogram == {}

    def test_every_tuple_decrypted_once(self, setup):
        _, nodes, fleet = setup
        report = SecureAggregationProtocol(fleet, rng=random.Random(3)).run(
            nodes, QUERIES[0]
        )
        assert report.token_decryptions == report.tuples_sent

    def test_partition_size_controls_invocations(self, setup):
        _, nodes, fleet = setup
        small = SecureAggregationProtocol(
            fleet, partition_size=10, rng=random.Random(3)
        ).run(nodes, QUERIES[0])
        large = SecureAggregationProtocol(
            fleet, partition_size=40, rng=random.Random(3)
        ).run(nodes, QUERIES[0])
        assert small.token_invocations > large.token_invocations

    def test_honest_run_never_flags_cheating(self, setup):
        _, nodes, fleet = setup
        report = SecureAggregationProtocol(fleet, rng=random.Random(3)).run(
            nodes, QUERIES[0]
        )
        assert not report.cheating_detected


class TestNoiseProtocol:
    @pytest.mark.parametrize("query", QUERIES)
    def test_exact_answers_without_noise(self, setup, query):
        population, nodes, fleet = setup
        report = NoiseProtocol(fleet, rng=random.Random(5)).run(nodes, query)
        expected = plaintext_answer(population, query)
        for group in expected:
            assert report.result[group] == pytest.approx(expected[group])

    @pytest.mark.parametrize("mode", [WHITE_NOISE, COMPLEMENTARY_NOISE])
    def test_fakes_do_not_change_answers(self, setup, mode):
        population, nodes, fleet = setup
        query = QUERIES[0]
        plan = NoisePlan(mode=mode, ratio=2.0, domain=tuple(CITIES))
        report = NoiseProtocol(fleet, noise=plan, rng=random.Random(6)).run(
            nodes, query
        )
        expected = plaintext_answer(population, query)
        # Fakes may create apparent groups with zero real tuples; real
        # groups must be exact and zero-groups empty of mass.
        for group in expected:
            assert report.result[group] == pytest.approx(expected[group])
        for group, value in report.result.items():
            if group not in expected:
                assert value == 0.0
        assert report.fake_tuples_sent > 0

    def test_tags_leak_frequencies(self, setup):
        _, nodes, fleet = setup
        report = NoiseProtocol(fleet, rng=random.Random(5)).run(
            nodes, QUERIES[0]
        )
        assert len(report.ssi_tag_histogram) > 1
        assert sum(report.ssi_tag_histogram.values()) == report.tuples_sent

    def test_complementary_noise_flattens_faster_than_white(self, setup):
        _, nodes, fleet = setup
        query = QUERIES[0]
        flatness = {}
        for mode in (WHITE_NOISE, COMPLEMENTARY_NOISE):
            plan = NoisePlan(mode=mode, ratio=1.5, domain=tuple(CITIES))
            report = NoiseProtocol(
                fleet, noise=plan, rng=random.Random(8)
            ).run(nodes, query)
            flatness[mode] = histogram_flatness(report.ssi_tag_histogram)
        none = NoiseProtocol(fleet, rng=random.Random(8)).run(nodes, query)
        assert flatness[WHITE_NOISE] > histogram_flatness(none.ssi_tag_histogram)
        assert flatness[COMPLEMENTARY_NOISE] >= flatness[WHITE_NOISE]

    def test_noise_costs_bandwidth(self, setup):
        _, nodes, fleet = setup
        query = QUERIES[0]
        quiet = NoiseProtocol(fleet, rng=random.Random(9)).run(nodes, query)
        plan = NoisePlan(mode=WHITE_NOISE, ratio=2.0, domain=tuple(CITIES))
        noisy = NoiseProtocol(fleet, noise=plan, rng=random.Random(9)).run(
            nodes, query
        )
        assert noisy.comm_bytes > quiet.comm_bytes * 2


class TestHistogramProtocol:
    @pytest.mark.parametrize("query", QUERIES[:2])
    def test_exact_answers(self, setup, query):
        population, nodes, fleet = setup
        bucketizer = EquiDepthBucketizer(city_prior(), num_buckets=3)
        report = HistogramProtocol(fleet, bucketizer, rng=random.Random(4)).run(
            nodes, query
        )
        expected = plaintext_answer(population, query)
        for group in expected:
            assert report.result[group] == pytest.approx(expected[group])

    def test_bucket_leak_coarser_than_tags(self, setup):
        """Histogram family leaks ≤ #buckets categories vs one per group."""
        _, nodes, fleet = setup
        query = QUERIES[0]
        bucketizer = EquiDepthBucketizer(city_prior(), num_buckets=3)
        hist_report = HistogramProtocol(
            fleet, bucketizer, rng=random.Random(4)
        ).run(nodes, query)
        tag_report = NoiseProtocol(fleet, rng=random.Random(4)).run(nodes, query)
        assert len(hist_report.ssi_bucket_histogram) <= 3
        assert len(tag_report.ssi_tag_histogram) > len(
            hist_report.ssi_bucket_histogram
        )

    def test_equidepth_flatter_than_raw_frequencies(self, setup):
        _, nodes, fleet = setup
        query = QUERIES[0]
        bucketizer = EquiDepthBucketizer(city_prior(), num_buckets=3)
        hist_report = HistogramProtocol(
            fleet, bucketizer, rng=random.Random(4)
        ).run(nodes, query)
        tag_report = NoiseProtocol(fleet, rng=random.Random(4)).run(nodes, query)
        assert histogram_flatness(
            hist_report.ssi_bucket_histogram
        ) > histogram_flatness(tag_report.ssi_tag_histogram)


class TestEquiDepthBucketizer:
    def test_covers_all_values(self):
        bucketizer = EquiDepthBucketizer(city_prior(), num_buckets=4)
        assert {bucketizer(city) for city in CITIES} <= set(range(4))

    def test_unknown_value_goes_to_last_bucket(self):
        bucketizer = EquiDepthBucketizer(city_prior(), num_buckets=4)
        assert bucketizer("atlantis") == bucketizer.num_buckets - 1

    def test_single_bucket(self):
        bucketizer = EquiDepthBucketizer({"a": 1.0, "b": 1.0}, num_buckets=1)
        assert bucketizer("a") == bucketizer("b") == 0

    def test_invalid_inputs(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            EquiDepthBucketizer({}, 2)
        with pytest.raises(ProtocolError):
            EquiDepthBucketizer({"a": 1.0}, 0)
        with pytest.raises(ProtocolError):
            EquiDepthBucketizer({"a": 0.0}, 2)


class TestDisconnectedAggregators:
    def test_failures_are_retried_result_exact(self, setup):
        population, nodes, fleet = setup
        query = QUERIES[0]
        report = SecureAggregationProtocol(
            fleet,
            partition_size=12,
            rng=random.Random(7),
            aggregator_failure_rate=0.4,
        ).run(nodes, query)
        expected = plaintext_answer(population, query)
        for group in expected:
            assert report.result[group] == pytest.approx(expected[group])
        assert report.aggregator_retries > 0
        assert not report.cheating_detected  # disconnections are not attacks

    @pytest.mark.parametrize(
        "family",
        [
            lambda fleet, **driver: SecureAggregationProtocol(
                fleet, partition_size=12, **driver
            ),
            lambda fleet, **driver: NoiseProtocol(
                fleet, NoisePlan(WHITE_NOISE, 1.0, tuple(CITIES)), **driver
            ),
            lambda fleet, **driver: HistogramProtocol(
                fleet, EquiDepthBucketizer(city_prior(), 3), **driver
            ),
        ],
        ids=["secure-aggregation", "noise-based", "histogram-based"],
    )
    def test_every_family_retries_through_the_shared_driver(
        self, setup, family
    ):
        population, nodes, fleet = setup
        query = QUERIES[0]
        stable = family(fleet, rng=random.Random(7)).run(nodes, query)
        flaky = family(
            fleet, rng=random.Random(7), aggregator_failure_rate=0.5
        ).run(nodes, query)
        assert stable.aggregator_retries == 0 < flaky.aggregator_retries
        assert flaky.result == stable.result
        assert flaky.result == plaintext_answer(population, query)
        # Each retry re-ships its ciphertext partition, nothing else.
        assert flaky.comm_bytes > stable.comm_bytes
        assert flaky.token_decryptions == stable.token_decryptions

    def test_no_failures_no_retries(self, setup):
        _, nodes, fleet = setup
        report = SecureAggregationProtocol(
            fleet, rng=random.Random(8)
        ).run(nodes, QUERIES[0])
        assert report.aggregator_retries == 0

    def test_retries_cost_bandwidth(self, setup):
        _, nodes, fleet = setup
        stable = SecureAggregationProtocol(
            fleet, partition_size=12, rng=random.Random(9)
        ).run(nodes, QUERIES[0])
        flaky = SecureAggregationProtocol(
            fleet,
            partition_size=12,
            rng=random.Random(9),
            aggregator_failure_rate=0.5,
        ).run(nodes, QUERIES[0])
        assert flaky.comm_bytes > stable.comm_bytes

    def test_invalid_failure_rate(self, setup):
        _, _, fleet = setup
        with pytest.raises(ValueError):
            SecureAggregationProtocol(fleet, aggregator_failure_rate=1.0)
