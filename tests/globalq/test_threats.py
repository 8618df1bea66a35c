"""Threat-model tests: frequency attacks and weakly-malicious detection."""

import random

import pytest

from repro.globalq.attacks import frequency_analysis, histogram_flatness
from repro.globalq.noise import NoiseProtocol
from repro.globalq.queries import (
    WHITE_NOISE,
    AggregateQuery,
    NoisePlan,
    plaintext_answer,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.ssi import SsiBehavior, SupportingServerInfrastructure
from repro.globalq.tokens import PdsNode, TokenFleet, TrustedAggregator
from repro.globalq.verification import (
    detection_probability,
    participating_pds_ids,
    participation_audit,
)
from repro.net.messages import ContributionBag
from repro.workloads.people import CITIES, generate_population

QUERY = AggregateQuery.count(group_by="city", where=(("kind", "profile"),))


@pytest.fixture(scope="module")
def setup():
    population = generate_population(100, seed=21, skew=1.3)
    nodes = [PdsNode(i, records) for i, records in enumerate(population)]
    fleet = TokenFleet(seed=2)
    return population, nodes, fleet


def true_tag_mapping(fleet, population):
    cities = {records[0]["city"] for records in population}
    return {
        fleet.deterministic.encrypt(city.encode()): city for city in cities
    }


def prior():
    return {city: 1.0 / (rank + 1) for rank, city in enumerate(CITIES)}


class TestFrequencyAnalysis:
    def test_attack_succeeds_without_noise(self, setup):
        population, nodes, fleet = setup
        report = NoiseProtocol(fleet, rng=random.Random(1)).run(nodes, QUERY)
        result = frequency_analysis(
            report.ssi_tag_histogram, prior(), true_tag_mapping(fleet, population)
        )
        # Zipf-skewed data: rank matching recovers most of the mass.
        assert result.tuple_accuracy > 0.5

    def test_noise_degrades_attack(self, setup):
        population, nodes, fleet = setup
        mapping = true_tag_mapping(fleet, population)
        clean = NoiseProtocol(fleet, rng=random.Random(2)).run(nodes, QUERY)
        true_counts = dict(clean.ssi_tag_histogram)
        accuracies = {}
        for ratio in (0.0, 4.0):
            plan = (
                NoisePlan(WHITE_NOISE, ratio, tuple(CITIES))
                if ratio
                else NoisePlan()
            )
            report = NoiseProtocol(fleet, noise=plan, rng=random.Random(2)).run(
                nodes, QUERY
            )
            accuracies[ratio] = frequency_analysis(
                report.ssi_tag_histogram,
                prior(),
                mapping,
                true_tuple_counts=true_counts,
            ).tuple_accuracy
        assert accuracies[4.0] < accuracies[0.0]

    def test_flatness_bounds(self):
        assert histogram_flatness({}) == 1.0
        assert histogram_flatness({b"a": 5, b"b": 5}) == 1.0
        assert histogram_flatness({b"a": 10, b"b": 1}) == pytest.approx(0.1)

    def test_empty_truth(self):
        result = frequency_analysis({b"t": 3}, {"x": 1.0}, {})
        assert result.tuple_accuracy == 0.0


def reference_store(behavior, rng, contributions):
    """The SSI's store, contribution by contribution, as a list."""
    stored = []
    for contribution in contributions:
        if rng.random() < behavior.drop_fraction:
            continue
        stored.append(contribution)
        if rng.random() < behavior.duplicate_fraction:
            stored.append(contribution)
    return stored


class TestBagStore:
    """The SSI stores a whole bag; its draws are still per contribution."""

    BAG = ContributionBag(
        [0, 1, 2], [2, 0, 3], [0, 0, 1],
        [bytes([i]) * 5 for i in range(5)],
        [b"t1", b"t2", b"t1", b"t3", b"t1"],
    )

    @pytest.mark.parametrize(
        "behavior",
        [
            SsiBehavior(),
            SsiBehavior(drop_fraction=0.3),
            SsiBehavior(duplicate_fraction=0.4),
            SsiBehavior(drop_fraction=0.2, duplicate_fraction=0.5),
        ],
    )
    def test_store_and_stream_match_per_contribution_model(self, behavior):
        for seed in range(20):
            ssi = SupportingServerInfrastructure(behavior, random.Random(seed))
            ssi.collect(self.BAG)
            model_rng = random.Random(seed)
            expected = reference_store(
                behavior, model_rng, self.BAG.contributions()
            )
            assert ssi.blobs == [c.blob for c in expected]
            assert ssi.tags == [c.group_tag for c in expected]
            assert ssi.buckets == [None] * len(expected)
            # The partition shuffle reads the stream next: same position.
            assert ssi.rng.getstate() == model_rng.getstate()
            observed = ssi.observations
            assert observed.total_contributions == len(expected)
            assert observed.blob_bytes == 5 * len(expected)
            assert sum(observed.group_tag_counts.values()) == len(expected)
            assert not observed.bucket_counts


class TestWeaklyMaliciousSsi:
    def test_forgeries_always_detected(self, setup):
        _, nodes, fleet = setup
        behavior = SsiBehavior(forge_count=5)
        report = SecureAggregationProtocol(
            fleet, ssi_behavior=behavior, rng=random.Random(3)
        ).run(nodes, QUERY)
        assert report.integrity_failures == 5
        assert report.cheating_detected

    def test_duplicates_detected(self, setup):
        _, nodes, fleet = setup
        behavior = SsiBehavior(duplicate_fraction=0.3)
        report = SecureAggregationProtocol(
            fleet, ssi_behavior=behavior, partition_size=10, rng=random.Random(4)
        ).run(nodes, QUERY)
        assert report.duplicates_detected > 0
        assert report.cheating_detected

    def test_drops_change_result_but_audit_catches(self, setup):
        population, nodes, fleet = setup
        behavior = SsiBehavior(drop_fraction=0.4)
        protocol = SecureAggregationProtocol(
            fleet, ssi_behavior=behavior, rng=random.Random(5)
        )
        # Re-run the phases manually to keep the aggregation outcomes.
        ssi = SupportingServerInfrastructure(behavior, random.Random(5))
        ssi.collect(protocol.collect(nodes, QUERY))
        partitions = ssi.partition_random(16)
        outcomes = [
            TrustedAggregator(fleet).aggregate(partition.blobs)
            for partition in partitions
        ]
        expected_ids = {node.pds_id for node in nodes}
        audit = participation_audit(
            expected_ids, outcomes, sample_size=20, rng=random.Random(6)
        )
        assert audit.cheating_detected
        assert len(participating_pds_ids(outcomes)) < len(nodes)

    def test_honest_ssi_passes_audit(self, setup):
        _, nodes, fleet = setup
        ssi = SupportingServerInfrastructure()
        ssi.collect(ContributionBag.of(
            [c for node in nodes for c in node.contributions(QUERY, fleet)]
        ))
        outcomes = [
            TrustedAggregator(fleet).aggregate(partition.blobs)
            for partition in ssi.partition_random(16)
        ]
        audit = participation_audit(
            {node.pds_id for node in nodes},
            outcomes,
            sample_size=50,
            rng=random.Random(7),
        )
        assert not audit.cheating_detected

    def test_detection_probability_formula(self):
        assert detection_probability(0.0, 100) == 0.0
        assert detection_probability(1.0, 1) == 1.0
        assert detection_probability(0.5, 2) == pytest.approx(0.75)
        with pytest.raises(ValueError):
            detection_probability(1.5, 3)
        with pytest.raises(ValueError):
            detection_probability(0.5, -1)

    def test_result_integrity_despite_duplicates_flag(self, setup):
        """Honest result is exact; cheated runs are flagged, not silently off."""
        population, nodes, fleet = setup
        honest = SecureAggregationProtocol(fleet, rng=random.Random(8)).run(
            nodes, QUERY
        )
        expected = plaintext_answer(population, QUERY)
        for group in expected:
            assert honest.result[group] == pytest.approx(expected[group])
