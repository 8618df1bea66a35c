"""Tests for privacy-preserving association-rule mining."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.metrics import Channel
from repro.smc.association import (
    mine_centralized,
    mine_distributed,
)

MARKET = [
    {"bread", "butter"},
    {"bread", "butter", "milk"},
    {"bread", "milk"},
    {"butter", "milk"},
    {"bread", "butter", "jam"},
    {"bread", "butter"},
    {"milk"},
    {"bread", "jam"},
]


class TestCentralized:
    def test_known_rule_found(self):
        rules = mine_centralized(MARKET, min_support=0.3, min_confidence=0.7)
        keys = {rule.key() for rule in rules}
        assert (("butter",), ("bread",)) in keys

    def test_support_and_confidence_values(self):
        rules = mine_centralized(MARKET, min_support=0.3, min_confidence=0.7)
        butter_bread = next(
            rule for rule in rules if rule.key() == (("butter",), ("bread",))
        )
        assert butter_bread.support == pytest.approx(4 / 8)
        assert butter_bread.confidence == pytest.approx(4 / 5)

    def test_thresholds_prune(self):
        none = mine_centralized(MARKET, min_support=0.9, min_confidence=0.9)
        assert none == []

    def test_empty_transactions(self):
        assert mine_centralized([], 0.5, 0.5) == []

    def test_multi_item_antecedents(self):
        # {bread, butter, milk} appears once (support 1/8): admit it.
        rules = mine_centralized(MARKET, min_support=0.12, min_confidence=0.5)
        assert any(len(rule.antecedent) == 2 for rule in rules)


class TestDistributed:
    def split(self, transactions, parts):
        sites = [[] for _ in range(parts)]
        for index, transaction in enumerate(transactions):
            sites[index % parts].append(transaction)
        return sites

    def test_equals_centralized(self):
        central = mine_centralized(MARKET, 0.3, 0.7)
        report = mine_distributed(
            self.split(MARKET, 3), 0.3, 0.7, Channel(), random.Random(1)
        )
        assert [r.key() for r in report.rules] == [r.key() for r in central]
        for mined, reference in zip(report.rules, central):
            assert mined.support == pytest.approx(reference.support)
            assert mined.confidence == pytest.approx(reference.confidence)

    def test_local_counts_never_on_wire(self):
        """Only masked ring values cross the channel, never local counts."""
        channel = Channel(keep_transcript=True)
        sites = self.split(MARKET, 3)
        mine_distributed(sites, 0.3, 0.7, channel, random.Random(2))
        local_counts = set()
        for transactions in sites:
            for itemset in ({"bread"}, {"butter"}, {"bread", "butter"}):
                local_counts.add(
                    sum(1 for t in transactions if itemset <= t)
                )
        wire_values = {
            payload for _, _, payload in channel.transcript
            if isinstance(payload, int)
        }
        # Masked partial sums are ~uniform 64-bit values; tiny local counts
        # appearing verbatim would be a leak.
        assert not (wire_values & local_counts)

    def test_cost_one_secure_sum_per_candidate(self):
        report = mine_distributed(
            self.split(MARKET, 2), 0.3, 0.7, Channel(), random.Random(3)
        )
        assert report.secure_sums > 0
        assert report.comm_messages == report.secure_sums * 2  # ring of 2

    def test_single_site_rejected(self):
        with pytest.raises(ValueError):
            mine_distributed([MARKET], 0.3, 0.7, Channel(), random.Random(0))

    @given(st.integers(2, 4), st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_property_partitioning_invariant(self, parts, seed):
        """However transactions are split, the mined rules are identical."""
        rng = random.Random(seed)
        shuffled = list(MARKET)
        rng.shuffle(shuffled)
        central = mine_centralized(shuffled, 0.25, 0.6)
        report = mine_distributed(
            self.split(shuffled, parts), 0.25, 0.6, Channel(), rng
        )
        assert [r.key() for r in report.rules] == [r.key() for r in central]
