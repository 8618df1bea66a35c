"""Tests for generalization, k-anonymity and the distributed variant."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, QueryError
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.ppdp.generalize import (
    QuasiIdentifier,
    RangeHierarchy,
    TreeHierarchy,
    age_hierarchy,
    city_hierarchy,
    lattice_levels,
)
from repro.ppdp.kanon import (
    anonymize_centralized,
    anonymize_with_tokens,
    equivalence_classes,
    is_k_anonymous,
    l_diversity,
)
from repro.ppdp.metrics import (
    average_class_ratio,
    discernibility,
    generalization_height,
)
from repro.workloads.people import PersonRecord, generate_population

QIS = [
    QuasiIdentifier("age", age_hierarchy()),
    QuasiIdentifier("city", city_hierarchy()),
]


def profile_records(num_people: int, seed: int = 3) -> list[PersonRecord]:
    population = generate_population(num_people, seed=seed)
    return [records[1] for records in population]  # health records


class TestHierarchies:
    def test_age_levels(self):
        h = age_hierarchy()
        assert h.generalize(37, 0) == "37"
        assert h.generalize(37, 1) == "35-39"
        assert h.generalize(37, 2) == "30-39"
        assert h.generalize(37, 3) == "25-49"
        assert h.generalize(37, 4) == "*"

    def test_city_levels(self):
        h = city_hierarchy()
        assert h.generalize("lyon", 0) == "lyon"
        assert h.generalize("lyon", 1) == "south"
        assert h.generalize("lille", 1) == "north"
        assert h.generalize("lyon", 2) == "*"

    def test_level_bounds_checked(self):
        with pytest.raises(QueryError, match="out of range"):
            age_hierarchy().generalize(30, 9)

    def test_range_hierarchy_validation(self):
        with pytest.raises(QueryError):
            RangeHierarchy("x", widths=[2, 4])
        with pytest.raises(QueryError):
            RangeHierarchy("x", widths=[1, 5, 5])

    def test_tree_unknown_value(self):
        h = TreeHierarchy("t", levels=[{"a": "top"}])
        with pytest.raises(QueryError, match="no level-1 ancestor"):
            h.generalize("zzz", 1)

    def test_lattice_order_most_precise_first(self):
        vectors = lattice_levels(QIS)
        assert vectors[0] == (0, 0)
        assert vectors[-1] == (4, 2)
        sums = [sum(v) for v in vectors]
        assert sums == sorted(sums)


class TestKAnonymityCore:
    def test_equivalence_classes_and_check(self):
        records = [
            PersonRecord({"age": 30, "city": "lyon", "diagnosis": "flu"}),
            PersonRecord({"age": 31, "city": "lyon", "diagnosis": "cold"}),
            PersonRecord({"age": 32, "city": "nice", "diagnosis": "flu"}),
        ]
        exact = equivalence_classes(records, QIS, (0, 0))
        assert not is_k_anonymous(exact, 2)
        coarse = equivalence_classes(records, QIS, (3, 1))
        assert is_k_anonymous(coarse, 3)  # all south, 25-49

    def test_l_diversity(self):
        records = [
            PersonRecord({"age": 30, "city": "lyon", "diagnosis": "flu"}),
            PersonRecord({"age": 31, "city": "lyon", "diagnosis": "flu"}),
        ]
        assert l_diversity(records, QIS, (4, 2), "diagnosis") == 1
        records.append(
            PersonRecord({"age": 33, "city": "lyon", "diagnosis": "cold"})
        )
        assert l_diversity(records, QIS, (4, 2), "diagnosis") == 2


class TestCentralized:
    def test_result_is_k_anonymous(self):
        records = profile_records(60)
        for k in (2, 5, 10):
            result = anonymize_centralized(records, QIS, "diagnosis", k)
            assert result.k_of() >= k
            assert len(result.records) == len(records)

    def test_minimality_in_lattice_order(self):
        """No vector earlier in the lattice order satisfies k."""
        records = profile_records(50)
        result = anonymize_centralized(records, QIS, "diagnosis", 4)
        for levels in lattice_levels(QIS):
            if levels == result.levels:
                break
            assert not is_k_anonymous(
                equivalence_classes(records, QIS, levels), 4
            )

    def test_higher_k_more_general(self):
        records = profile_records(80)
        low = anonymize_centralized(records, QIS, "diagnosis", 2)
        high = anonymize_centralized(records, QIS, "diagnosis", 20)
        assert generalization_height(high, QIS) >= generalization_height(low, QIS)

    def test_impossible_k_raises(self):
        records = profile_records(5)
        with pytest.raises(ProtocolError, match="no generalization"):
            anonymize_centralized(records, QIS, "diagnosis", 10)

    def test_invalid_k(self):
        with pytest.raises(ProtocolError):
            anonymize_centralized(profile_records(5), QIS, "diagnosis", 0)


class TestDistributedEqualsCentralized:
    def test_same_table_and_levels(self):
        records = profile_records(40, seed=9)
        nodes = [PdsNode(i, [record]) for i, record in enumerate(records)]
        fleet = TokenFleet(seed=4)
        central = anonymize_centralized(records, QIS, "diagnosis", 5)
        distributed = anonymize_with_tokens(
            nodes, fleet, QIS, "diagnosis", 5, rng=random.Random(1)
        )
        assert distributed.levels == central.levels
        assert distributed.records == central.records
        assert distributed.equivalence_classes == central.equivalence_classes

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=5, deadline=None)
    def test_property_distributed_k_holds(self, k):
        records = profile_records(30, seed=11)
        nodes = [PdsNode(i, [record]) for i, record in enumerate(records)]
        result = anonymize_with_tokens(
            nodes, TokenFleet(seed=5), QIS, "diagnosis", k,
            rng=random.Random(2),
        )
        assert result.k_of() >= k


class TestMetrics:
    def test_height_bounds(self):
        records = profile_records(60)
        result = anonymize_centralized(records, QIS, "diagnosis", 2)
        assert 0.0 <= generalization_height(result, QIS) <= 1.0

    def test_discernibility_grows_with_k(self):
        records = profile_records(80)
        low = anonymize_centralized(records, QIS, "diagnosis", 2)
        high = anonymize_centralized(records, QIS, "diagnosis", 20)
        assert discernibility(high) >= discernibility(low)

    def test_average_class_ratio(self):
        records = profile_records(60)
        result = anonymize_centralized(records, QIS, "diagnosis", 3)
        assert average_class_ratio(result, 3) >= 1.0


class TestLDiversityEnforcement:
    def test_enforced_result_is_l_diverse(self):
        records = profile_records(80)
        result = anonymize_centralized(records, QIS, "diagnosis", k=3, l=3)
        achieved = l_diversity(records, QIS, result.levels, "diagnosis")
        assert achieved >= 3
        assert result.k_of() >= 3

    def test_l_can_force_extra_generalization(self):
        records = profile_records(80)
        plain = anonymize_centralized(records, QIS, "diagnosis", k=2)
        diverse = anonymize_centralized(records, QIS, "diagnosis", k=2, l=4)
        plain_l = l_diversity(records, QIS, plain.levels, "diagnosis")
        if plain_l < 4:  # only then must the recoding move up the lattice
            assert sum(diverse.levels) > sum(plain.levels)
        assert l_diversity(records, QIS, diverse.levels, "diagnosis") >= 4

    def test_impossible_l_raises(self):
        # Only one distinct sensitive value in the data: l=2 unreachable.
        records = [
            PersonRecord({"age": 20 + i, "city": "lyon", "diagnosis": "flu"})
            for i in range(10)
        ]
        with pytest.raises(ProtocolError):
            anonymize_centralized(records, QIS, "diagnosis", k=2, l=2)

    def test_invalid_l(self):
        with pytest.raises(ProtocolError):
            anonymize_centralized(profile_records(10), QIS, "diagnosis", 2, l=0)
