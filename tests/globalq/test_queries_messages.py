"""Tests for global query semantics and wire formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, QueryError
from repro.globalq.queries import (
    GLOBAL_GROUP,
    AggregateQuery,
    local_contributions,
    plaintext_answer,
    record_matches,
)
from repro.net.messages import (
    FLAG_FAKE,
    Accumulator,
    EncryptedContribution,
    Payload,
    pack_payload,
    unpack_payload,
)
from repro.workloads.people import PersonRecord, generate_population


def record(**attrs) -> PersonRecord:
    return PersonRecord(attrs)


class TestAggregateQuery:
    def test_constructors(self):
        assert AggregateQuery.count().aggregate == "COUNT"
        assert AggregateQuery.sum("kwh").attribute == "kwh"
        assert AggregateQuery.avg("age", group_by="city").group_by == "city"

    def test_sum_needs_attribute(self):
        with pytest.raises(QueryError):
            AggregateQuery("SUM")

    def test_unknown_aggregate(self):
        with pytest.raises(QueryError):
            AggregateQuery("MEDIAN")


class TestMatching:
    def test_where_equality(self):
        query = AggregateQuery.count(where=[("city", "lyon")])
        assert record_matches(record(city="lyon"), query)
        assert not record_matches(record(city="paris"), query)

    def test_missing_aggregate_attribute_excludes(self):
        query = AggregateQuery.sum("kwh")
        assert not record_matches(record(city="lyon"), query)
        assert record_matches(record(kwh=10), query)

    def test_missing_group_attribute_excludes(self):
        query = AggregateQuery.count(group_by="city")
        assert not record_matches(record(age=5), query)


class TestLocalContributions:
    def test_count_contributions(self):
        records = [record(city="lyon"), record(city="paris")]
        query = AggregateQuery.count(group_by="city")
        assert local_contributions(records, query) == [
            ("lyon", 1.0),
            ("paris", 1.0),
        ]

    def test_sum_without_group(self):
        records = [record(kwh=10), record(kwh=20)]
        query = AggregateQuery.sum("kwh")
        assert local_contributions(records, query) == [
            (GLOBAL_GROUP, 10.0),
            (GLOBAL_GROUP, 20.0),
        ]

    def test_where_filters_locally(self):
        records = [record(kwh=10, city="lyon"), record(kwh=99, city="nice")]
        query = AggregateQuery.sum("kwh", where=[("city", "lyon")])
        assert local_contributions(records, query) == [(GLOBAL_GROUP, 10.0)]


class TestAccumulator:
    def test_merge_associative(self):
        a, b, direct = Accumulator(), Accumulator(), Accumulator()
        for group, value in [("x", 1.0), ("y", 2.0)]:
            a.add(group, value)
            direct.add(group, value)
        for group, value in [("x", 3.0), ("z", 4.0)]:
            b.add(group, value)
            direct.add(group, value)
        a.merge(b)
        query = AggregateQuery.sum("v", group_by="g")
        assert a.finalize(query) == direct.finalize(query)

    def test_finalize_avg(self):
        acc = Accumulator()
        acc.add("g", 10.0)
        acc.add("g", 20.0)
        assert acc.finalize(AggregateQuery.avg("v"))["g"] == 15.0

    def test_serialized_size(self):
        acc = Accumulator()
        acc.add("abc", 1.0)
        assert acc.serialized_size() == 3 + 16


class TestPlaintextAnswer:
    def test_count_by_city_totals_population(self):
        population = generate_population(60, seed=1)
        query = AggregateQuery.count(group_by="city", where=[("kind", "profile")])
        answer = plaintext_answer(population, query)
        assert sum(answer.values()) == 60

    def test_avg_consistent_with_sum_count(self):
        population = generate_population(40, seed=2)
        where = [("kind", "health")]
        avg = plaintext_answer(
            population, AggregateQuery.avg("consultations", "city", where)
        )
        total = plaintext_answer(
            population, AggregateQuery.sum("consultations", "city", where)
        )
        count = plaintext_answer(
            population, AggregateQuery.count("city", where)
        )
        for city in avg:
            assert avg[city] == pytest.approx(total[city] / count[city])


class TestPayloadWire:
    def test_roundtrip(self):
        payload = Payload(7, 3, "lyon", 12.5, fake=True)
        assert unpack_payload(pack_payload(payload)) == payload

    def test_fake_flag_on_the_wire(self):
        real = pack_payload(Payload(1, 2, "g", 0.0, fake=False))
        fake = pack_payload(Payload(1, 2, "g", 0.0, fake=True))
        # Flags byte sits right after pds_id and sequence (two u32s).
        assert real[8] == 0
        assert fake[8] == FLAG_FAKE
        assert unpack_payload(real).fake is False
        assert unpack_payload(fake).fake is True

    def test_too_short_rejected(self):
        with pytest.raises(ProtocolError, match="too short"):
            unpack_payload(b"\x01")
        with pytest.raises(ProtocolError, match="too short"):
            unpack_payload(b"")

    def test_invalid_utf8_group_rejected(self):
        blob = pack_payload(Payload(1, 2, "city", 1.0)) + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="UTF-8"):
            unpack_payload(blob)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.text(max_size=30),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip(self, pds_id, sequence, group, value, fake):
        payload = Payload(pds_id, sequence, group, value, fake)
        assert unpack_payload(pack_payload(payload)) == payload


class TestWireSize:
    def test_blob_only(self):
        assert EncryptedContribution(blob=b"12345").wire_size() == 5

    def test_group_tag_adds_its_length(self):
        contribution = EncryptedContribution(blob=b"12345", group_tag=b"abc")
        assert contribution.wire_size() == 5 + 3

    def test_bucket_id_adds_four_bytes(self):
        contribution = EncryptedContribution(blob=b"12345", bucket_id=2)
        assert contribution.wire_size() == 5 + 4

    def test_all_fields(self):
        contribution = EncryptedContribution(
            blob=b"12345", group_tag=b"abc", bucket_id=0
        )
        assert contribution.wire_size() == 5 + 3 + 4

    def test_empty_tag_costs_nothing_but_is_present(self):
        contribution = EncryptedContribution(blob=b"", group_tag=b"")
        assert contribution.wire_size() == 0


class TestWhereOperators:
    def test_range_operators(self):
        from repro.globalq.queries import AggregateQuery, record_matches

        young = AggregateQuery.count(where=(("age", "<", 30),))
        assert record_matches(record(age=25), young)
        assert not record_matches(record(age=30), young)
        between = AggregateQuery.count(
            where=(("age", ">=", 18), ("age", "<=", 65))
        )
        assert record_matches(record(age=40), between)
        assert not record_matches(record(age=70), between)

    def test_not_equal(self):
        from repro.globalq.queries import AggregateQuery, record_matches

        query = AggregateQuery.count(where=(("city", "!=", "paris"),))
        assert record_matches(record(city="lyon"), query)
        assert not record_matches(record(city="paris"), query)

    def test_missing_attribute_never_matches_operator(self):
        from repro.globalq.queries import AggregateQuery, record_matches

        query = AggregateQuery.count(where=(("age", ">", 10),))
        assert not record_matches(record(city="lyon"), query)

    def test_incomparable_types_never_match(self):
        from repro.globalq.queries import AggregateQuery, record_matches

        query = AggregateQuery.count(where=(("age", ">", 10),))
        assert not record_matches(record(age="forty"), query)

    def test_unknown_operator_rejected(self):
        from repro.globalq.queries import AggregateQuery, record_matches

        query = AggregateQuery.count(where=(("age", "~", 10),))
        with pytest.raises(QueryError, match="unknown operator"):
            record_matches(record(age=5), query)

    def test_malformed_condition_rejected(self):
        from repro.globalq.queries import AggregateQuery, record_matches

        query = AggregateQuery.count(where=(("age",),))
        with pytest.raises(QueryError, match="malformed"):
            record_matches(record(age=5), query)

    def test_range_query_through_protocol(self):
        """End to end: a range WHERE works inside secure aggregation."""
        import random

        from repro.globalq.tokens import PdsNode, TokenFleet
        from repro.globalq.queries import AggregateQuery, plaintext_answer
        from repro.globalq.secureagg import SecureAggregationProtocol

        population = generate_population(40, seed=15)
        nodes = [PdsNode(i, records) for i, records in enumerate(population)]
        query = AggregateQuery.count(
            group_by="city",
            where=(("kind", "profile"), ("age", ">=", 60)),
        )
        report = SecureAggregationProtocol(
            TokenFleet(seed=3), rng=random.Random(1)
        ).run(nodes, query)
        expected = plaintext_answer(population, query)
        assert report.result == expected
