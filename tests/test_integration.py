"""Full-stack integration: the tutorial's whole story in one scenario.

A citizen federates her raw exports into a PDS (Part I), queries them with
the embedded engines (Part II), a statistics office runs a protected global
query over a population including her (Part III), the result set is
published k-anonymously, and the audit trail accounts for everything.
"""

import random

import pytest

from repro.globalq.noise import NoiseProtocol
from repro.globalq.queries import (
    WHITE_NOISE,
    AggregateQuery,
    NoisePlan,
    plaintext_answer,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.tokens import PdsNode
from repro.pds.acl import Subject
from repro.pds.importers import federate
from repro.pds.population import PdsPopulation
from repro.ppdp.generalize import QuasiIdentifier, age_hierarchy, city_hierarchy
from repro.ppdp.kanon import anonymize_with_tokens
from repro.workloads.people import CITIES

MBOX = """From doctor@clinic.fr Mon Mar 10 10:00:00 2014
From: doctor@clinic.fr
Subject: flu prescription ready

Pick up the prescription at the pharmacy.
"""

BANK_CSV = "date,label,amount\n2014-03-01,EDF ELECTRICITY,84.50\n"
METER_CSV = "month,kwh\n1,312\n2,290\n"

QUERIER = Subject("insee", "querier")


class TestCitizenLifecycle:
    def test_federate_then_search_then_audit(self):
        population = PdsPopulation(10, seed=30)
        alice = population.servers[0]
        reports = federate(
            alice, {"mbox": MBOX, "bank-csv": BANK_CSV, "meter-csv": METER_CSV}
        )
        assert sum(report.imported for report in reports.values()) == 4

        # Embedded search over federated + synthetic content.
        hits = alice.search(alice.owner, "flu prescription")
        assert hits and hits[0][1].kind == "email"

        # The chain has recorded the search.
        assert alice.audit.entries()[-1].action == "search"
        assert alice.audit.verify_chain()

    def test_population_query_end_to_end(self):
        population = PdsPopulation(30, seed=31)
        nodes = population.nodes_for(QUERIER)
        query = AggregateQuery.avg(
            "age", group_by="city", where=(("kind", "profile"),)
        )
        truth = plaintext_answer([node.records for node in nodes], query)
        for protocol in (
            SecureAggregationProtocol(population.fleet, rng=random.Random(1)),
            NoiseProtocol(
                population.fleet,
                noise=NoisePlan(WHITE_NOISE, 1.0, tuple(CITIES)),
                rng=random.Random(1),
            ),
        ):
            report = protocol.run(nodes, query)
            for group, value in truth.items():
                assert report.result[group] == pytest.approx(value)
        # Every citizen's audit log shows the aggregate releases.
        for server in population.servers:
            actions = [entry.action for entry in server.audit.entries()]
            assert actions.count("aggregate") >= 1

    def test_query_then_publish_anonymously(self):
        population = PdsPopulation(40, seed=32)
        nodes_full = population.nodes_for(QUERIER)
        # Project each PDS's health record for publishing.
        nodes = [
            PdsNode(
                node.pds_id,
                [r for r in node.records if r.get("kind") == "health"],
            )
            for node in nodes_full
        ]
        qis = [
            QuasiIdentifier("age", age_hierarchy()),
            QuasiIdentifier("city", city_hierarchy()),
        ]
        result = anonymize_with_tokens(
            nodes, population.fleet, qis, "diagnosis", k=4,
            rng=random.Random(2),
        )
        assert result.k_of() >= 4
        assert len(result.records) == 40
        # Published rows carry generalized QIs only.
        for age_band, region, _ in result.records:
            assert not age_band.isdigit() or result.levels[0] == 0
            assert region in ("north", "south", "*") or result.levels[1] == 0

    def test_range_where_through_population(self):
        population = PdsPopulation(25, seed=33)
        nodes = population.nodes_for(QUERIER)
        query = AggregateQuery.count(
            where=(("kind", "profile"), ("age", ">=", 40))
        )
        report = SecureAggregationProtocol(
            population.fleet, rng=random.Random(3)
        ).run(nodes, query)
        expected = plaintext_answer([n.records for n in nodes], query)
        assert report.result == expected
