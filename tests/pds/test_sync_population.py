"""Tests for disconnected sync and full-PDS populations."""

import random

import pytest

from repro.errors import ProtocolError
from repro.globalq.queries import AggregateQuery
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.tokens import TokenFleet
from repro.pds.acl import AccessRule, PrivacyPolicy, Subject
from repro.pds.datamodel import medical_note
from repro.pds.population import PdsPopulation
from repro.pds.sync import ReplicaState, SmartBadge, badge_sync

QUERIER = Subject("insee", "querier")


class TestReplicaState:
    def test_local_counters_monotonic(self):
        replica = ReplicaState("home")
        first = replica.add_local("patient", medical_note("a", "flu"))
        second = replica.add_local("patient", medical_note("b", "flu"))
        assert (first.counter, second.counter) == (0, 1)

    def test_integrate_idempotent(self):
        replica = ReplicaState("central")
        stamped = ReplicaState("home").add_local("p", medical_note("a", "flu"))
        assert replica.integrate(stamped)
        assert not replica.integrate(stamped)
        assert len(replica) == 1

    def test_missing_from_vector(self):
        replica = ReplicaState("home")
        for i in range(4):
            replica.add_local("p", medical_note(f"n{i}", "flu"))
        missing = replica.missing_from({"p": 1})
        assert [s.counter for s in missing] == [2, 3]


class TestSmartBadgeSync:
    def test_round_trip_converges(self):
        fleet = TokenFleet(seed=1)
        home, central = ReplicaState("home"), ReplicaState("central")
        for i in range(3):
            home.add_local("patient", medical_note(f"home-{i}", "flu"))
        for i in range(2):
            central.add_local("hospital", medical_note(f"lab-{i}", "flu"))
        to_central, to_home = badge_sync(fleet, home, central)
        assert (to_central, to_home) == (3, 2)
        assert home.converged_with(central)

    def test_no_data_reentered_on_second_sync(self):
        fleet = TokenFleet(seed=2)
        home, central = ReplicaState("home"), ReplicaState("central")
        home.add_local("patient", medical_note("x", "flu"))
        badge_sync(fleet, home, central)
        to_central, to_home = badge_sync(fleet, home, central)
        assert (to_central, to_home) == (0, 0)

    def test_three_way_convergence_via_central(self):
        """Practitioner badges hop home -> central -> other home."""
        fleet = TokenFleet(seed=3)
        home_a, central, home_b = (
            ReplicaState("a"), ReplicaState("central"), ReplicaState("b"),
        )
        home_a.add_local("doctor", medical_note("visit-a", "flu"))
        home_b.add_local("nurse", medical_note("visit-b", "flu"))
        badge_sync(fleet, home_a, central)
        badge_sync(fleet, home_b, central)
        badge_sync(fleet, home_a, central)
        assert home_a.converged_with(central)
        assert len(home_a) == 2

    def test_badge_carries_ciphertext(self):
        fleet = TokenFleet(seed=4)
        home = ReplicaState("home")
        home.add_local("patient", medical_note("secret diagnosis", "flu"))
        badge = SmartBadge(fleet)
        badge.load_delta(home, {})
        assert badge.carried_documents == 1
        # The sealed blob must not contain the plaintext.
        assert b"secret diagnosis" not in badge._sealed

    def test_empty_badge_refuses_delivery(self):
        badge = SmartBadge(TokenFleet(seed=5))
        with pytest.raises(ProtocolError, match="empty"):
            badge.deliver(ReplicaState("x"))


class TestPdsPopulation:
    def test_population_builds_full_servers(self):
        population = PdsPopulation(12, seed=5)
        assert len(population) == 12
        assert all(server.document_count >= 2 for server in population.servers)

    def test_global_query_through_policies(self):
        """End-to-end Part I + III: policies filter, protocol aggregates."""
        population = PdsPopulation(25, seed=6)
        nodes = population.nodes_for(QUERIER)
        query = AggregateQuery.count(
            group_by="city", where=(("kind", "profile"),)
        )
        report = SecureAggregationProtocol(
            population.fleet, rng=random.Random(1)
        ).run(nodes, query)
        assert sum(report.result.values()) == 25

    def test_restrictive_policies_shrink_contributions(self):
        def energy_only() -> PrivacyPolicy:
            return PrivacyPolicy(
                [AccessRule(role="querier", action="aggregate", kind="energy")]
            )

        open_pop = PdsPopulation(10, seed=7)
        closed_pop = PdsPopulation(10, seed=7, policy_factory=energy_only)
        open_records = sum(len(n.records) for n in open_pop.nodes_for(QUERIER))
        closed_records = sum(
            len(n.records) for n in closed_pop.nodes_for(QUERIER)
        )
        assert closed_records < open_records

    def test_aggregation_is_audited_on_every_server(self):
        population = PdsPopulation(5, seed=8)
        population.nodes_for(QUERIER)
        for server in population.servers:
            entries = server.audit.entries()
            assert entries and entries[-1].action == "aggregate"
