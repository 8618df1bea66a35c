"""Tests for private graph queries (the Part III conclusion's hard case)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.globalq.graphq import (
    DistributedGraph,
    centralized_reachability,
    private_reachability,
)
from repro.globalq.tokens import TokenFleet
from repro.net.metrics import Channel


def make_graph(num_nodes=30, k=4, seed=1) -> tuple[DistributedGraph, nx.Graph]:
    graph = nx.connected_watts_strogatz_graph(num_nodes, k, 0.2, seed=seed)
    adjacency = {node: set(graph.neighbors(node)) for node in graph}
    return DistributedGraph(adjacency, TokenFleet(seed=seed)), graph


class TestPrivateReachability:
    def test_distance_matches_networkx(self):
        dgraph, graph = make_graph()
        for source, target in [(0, 15), (3, 27), (10, 11)]:
            report = private_reachability(
                dgraph, source, target, max_hops=15, channel=Channel()
            )
            assert report.reachable
            assert report.distance == nx.shortest_path_length(
                graph, source, target
            )
            assert report.rounds == report.distance

    def test_self_query_costs_nothing(self):
        dgraph, _ = make_graph()
        report = private_reachability(dgraph, 5, 5, 10, Channel())
        assert report.reachable and report.distance == 0
        assert report.token_contacts == 0

    def test_hop_bound_limits_search(self):
        dgraph, graph = make_graph(num_nodes=40, k=2, seed=3)
        far = max(
            graph.nodes, key=lambda n: nx.shortest_path_length(graph, 0, n)
        )
        distance = nx.shortest_path_length(graph, 0, far)
        if distance > 2:
            report = private_reachability(dgraph, 0, far, 2, Channel())
            assert not report.reachable
            assert report.rounds == 2

    def test_disconnected_target_unreachable(self):
        fleet = TokenFleet(seed=9)
        adjacency = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
        dgraph = DistributedGraph(adjacency, fleet)
        report = private_reachability(dgraph, 0, 3, 10, Channel())
        assert not report.reachable
        assert report.distance is None

    def test_unknown_member_rejected(self):
        dgraph, _ = make_graph()
        with pytest.raises(ProtocolError):
            private_reachability(dgraph, 0, 999, 5, Channel())

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ProtocolError, match="not symmetric"):
            DistributedGraph({0: {1}, 1: set()}, TokenFleet(seed=1))


class TestLeakProfiles:
    def test_unpadded_leaks_access_pattern(self):
        dgraph, graph = make_graph()
        report = private_reachability(dgraph, 0, 20, 15, Channel())
        # The SSI saw a strict subset of tokens queried: the pattern leak.
        assert 0 < report.observed_contacts < len(graph)

    def test_padded_pattern_is_uniform(self):
        dgraph, graph = make_graph()
        unpadded = private_reachability(dgraph, 0, 20, 15, Channel())
        padded = private_reachability(dgraph, 0, 20, 15, Channel(), padded=True)
        assert padded.distance == unpadded.distance  # same answer
        assert padded.observed_contacts == len(graph)  # uniform pattern
        assert padded.comm_bytes > unpadded.comm_bytes  # the price

    def test_padded_cost_is_population_times_rounds(self):
        dgraph, graph = make_graph()
        report = private_reachability(dgraph, 0, 20, 15, Channel(), padded=True)
        assert report.token_contacts == len(graph) * report.rounds

    def test_centralized_is_one_round_full_leak(self):
        dgraph, graph = make_graph()
        report = centralized_reachability(dgraph, 0, 20, Channel())
        assert report.rounds == 1
        assert report.observed_contacts == len(graph)
        assert report.distance == nx.shortest_path_length(graph, 0, 20)


class TestProperties:
    @given(st.integers(0, 29), st.integers(0, 29), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_property_distance_agrees_with_networkx(self, source, target, seed):
        dgraph, graph = make_graph(seed=seed)
        report = private_reachability(dgraph, source, target, 20, Channel())
        expected = nx.shortest_path_length(graph, source, target)
        assert report.reachable
        assert report.distance == expected
