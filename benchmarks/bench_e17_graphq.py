"""E17 — The inherent difficulty of private graph queries.

Part III's conclusion: *"graph based queries have an inherent difficulty
because the security must be assured all along a path"*. Claims under test:
rounds cannot be collapsed (rounds == path length, always); hiding the
access pattern costs population x rounds contacts (padded mode); the
centralized alternative is one round but leaks the whole graph; answers are
identical across all three evaluations.
"""

from __future__ import annotations

import networkx as nx

from repro.bench.harness import Experiment, render_table, run_and_print
from repro.globalq.graphq import (
    DistributedGraph,
    centralized_reachability,
    private_reachability,
)
from repro.globalq.tokens import TokenFleet
from repro.net.metrics import Channel


def make_graph(num_nodes: int, seed: int = 5):
    graph = nx.connected_watts_strogatz_graph(num_nodes, 4, 0.1, seed=seed)
    adjacency = {node: set(graph.neighbors(node)) for node in graph}
    return DistributedGraph(adjacency, TokenFleet(seed=seed)), graph


def build_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E17",
        title="Private path queries: rounds, contacts and leak",
        claim="rounds == distance (sequential along the path); padded mode "
        "hides the pattern at n x rounds contacts; centralized is 1 round "
        "+ full graph leak",
        columns=[
            "nodes", "distance", "mode", "rounds", "contacts",
            "pattern_leak", "comm_kB",
        ],
    )
    for num_nodes in (40, 120):
        dgraph, graph = make_graph(num_nodes)
        source = 0
        target = max(
            graph.nodes, key=lambda n: nx.shortest_path_length(graph, 0, n)
        )
        distance = nx.shortest_path_length(graph, source, target)
        runs = {
            "private": private_reachability(
                dgraph, source, target, 32, Channel()
            ),
            "padded": private_reachability(
                dgraph, source, target, 32, Channel(), padded=True
            ),
            "centralized": centralized_reachability(
                dgraph, source, target, Channel()
            ),
        }
        for mode, report in runs.items():
            assert report.distance == distance
            leak = (
                "full-graph"
                if mode == "centralized"
                else f"{report.observed_contacts}/{num_nodes} tokens"
            )
            experiment.add_row(
                num_nodes, distance, mode, report.rounds,
                report.token_contacts, leak,
                round(report.comm_bytes / 1024, 1),
            )
    return experiment


def test_e17_private_graph_queries(benchmark):
    experiment = run_and_print(build_experiment)
    rows = experiment.rows
    for row in rows:
        _, distance, mode, rounds, contacts, leak, _ = row
        if mode in ("private", "padded"):
            assert rounds == distance  # sequential along the path
        if mode == "centralized":
            assert rounds == 1
    padded = [row for row in rows if row[2] == "padded"]
    for row in padded:
        nodes, distance, _, rounds, contacts, leak, _ = row
        assert contacts == nodes * rounds  # the uniform-pattern price
        assert leak == f"{nodes}/{nodes} tokens"
    private = [row for row in rows if row[2] == "private"]
    for row in private:
        nodes = row[0]
        observed = int(row[5].split("/")[0])
        assert observed < nodes  # the access-pattern leak is real

    dgraph, _ = make_graph(40)
    benchmark(private_reachability, dgraph, 0, 20, 32, Channel())


def test_e17_rounds_track_distance(benchmark):
    """Rounds grow exactly with distance on a path graph."""
    experiment = Experiment(
        experiment_id="E17-distance",
        title="Rounds vs distance (path graph)",
        claim="one SSI round per hop, no way around it",
        columns=["distance", "rounds"],
    )
    fleet = TokenFleet(seed=7)
    length = 12
    adjacency = {i: set() for i in range(length + 1)}
    for i in range(length):
        adjacency[i].add(i + 1)
        adjacency[i + 1].add(i)
    dgraph = DistributedGraph(adjacency, fleet)
    for target in (2, 5, 9, 12):
        report = private_reachability(dgraph, 0, target, 20, Channel())
        experiment.add_row(target, report.rounds)
    print()
    print(render_table(experiment))
    assert experiment.column("distance") == experiment.column("rounds")

    benchmark(lambda: None)
