"""Guided tour: ``python -m repro`` runs a condensed end-to-end demo.

One minute through the whole tutorial: a PDS with embedded search and
access control (Parts I-II), a global protected aggregate over a small
population (Part III), and the private-graph-query difficulty from the
conclusion. For the full walkthroughs see the scripts in ``examples/``.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.errors import AccessDenied
from repro.globalq import (
    AggregateQuery,
    DistributedGraph,
    SecureAggregationProtocol,
    TokenFleet,
    private_reachability,
)
from repro.net.metrics import Channel
from repro.pds import PdsPopulation, PersonalDataServer, Subject, bill, medical_note


def main() -> None:
    print("repro — Managing Personal Data with Strong Privacy Guarantees")
    print("=" * 62)

    # ------------------------------------------------------------------
    print("\n[Part I+II] One citizen's Personal Data Server")

    pds = PersonalDataServer(owner="alice")
    pds.ingest_all(
        [
            medical_note("flu diagnosed, rest prescribed", "flu"),
            bill("electricity invoice march", 84.50, "edf"),
        ]
    )
    hits = pds.search(pds.owner, "invoice")
    print(f"  embedded search for 'invoice': {len(hits)} hit(s), "
          f"kind={hits[0][1].kind}")
    try:
        pds.read(Subject("adtech", "app"), hits[0][1].doc_id)
    except AccessDenied:
        print("  a random app's read was denied and audited "
              f"(chain intact: {pds.audit.verify_chain()})")

    # ------------------------------------------------------------------
    print("\n[Part III] A protected census over 60 citizens")

    population = PdsPopulation(60, seed=4)
    nodes = population.nodes_for(Subject("insee", "querier"))
    report = SecureAggregationProtocol(
        population.fleet, rng=random.Random(1)
    ).run(
        nodes,
        AggregateQuery.count(group_by="city", where=(("kind", "profile"),)),
    )
    top = sorted(report.result.items(), key=lambda kv: -kv[1])[:3]
    print(f"  exact COUNT GROUP BY city via an untrusted cloud "
          f"(leaked categories: {len(report.ssi_tag_histogram)})")
    print(f"  top cities: {[(city, int(count)) for city, count in top]}")

    # ------------------------------------------------------------------
    print("\n[Conclusion] Why graph queries are the hard case")

    graph = nx.connected_watts_strogatz_graph(50, 4, 0.1, seed=2)
    dgraph = DistributedGraph(
        {node: set(graph.neighbors(node)) for node in graph},
        TokenFleet(seed=2),
    )
    target = max(
        graph.nodes, key=lambda n: nx.shortest_path_length(graph, 0, n)
    )
    result = private_reachability(dgraph, 0, target, 32, Channel())
    print(f"  distance(0, {target}) = {result.distance}, and the protocol "
          f"needed exactly {result.rounds} SSI rounds —")
    print("  security must be assured all along the path.")

    print("\nRun `pytest benchmarks/ --benchmark-only -s` for the full "
          "experiment tables (E1-E17).")

if __name__ == "__main__":
    main()
