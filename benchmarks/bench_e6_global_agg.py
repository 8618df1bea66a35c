"""E6 — The three [TNP14] protocol families on the same global aggregate.

Claims under test: all three families return the exact plaintext answer;
costs scale linearly in the number of PDSs; and the families sit at the
positions the tutorial assigns them — secure-aggregation leaks nothing but
makes every token decrypt mixed-group partitions, noise/histogram let the
SSI pre-group at the price of a measured leak.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import Experiment, render_table, run_and_print
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import NoiseProtocol
from repro.globalq.queries import (
    WHITE_NOISE,
    AggregateQuery,
    NoisePlan,
    plaintext_answer,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.workloads.people import CITIES, generate_population

QUERY = AggregateQuery.count(group_by="city", where=(("kind", "profile"),))


def make_nodes(num_pds: int):
    population = generate_population(num_pds, seed=41, skew=1.1)
    return population, [
        PdsNode(i, records) for i, records in enumerate(population)
    ]


def prior():
    return {city: 1.0 / (rank + 1) for rank, city in enumerate(CITIES)}


def protocols(fleet: TokenFleet):
    return {
        "secure-agg": SecureAggregationProtocol(fleet, rng=random.Random(1)),
        "noise(1x)": NoiseProtocol(
            fleet,
            noise=NoisePlan(WHITE_NOISE, 1.0, tuple(CITIES)),
            rng=random.Random(1),
        ),
        "histogram(3)": HistogramProtocol(
            fleet, EquiDepthBucketizer(prior(), 3), rng=random.Random(1)
        ),
    }


def build_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E6",
        title="Global COUNT GROUP BY city across the protocol families",
        claim="all exact; bytes/messages/token-work linear in #PDS; "
        "leak: none / tag histogram / flat buckets",
        columns=[
            "protocol", "num_pds", "exact", "comm_kB", "messages",
            "token_invocations", "decryptions", "leak_categories",
        ],
    )
    fleet = TokenFleet(seed=3)
    for num_pds in (100, 300, 900):
        population, nodes = make_nodes(num_pds)
        expected = plaintext_answer(population, QUERY)
        for name, protocol in protocols(fleet).items():
            report = protocol.run(nodes, QUERY)
            exact = all(
                report.result.get(group) == pytest.approx(value)
                for group, value in expected.items()
            )
            leak = max(
                len(report.ssi_tag_histogram), len(report.ssi_bucket_histogram)
            )
            experiment.add_row(
                name,
                num_pds,
                exact,
                round(report.comm_bytes / 1024, 1),
                report.comm_messages,
                report.token_invocations,
                report.token_decryptions,
                leak,
            )
    return experiment


def test_e6_global_aggregation(benchmark):
    experiment = run_and_print(build_experiment)
    assert all(experiment.column("exact"))
    rows = experiment.rows
    by_protocol: dict[str, list] = {}
    for row in rows:
        by_protocol.setdefault(row[0], []).append(row)

    for name, series in by_protocol.items():
        bytes_kb = [row[3] for row in series]
        num_pds = [row[1] for row in series]
        # Linear scaling in #PDS: bytes per PDS roughly constant (2x slack).
        per_pds = [kb / n for kb, n in zip(bytes_kb, num_pds)]
        assert max(per_pds) < min(per_pds) * 2, name

    # Leak ordering: secure-agg leaks nothing; histogram leaks <= buckets;
    # noise leaks one tag per apparent group.
    final = {row[0]: row for row in rows if row[1] == 900}
    assert final["secure-agg"][7] == 0
    assert 0 < final["histogram(3)"][7] <= 3
    assert final["noise(1x)"][7] >= len(
        {r[0] for r in [["x"]]}
    )  # at least one tag
    assert final["noise(1x)"][7] > final["histogram(3)"][7]

    _, nodes = make_nodes(150)
    fleet = TokenFleet(seed=3)
    protocol = SecureAggregationProtocol(fleet, rng=random.Random(2))
    benchmark(protocol.run, nodes, QUERY)


def test_e6_aggregate_kinds(benchmark):
    """SUM and AVG behave like COUNT across families."""
    experiment = Experiment(
        experiment_id="E6-aggregates",
        title="SUM / AVG exactness per family",
        claim="every family computes every aggregate exactly",
        columns=["protocol", "aggregate", "exact"],
    )
    population, nodes = make_nodes(150)
    fleet = TokenFleet(seed=5)
    queries = {
        "SUM": AggregateQuery.sum(
            "kwh", group_by="city", where=(("kind", "energy"),)
        ),
        "AVG": AggregateQuery.avg(
            "age", group_by="city", where=(("kind", "profile"),)
        ),
    }
    for agg_name, query in queries.items():
        expected = plaintext_answer(population, query)
        for name, protocol in protocols(fleet).items():
            report = protocol.run(nodes, query)
            exact = all(
                report.result.get(group) == pytest.approx(value)
                for group, value in expected.items()
            )
            experiment.add_row(name, agg_name, exact)
    print()
    print(render_table(experiment))
    assert all(experiment.column("exact"))
    benchmark(lambda: None)
