"""E11 — Privacy-preserving publishing through tokens (MetaP-flavoured).

Claims under test: the distributed (token-protocol) anonymization publishes
*exactly* the table the trusted-curator baseline would, for every k; the
achieved anonymity never falls below k; and information loss grows with k —
the utility/privacy curve the PPDP literature always reports.
"""

from __future__ import annotations

import random

from repro.bench.harness import Experiment, render_table, run_and_print
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.ppdp.generalize import QuasiIdentifier, age_hierarchy, city_hierarchy
from repro.ppdp.kanon import anonymize_centralized, anonymize_with_tokens
from repro.ppdp.metrics import (
    average_class_ratio,
    discernibility,
    generalization_height,
)
from repro.workloads.people import generate_population

QIS = [
    QuasiIdentifier("age", age_hierarchy()),
    QuasiIdentifier("city", city_hierarchy()),
]


def health_records(num_people: int, seed: int = 71):
    population = generate_population(num_people, seed=seed)
    return [records[1] for records in population]


def build_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E11",
        title="k-anonymous publishing: tokens vs trusted curator",
        claim="identical tables and levels; achieved k >= requested; "
        "information loss grows with k",
        columns=[
            "k", "levels", "achieved_k", "tables_equal",
            "gen_height", "discernibility", "c_avg",
        ],
    )
    records = health_records(120)
    nodes = [PdsNode(i, [record]) for i, record in enumerate(records)]
    fleet = TokenFleet(seed=11)
    for k in (2, 5, 10, 25):
        central = anonymize_centralized(records, QIS, "diagnosis", k)
        distributed = anonymize_with_tokens(
            nodes, fleet, QIS, "diagnosis", k, rng=random.Random(k)
        )
        experiment.add_row(
            k,
            str(distributed.levels),
            distributed.k_of(),
            distributed.records == central.records
            and distributed.levels == central.levels,
            round(generalization_height(distributed, QIS), 3),
            discernibility(distributed),
            round(average_class_ratio(distributed, k), 2),
        )
    return experiment


def test_e11_ppdp(benchmark):
    experiment = run_and_print(build_experiment)
    assert all(experiment.column("tables_equal"))
    achieved = experiment.column("achieved_k")
    requested = experiment.column("k")
    assert all(a >= k for a, k in zip(achieved, requested))
    # Height is not monotone along the lattice's sum-order (two vectors of
    # equal total can differ in normalized height); the robust loss metric
    # is discernibility, which must grow with k. k=2 is still the least
    # generalized recoding overall.
    heights = experiment.column("gen_height")
    assert heights[0] == min(heights)
    disc = experiment.column("discernibility")
    assert disc == sorted(disc)

    records = health_records(60)
    benchmark(anonymize_centralized, records, QIS, "diagnosis", 5)


def test_e11_l_diversity_check(benchmark):
    """Extension: l-diversity of the k-anonymous output is reported."""
    from repro.ppdp.kanon import l_diversity

    experiment = Experiment(
        experiment_id="E11-ldiv",
        title="l-diversity achieved by k-anonymous recodings",
        claim="higher k coalesces classes and never lowers achieved l",
        columns=["k", "achieved_l"],
    )
    records = health_records(120)
    previous = 0
    for k in (2, 10, 25):
        result = anonymize_centralized(records, QIS, "diagnosis", k)
        achieved_l = l_diversity(records, QIS, result.levels, "diagnosis")
        experiment.add_row(k, achieved_l)
        assert achieved_l >= previous
        previous = achieved_l
    print()
    print(render_table(experiment))
    benchmark(lambda: None)
