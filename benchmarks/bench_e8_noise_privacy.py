"""E8 — Frequency leak of deterministic tags, and what noise buys back.

Claims under test: with skewed data and a public prior, frequency analysis
re-identifies most tuples' groups from the deterministic-tag histogram; the
attacker's accuracy falls as the fake-tuple ratio rises (complementary noise
falling faster per byte than white noise); and the histogram family's
equi-depth buckets leave the attacker near guessing from the start.
"""

from __future__ import annotations

import random

from repro.bench.harness import Experiment, render_table, run_and_print
from repro.globalq.attacks import frequency_analysis, histogram_flatness
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import NoiseProtocol
from repro.globalq.queries import (
    COMPLEMENTARY_NOISE,
    WHITE_NOISE,
    AggregateQuery,
    NoisePlan,
)
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.workloads.people import CITIES, generate_population

QUERY = AggregateQuery.count(group_by="city", where=(("kind", "profile"),))


def setup(num_pds: int = 300):
    population = generate_population(num_pds, seed=51, skew=1.4)
    nodes = [PdsNode(i, records) for i, records in enumerate(population)]
    fleet = TokenFleet(seed=6)
    mapping = {
        fleet.deterministic.encrypt(city.encode()): city for city in CITIES
    }
    prior = {city: 1.0 / (rank + 1) for rank, city in enumerate(CITIES)}
    return nodes, fleet, mapping, prior


def build_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E8",
        title="Attacker accuracy vs fake-tuple ratio",
        claim="tuple re-identification falls with noise; complementary "
        "noise flattens faster than white at equal ratio",
        columns=[
            "mode", "ratio", "tuple_accuracy", "flatness", "bandwidth_kB",
        ],
    )
    nodes, fleet, mapping, prior = setup()
    clean = NoiseProtocol(fleet, rng=random.Random(1)).run(nodes, QUERY)
    true_counts = dict(clean.ssi_tag_histogram)
    for mode in (WHITE_NOISE, COMPLEMENTARY_NOISE):
        for ratio in (0.0, 0.5, 1.0, 2.0, 4.0):
            plan = (
                NoisePlan(mode, ratio, tuple(CITIES))
                if ratio
                else NoisePlan()
            )
            report = NoiseProtocol(fleet, noise=plan, rng=random.Random(2)).run(
                nodes, QUERY
            )
            attack = frequency_analysis(
                report.ssi_tag_histogram, prior, mapping,
                true_tuple_counts=true_counts,
            )
            experiment.add_row(
                mode if ratio else "none",
                ratio,
                round(attack.tuple_accuracy, 3),
                round(histogram_flatness(report.ssi_tag_histogram), 3),
                round(report.comm_bytes / 1024, 1),
            )
    return experiment


def test_e8_noise_privacy(benchmark):
    experiment = run_and_print(build_experiment)
    rows = experiment.rows
    baseline = next(row for row in rows if row[0] == "none")
    assert baseline[2] > 0.5  # attack works on raw deterministic tags
    for mode in (WHITE_NOISE, COMPLEMENTARY_NOISE):
        series = [row for row in rows if row[0] == mode]
        heaviest = max(series, key=lambda row: row[1])
        assert heaviest[2] < baseline[2]  # noise hurts the attacker
        assert heaviest[4] > baseline[4] * 2  # ...at bandwidth cost
        assert heaviest[3] > baseline[3]  # ...because histograms flatten
    # Complementary flattens at least as well as white at max ratio.
    white = max((r for r in rows if r[0] == WHITE_NOISE), key=lambda r: r[1])
    comp = max(
        (r for r in rows if r[0] == COMPLEMENTARY_NOISE), key=lambda r: r[1]
    )
    assert comp[3] >= white[3] * 0.9

    nodes, fleet, _, _ = setup(100)
    protocol = NoiseProtocol(
        fleet,
        noise=NoisePlan(WHITE_NOISE, 1.0, tuple(CITIES)),
        rng=random.Random(3),
    )
    benchmark(protocol.run, nodes, QUERY)


def test_e8_histogram_buckets(benchmark):
    """Ablation: more equi-depth buckets = finer leak, flatter = safer."""
    experiment = Experiment(
        experiment_id="E8-buckets",
        title="Equi-depth bucket count vs leak",
        claim="bucket histogram stays flat; categories leaked <= buckets",
        columns=["buckets", "leaked_categories", "flatness"],
    )
    nodes, fleet, _, prior = setup()
    for buckets in (2, 3, 5):
        report = HistogramProtocol(
            fleet, EquiDepthBucketizer(prior, buckets), rng=random.Random(4)
        ).run(nodes, QUERY)
        experiment.add_row(
            buckets,
            len(report.ssi_bucket_histogram),
            round(histogram_flatness(report.ssi_bucket_histogram), 3),
        )
    print()
    print(render_table(experiment))
    leaked = experiment.column("leaked_categories")
    assert all(l <= b for l, b in zip(leaked, experiment.column("buckets")))
    # Equi-depth keeps buckets far flatter than the raw Zipf tag histogram.
    clean = NoiseProtocol(fleet, rng=random.Random(5)).run(nodes, QUERY)
    raw_flatness = histogram_flatness(clean.ssi_tag_histogram)
    assert min(experiment.column("flatness")) > raw_flatness

    benchmark(lambda: None)
