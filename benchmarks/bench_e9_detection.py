"""E9 — Catching the weakly malicious SSI.

Claims under test (the threat-model slide: covert adversaries "must be
prevented via security primitives"): forgery is detected with certainty
(authenticated encryption), replays surface at the querier merge, and
omission is caught by participation audits with probability
1 - (1-f)^k — measured empirically against the analytic curve. Honest runs
never raise a false alarm.
"""

from __future__ import annotations

import random

from repro.bench.harness import Experiment, render_table, run_and_print
from repro.globalq.queries import AggregateQuery
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.ssi import SsiBehavior, SupportingServerInfrastructure
from repro.globalq.tokens import PdsNode, TokenFleet, TrustedAggregator
from repro.globalq.verification import (
    detection_probability,
    participation_audit,
)
from repro.workloads.people import generate_population

QUERY = AggregateQuery.count(group_by="city", where=(("kind", "profile"),))


def make_nodes(num_pds: int):
    population = generate_population(num_pds, seed=61)
    return [PdsNode(i, records) for i, records in enumerate(population)]


def audit_trial(
    nodes, fleet, drop_fraction: float, sample_size: int, seed: int
) -> bool:
    """One collection under a dropping SSI + one audit; True if caught."""
    ssi = SupportingServerInfrastructure(
        SsiBehavior(drop_fraction=drop_fraction), random.Random(seed)
    )
    for node in nodes:
        ssi.collect(node.contributions(QUERY, fleet))
    outcomes = [
        TrustedAggregator(fleet).aggregate(partition)
        for partition in ssi.partition_random(32)
    ]
    audit = participation_audit(
        {node.pds_id for node in nodes},
        outcomes,
        sample_size,
        random.Random(seed + 1),
    )
    return audit.cheating_detected


def build_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E9",
        title="Omission detection rate vs audit sample size",
        claim="measured detection tracks 1-(1-f)^k; honest runs never flag",
        columns=[
            "drop_fraction", "sample_k", "measured", "analytic",
        ],
    )
    nodes = make_nodes(120)
    fleet = TokenFleet(seed=8)
    trials = 40
    for drop in (0.05, 0.15, 0.4):
        for sample in (3, 10, 30):
            caught = sum(
                1
                for trial in range(trials)
                if audit_trial(nodes, fleet, drop, sample, seed=trial * 7)
            )
            experiment.add_row(
                drop,
                sample,
                round(caught / trials, 3),
                round(detection_probability(drop, sample), 3),
            )
    return experiment


def test_e9_omission_detection(benchmark):
    experiment = run_and_print(build_experiment)
    for row in experiment.rows:
        drop, sample, measured, analytic = row
        assert abs(measured - analytic) < 0.25  # binomial noise over 40 trials
    # Monotone: more sampling or heavier dropping -> better detection.
    by_drop = {}
    for drop, sample, measured, _ in experiment.rows:
        by_drop.setdefault(drop, []).append((sample, measured))
    for series in by_drop.values():
        series.sort()
        assert series[-1][1] >= series[0][1]

    nodes = make_nodes(60)
    fleet = TokenFleet(seed=9)
    benchmark(audit_trial, nodes, fleet, 0.2, 10, 123)


def test_e9_forgery_and_replay(benchmark):
    """Forgery: always detected. Replay: detected at realistic rates.

    Honest runs never flag (no false positives over repeated runs)."""
    experiment = Experiment(
        experiment_id="E9-integrity",
        title="Forgery / replay / honest-run detection",
        claim="forged blobs always fail authentication; replays collide at "
        "the querier; honest runs are silent",
        columns=["behavior", "runs", "detected_runs", "false_positives"],
    )
    nodes = make_nodes(80)
    fleet = TokenFleet(seed=10)
    behaviors = {
        "forge(3)": SsiBehavior(forge_count=3),
        "duplicate(0.2)": SsiBehavior(duplicate_fraction=0.2),
        "honest": SsiBehavior(),
    }
    runs = 10
    for name, behavior in behaviors.items():
        detected = 0
        for trial in range(runs):
            report = SecureAggregationProtocol(
                fleet,
                partition_size=16,
                ssi_behavior=behavior,
                rng=random.Random(trial),
            ).run(nodes, QUERY)
            if report.cheating_detected:
                detected += 1
        false_positives = detected if name == "honest" else 0
        experiment.add_row(name, runs, detected, false_positives)
    print()
    print(render_table(experiment))
    rows = {row[0]: row for row in experiment.rows}
    assert rows["forge(3)"][2] == runs  # certainty
    assert rows["duplicate(0.2)"][2] >= runs * 0.8
    assert rows["honest"][2] == 0

    benchmark(lambda: None)
