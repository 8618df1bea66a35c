"""E15 — Decentralized social networks: hosting availability & anonymity.

Part I's DSN review (Safebook/PeerSoN/Diaspora*) centres on two challenges:
secure message hosting and anonymous transfer. Claims under test: post
availability under churn follows ``1 - (1-p)^(mirrors+1)`` and rises with
the replication factor; mirrors only ever hold ciphertext; onion relays
see exactly their two neighbours and never the payload or (beyond the first
hop) the source.
"""

from __future__ import annotations

import statistics

from repro.apps.dsn import DecentralizedSocialNetwork
from repro.bench.harness import Experiment, run_and_print


def build_availability_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E15",
        title="Post availability vs mirrors and churn",
        claim="measured availability tracks 1-(1-p)^(m+1); replication "
        "compensates churn",
        columns=["mirrors", "p_online", "measured", "analytic"],
    )
    network = DecentralizedSocialNetwork(num_users=60, avg_friends=8, seed=5)
    for mirrors in (1, 3, 6):
        post = network.publish(0, "payload", mirrors=mirrors)
        actual_holders = sum(
            1 for user in network.users if (0, post.post_id) in user.mirrored
        )
        for p_online in (0.2, 0.5, 0.8):
            measured = network.availability(
                0, post.post_id, p_online, trials=600
            )
            analytic = 1 - (1 - p_online) ** (actual_holders + 1)
            experiment.add_row(
                actual_holders, p_online, round(measured, 3), round(analytic, 3)
            )
    return experiment


def build_anonymity_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E15-routing",
        title="Anonymous transfer: what relays observe",
        claim="payload never visible to relays; source known only to the "
        "first relay; path length ~ graph diameter",
        columns=[
            "messages", "relay_events", "payload_leaks",
            "source_exposures", "median_path",
        ],
    )
    network = DecentralizedSocialNetwork(num_users=80, avg_friends=6, seed=9)
    paths = []
    source_exposures = 0
    for index in range(40):
        source = index % 20
        target = 79 - (index % 20)
        path = network.send_message(source, target, f"msg-{index}")
        paths.append(len(path) - 1)
        observations = network.relay_log[-(len(path) - 2):] if len(path) > 2 else []
        for obs in observations:
            if obs.previous_hop == source:
                source_exposures += 1  # only the first relay borders the src
    payload_leaks = sum(
        1 for obs in network.relay_log if obs.payload_visible
    )
    experiment.add_row(
        40,
        len(network.relay_log),
        payload_leaks,
        source_exposures,
        statistics.median(paths),
    )
    return experiment


def test_e15_availability(benchmark):
    experiment = run_and_print(build_availability_experiment)
    for mirrors, p_online, measured, analytic in experiment.rows:
        assert abs(measured - analytic) < 0.08  # binomial noise, 600 trials
    # More mirrors -> higher availability at fixed churn.
    at_half = [
        (row[0], row[2]) for row in experiment.rows if row[1] == 0.5
    ]
    at_half.sort()
    assert at_half[-1][1] >= at_half[0][1]

    network = DecentralizedSocialNetwork(num_users=30, seed=2)
    post = network.publish(0, "x", mirrors=3)
    benchmark(network.availability, 0, post.post_id, 0.5, 100)


def test_e15_anonymity(benchmark):
    experiment = run_and_print(build_anonymity_experiment)
    row = experiment.rows[0]
    messages, relay_events, payload_leaks, source_exposures, median_path = row
    assert payload_leaks == 0
    # Only the relay adjacent to the source can border it: at most one
    # exposure per message, and that relay still cannot *distinguish*
    # source from forwarder.
    assert source_exposures <= messages
    assert median_path >= 2  # multi-hop in a sparse trust graph

    benchmark(lambda: None)
