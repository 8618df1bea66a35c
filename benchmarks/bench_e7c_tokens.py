"""E7c — Tokens change the complexity class of secure comparison & mining.

The "SMC Using Tokens" slide's quantitative content:

* the millionaires' problem drops from O(2^bits) RSA decryptions (the 1982
  protocol, E7a) to O(bits) **symmetric** operations with a garbled
  comparator whose oblivious transfers run through a tamper-proof token;
* the [CKV+02] application — association rules over horizontally
  partitioned data — mines the exact centralized ruleset with one masked
  ring sum per candidate itemset and zero public-key operations.
"""

from __future__ import annotations

import random

from repro.bench.harness import Experiment, run_and_print
from repro.crypto.rsa import generate_keypair as rsa_keypair
from repro.net.metrics import Channel
from repro.smc.association import mine_centralized, mine_distributed
from repro.smc.garbled import garbled_millionaires
from repro.smc.millionaire import millionaires

RSA_KEYS = rsa_keypair(bits=256, rng=random.Random(81))


def build_comparison_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E7c",
        title="Millionaires: Yao'82 (exponential) vs garbled+token (linear)",
        claim="1982: modexps = 2^bits; garbled circuit with token-OT: "
        "symmetric ops ~ 9 x bits, zero modexps",
        columns=[
            "bits", "yao82_modexps", "garbled_sym_ops", "garbled_modexps",
            "ot_transfers", "agree",
        ],
    )
    rng = random.Random(5)
    for bits in (3, 5, 7):
        domain = 2**bits
        alice, bob = domain - 2, domain // 3 + 1
        old = millionaires(alice, bob, domain, Channel(), rng, keypair=RSA_KEYS)
        new = garbled_millionaires(alice - 1, bob - 1, bits, Channel(), rng)
        experiment.add_row(
            bits,
            old.crypto.modexps,
            new.crypto.symmetric_ops,
            new.crypto.modexps,
            new.ot_transfers,
            old.alice_at_least_bob == new.alice_at_least_bob,
        )
    return experiment


def make_sites(num_sites: int, transactions_per_site: int, seed: int):
    rng = random.Random(seed)
    catalogue = ["bread", "butter", "milk", "jam", "eggs", "tea"]
    sites = []
    for _ in range(num_sites):
        site = []
        for _ in range(transactions_per_site):
            basket = {
                item for item in catalogue if rng.random() < 0.4
            } or {"bread"}
            site.append(basket)
        sites.append(site)
    return sites


def build_mining_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E7c-mining",
        title="Association rules over partitioned sites ([CKV+02])",
        claim="distributed rules == centralized rules; cost = one ring "
        "secure sum per candidate itemset",
        columns=[
            "sites", "transactions", "rules", "secure_sums", "comm_kB",
            "equal_to_centralized",
        ],
    )
    for num_sites in (3, 6):
        sites = make_sites(num_sites, 40, seed=num_sites)
        pooled = [t for site in sites for t in site]
        # Random 0.4-density baskets: pair supports sit around 0.16, so
        # thresholds must admit pairs for any rules to exist at all.
        central = mine_centralized(pooled, 0.12, 0.4)
        channel = Channel()
        report = mine_distributed(sites, 0.12, 0.4, channel, random.Random(1))
        experiment.add_row(
            num_sites,
            len(pooled),
            len(report.rules),
            report.secure_sums,
            round(report.comm_bytes / 1024, 1),
            [r.key() for r in report.rules] == [r.key() for r in central],
        )
    return experiment


def test_e7c_token_comparison(benchmark):
    experiment = run_and_print(build_comparison_experiment)
    assert all(experiment.column("agree"))
    assert all(m == 0 for m in experiment.column("garbled_modexps"))
    old = experiment.column("yao82_modexps")
    new = experiment.column("garbled_sym_ops")
    # Old: 2^bits decryptions (+1 encryption) — doubles per extra bit;
    # new grows by a constant amount per bit.
    assert old[0] - 1 == 2**3 and old[-1] - 1 == 2**7
    assert new[-1] - new[1] <= (new[1] - new[0]) * 2 + 10

    benchmark(
        garbled_millionaires, 100, 57, 8, Channel(), random.Random(2)
    )


def test_e7c_distributed_mining(benchmark):
    experiment = run_and_print(build_mining_experiment)
    assert all(experiment.column("equal_to_centralized"))
    assert all(rules > 0 for rules in experiment.column("rules"))

    sites = make_sites(3, 25, seed=9)
    benchmark(
        mine_distributed, sites, 0.3, 0.6, Channel(), random.Random(3)
    )
