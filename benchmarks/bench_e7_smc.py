"""E7 — The cost of generic SMC vs the token-assisted alternatives.

Claims under test (Part III's "current solutions" critique):

* Yao's millionaire protocol costs one RSA decryption per *domain value* —
  exponential in the bit-length of the compared values;
* Paillier secure sum pays modular exponentiations per site while the
  masked-ring sum (and, a fortiori, in-token plaintext aggregation) pays
  none — quantifying why cheap trusted hardware changes the game.
"""

from __future__ import annotations

import random
import time

from repro.bench.harness import (
    Experiment,
    record_wall_clock,
    run_and_print,
)
from repro.crypto.paillier import generate_keypair as paillier_keypair
from repro.crypto.rsa import generate_keypair as rsa_keypair
from repro.net.metrics import Channel
from repro.smc.millionaire import millionaires
from repro.smc.secure_sum import paillier_secure_sum, ring_secure_sum

RSA_KEYS = rsa_keypair(bits=256, rng=random.Random(71))
PAILLIER = paillier_keypair(bits=384, rng=random.Random(72))


def build_millionaire_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E7a",
        title="Millionaire protocol cost vs domain size (value bits)",
        claim="decryptions == 2^bits: cost proportional to the size of the "
        "compared values (Yao'82, as dismissed by the tutorial)",
        columns=["value_bits", "domain", "decryptions", "wall_ms"],
    )
    rng = random.Random(7)
    for bits in (3, 4, 5, 6, 7):
        domain = 2**bits
        start = time.perf_counter()
        result = millionaires(
            domain // 2, domain // 3, domain, Channel(), rng, keypair=RSA_KEYS
        )
        elapsed_ms = (time.perf_counter() - start) * 1000
        assert result.alice_at_least_bob  # domain//2 >= domain//3
        experiment.add_row(bits, domain, result.decryptions, round(elapsed_ms, 1))
        record_wall_clock(
            experiment, f"millionaire_bits_{bits}", elapsed_ms / 1000
        )
    return experiment


def build_sum_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E7b",
        title="Secure sum: masked ring vs Paillier vs plaintext",
        claim="ring: zero modexp, 1 message/site; Paillier: 1 modexp/site "
        "and >100x the wall time; all exact",
        columns=["sites", "variant", "modexps", "messages", "wall_ms", "exact"],
    )
    public, private = PAILLIER
    for sites in (5, 20, 50):
        values = [i * 11 for i in range(sites)]
        expected = sum(values)

        start = time.perf_counter()
        channel = Channel()
        ring = ring_secure_sum(values, channel, random.Random(1))
        ring_ms = (time.perf_counter() - start) * 1000
        experiment.add_row(
            sites, "ring", ring.crypto.modexps, channel.stats.messages,
            round(ring_ms, 3), ring.total == expected,
        )

        start = time.perf_counter()
        channel = Channel()
        paillier = paillier_secure_sum(
            values, public, private, channel, random.Random(1)
        )
        paillier_ms = (time.perf_counter() - start) * 1000
        experiment.add_row(
            sites, "paillier", paillier.crypto.modexps,
            channel.stats.messages, round(paillier_ms, 3),
            paillier.total == expected,
        )
        record_wall_clock(experiment, f"ring_sites_{sites}", ring_ms / 1000)
        record_wall_clock(
            experiment, f"paillier_sites_{sites}", paillier_ms / 1000
        )
    return experiment


def test_e7_millionaire(benchmark):
    experiment = run_and_print(build_millionaire_experiment)
    decryptions = experiment.column("decryptions")
    domains = experiment.column("domain")
    assert decryptions == domains  # one decryption per domain value
    # Cost doubles with each extra bit (exponential in value size).
    assert all(b == a * 2 for a, b in zip(decryptions, decryptions[1:]))

    rng = random.Random(9)
    benchmark(
        millionaires, 5, 3, 8, Channel(), rng, RSA_KEYS
    )


def test_e7_secure_sum(benchmark):
    experiment = run_and_print(build_sum_experiment)
    assert all(experiment.column("exact"))
    ring_rows = [row for row in experiment.rows if row[1] == "ring"]
    paillier_rows = [row for row in experiment.rows if row[1] == "paillier"]
    assert all(row[2] == 0 for row in ring_rows)  # no modexp in the ring
    for ring_row, paillier_row in zip(ring_rows, paillier_rows):
        assert paillier_row[2] == ring_row[0] + 1  # n encrypts + 1 decrypt
        assert paillier_row[4] > ring_row[4] * 20  # HE wall-time gap

    values = list(range(20))
    benchmark(ring_secure_sum, values, Channel(), random.Random(3))
