"""Secure computation, before and after tokens (Part III's argument).

Walks the tutorial's Part III narrative with running code: the classical
toolbox (millionaires' 1982 protocol, Clifton primitives), the token-era
alternative (garbled comparator with token-assisted OT), and the toolkit's
flagship application — association rules over data that never leaves its
sites unmasked.

Run with:  python examples/secure_datamining.py
"""

import random

from repro.crypto.rsa import generate_keypair
from repro.net.metrics import Channel
from repro.smc.association import mine_centralized, mine_distributed
from repro.smc.garbled import garbled_millionaires
from repro.smc.millionaire import millionaires
from repro.smc.secure_sum import ring_secure_sum
from repro.smc.set_ops import make_commutative_keys, secure_set_union


def main() -> None:
    rng = random.Random(7)

    print("== 1. The millionaires' problem, 1982 style (exponential) ==")
    keys = generate_keypair(bits=256, rng=rng)
    for bits in (4, 6, 8):
        domain = 2**bits
        result = millionaires(
            domain // 2, domain // 3, domain, Channel(), rng, keypair=keys
        )
        print(f"  {bits}-bit values: {result.decryptions} RSA decryptions")

    print("\n== 2. The same comparison with a garbled circuit + token OT ==")
    for bits in (4, 8, 16, 32):
        result = garbled_millionaires(
            (1 << bits) - 2, (1 << (bits - 1)), bits, Channel(), rng
        )
        print(f"  {bits:>2}-bit values: {result.crypto.symmetric_ops} symmetric "
              f"ops, {result.crypto.modexps} modexps, "
              f"{result.ot_transfers} token-OT transfers")

    print("\n== 3. Clifton toolkit primitives ==")
    channel = Channel()
    total = ring_secure_sum([120, 340, 85, 410], channel, rng)
    print(f"  secure sum of hospital caseloads: {total.total} "
          f"({channel.stats.messages} masked messages, 0 modexps)")
    union_keys = make_commutative_keys(3, rng, prime_bits=48)
    union = secure_set_union(
        [{"flu", "measles"}, {"flu", "asthma"}, {"covid"}],
        union_keys,
        Channel(),
    )
    print(f"  secure union of diagnoses seen: {sorted(union.items)}")

    print("\n== 4. Association rules without pooling the data ==")
    sites = [
        [{"bread", "butter"}, {"bread", "butter", "milk"}, {"bread"}],
        [{"butter", "milk"}, {"bread", "butter"}, {"bread", "milk"}],
        [{"bread", "butter", "jam"}, {"milk"}, {"bread", "butter"}],
    ]
    pooled = [basket for site in sites for basket in site]
    central = mine_centralized(pooled, 0.3, 0.7)
    channel = Channel()
    report = mine_distributed(sites, 0.3, 0.7, channel, rng)
    match = [r.key() for r in report.rules] == [r.key() for r in central]
    print(f"  {len(report.rules)} rules mined via {report.secure_sums} secure "
          f"sums ({report.comm_bytes} B on the wire)")
    print(f"  identical to centralized Apriori: {match}")
    for rule in report.rules[:3]:
        print(f"    {sorted(rule.antecedent)} -> {sorted(rule.consequent)} "
              f"(support {rule.support:.2f}, confidence {rule.confidence:.2f})")


if __name__ == "__main__":
    main()
