"""Smart-city census: global aggregate queries over a PDS population.

The societal application Part III motivates: a statistics office queries
hundreds of citizens' PDSs through an untrusted cloud (SSI). The example
runs the same GROUP BY query through all three [TNP14] protocol families,
compares their cost/leak profiles, mounts the frequency-analysis attack the
deterministic family is vulnerable to, and shows a cheating SSI being
caught.

Run with:  python examples/smart_city_census.py
"""

import random

from repro.globalq.attacks import frequency_analysis, histogram_flatness
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import NoiseProtocol
from repro.globalq.queries import (
    WHITE_NOISE,
    AggregateQuery,
    NoisePlan,
    plaintext_answer,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.ssi import SsiBehavior
from repro.pds.acl import Subject
from repro.pds.population import PdsPopulation
from repro.workloads.people import CITIES


def main() -> None:
    print("== 1. A population of 150 full Personal Data Servers ==")
    population = PdsPopulation(150, seed=9, skew=1.3)
    querier = Subject("statistics-office", "querier")
    nodes = population.nodes_for(querier)  # each PDS applies its policy
    print(f"citizens: {len(population)}; "
          f"records released: {sum(len(n.records) for n in nodes)}")

    query = AggregateQuery.count(group_by="city", where=(("kind", "profile"),))
    truth = plaintext_answer(
        [node.records for node in nodes], query
    )
    print(f"ground truth: { {g: int(v) for g, v in sorted(truth.items())} }")

    print("\n== 2. The three protocol families on the same query ==")
    prior = {city: 1.0 / (rank + 1) for rank, city in enumerate(CITIES)}
    protocols = {
        "secure-aggregation": SecureAggregationProtocol(
            population.fleet, rng=random.Random(1)
        ),
        "noise-based (1x fakes)": NoiseProtocol(
            population.fleet,
            noise=NoisePlan(WHITE_NOISE, 1.0, tuple(CITIES)),
            rng=random.Random(1),
        ),
        "histogram-based (3 buckets)": HistogramProtocol(
            population.fleet, EquiDepthBucketizer(prior, 3),
            rng=random.Random(1),
        ),
    }
    reports = {}
    for name, protocol in protocols.items():
        report = protocol.run(nodes, query)
        reports[name] = report
        exact = all(abs(report.result[g] - v) < 1e-9 for g, v in truth.items())
        leak = max(len(report.ssi_tag_histogram), len(report.ssi_bucket_histogram))
        print(f"  {name:<28} exact={exact}  comm={report.comm_bytes // 1024} kB  "
              f"token-invocations={report.token_invocations}  "
              f"leaked-categories={leak}")

    print("\n== 3. What the curious SSI can infer (frequency analysis) ==")
    clean = NoiseProtocol(population.fleet, rng=random.Random(2)).run(nodes, query)
    mapping = {
        population.fleet.deterministic.encrypt(c.encode()): c for c in CITIES
    }
    attack = frequency_analysis(clean.ssi_tag_histogram, prior, mapping)
    print(f"  deterministic tags, no noise: attacker re-identifies "
          f"{attack.tuple_accuracy:.0%} of tuples "
          f"(tag flatness {histogram_flatness(clean.ssi_tag_histogram):.2f})")
    noisy = reports["noise-based (1x fakes)"]
    attack_noisy = frequency_analysis(
        noisy.ssi_tag_histogram, prior, mapping,
        true_tuple_counts=dict(clean.ssi_tag_histogram),
    )
    # Flatness is the stable signal; rank matching is discrete, so at 1x
    # the accuracy moves a few points either way with the fake draw (E8).
    print(f"  with 1x fake tuples:          tag flatness rises to "
          f"{histogram_flatness(noisy.ssi_tag_histogram):.2f} "
          f"(attacker accuracy {attack_noisy.tuple_accuracy:.0%})")

    print("\n== 4. A weakly malicious SSI gets caught ==")
    cheating = SecureAggregationProtocol(
        population.fleet,
        ssi_behavior=SsiBehavior(forge_count=4, duplicate_fraction=0.1),
        partition_size=16,
        rng=random.Random(3),
    ).run(nodes, query)
    print(f"  forged blobs rejected: {cheating.integrity_failures}")
    print(f"  replays detected:      {cheating.duplicates_detected}")
    print(f"  cheating detected:     {cheating.cheating_detected}")


if __name__ == "__main__":
    main()
