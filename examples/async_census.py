"""The census query as thousands of concurrent nodes on a lossy network.

``examples/smart_city_census.py`` executes the [TNP14] phases as in-process
calls. This example hands the *same* family objects to the :mod:`repro.net`
asyncio runtime: every PDS is its own task,
frames cross a simulated network with latency, jitter and 5% loss, 10% of
nodes are offline at any instant, and a pool of trusted tokens claims
partitions concurrently — some of which walk away mid-partition. The
reliable-delivery layer (retransmit + dedup) makes the answer come out
*exactly* equal to the synchronous run on the same seeds.

Run with:  python examples/async_census.py
"""

import random
import time

from repro.globalq.async_protocol import AsyncGlobalQuery
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import WHITE_NOISE, NoisePlan, NoiseProtocol
from repro.globalq.protocol import PdsNode, TokenFleet
from repro.globalq.queries import AggregateQuery, plaintext_answer
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.net import ChurnModel, LinkProfile
from repro.workloads.people import CITIES, generate_population

QUERY = AggregateQuery.count(group_by="city", where=(("kind", "profile"),))
NOISE = NoisePlan(WHITE_NOISE, 1.0, tuple(CITIES))
PRIOR = {city: 1.0 / (rank + 1) for rank, city in enumerate(CITIES)}


def families():
    """Fresh family objects (fresh rngs), so the synchronous and the
    asynchronous run of a family start from the same seeds."""
    return [
        SecureAggregationProtocol(TokenFleet(3), rng=random.Random(1)),
        NoiseProtocol(TokenFleet(3), noise=NOISE, rng=random.Random(1)),
        HistogramProtocol(
            TokenFleet(3), EquiDepthBucketizer(PRIOR, 3), rng=random.Random(1)
        ),
    ]


def async_driver(family) -> AsyncGlobalQuery:
    return AsyncGlobalQuery(
        family,
        link=LinkProfile(latency_ms=10.0, jitter_ms=5.0, loss=0.05),
        churn=ChurnModel(offline_fraction=0.10, mean_online=0.03),
        num_tokens=16,
        token_failure_rate=0.1,
    )


def main() -> None:
    print("== 1. A 1000-citizen census over an unreliable network ==")
    population = generate_population(1000, seed=41, skew=1.1)
    nodes = [PdsNode(i, records) for i, records in enumerate(population)]
    truth = plaintext_answer(population, QUERY)
    print(f"nodes: {len(nodes)}; link: 10ms +/- 5ms, 5% loss; "
          "churn: 10% offline at any instant; 10% of tokens walk away")

    print("\n== 2. All three families, async == sync ==")
    for sync_family, async_family in zip(families(), families()):
        sync_report = sync_family.run(nodes, QUERY)
        start = time.perf_counter()
        report = async_driver(async_family).run_sync(nodes, QUERY)
        elapsed = time.perf_counter() - start
        metrics = report.net_metrics
        print(f"{sync_family.name:20s} equal={report.result == sync_report.result} "
              f"exact={report.result == truth} "
              f"frames={metrics.frames_sent} "
              f"dropped={metrics.frames_dropped} "
              f"reassigned={report.aggregator_retries} "
              f"wall={elapsed:.2f}s")

    print("\n== 3. What the unreliability cost (noise-based family) ==")
    report = async_driver(families()[1]).run_sync(nodes, QUERY)
    metrics = report.net_metrics
    for key, value in metrics.summary().items():
        print(f"  {key}: {value}")
    retrans = metrics.sent_by_kind["CONTRIB"] - report.tuples_sent
    print(f"  retransmitted CONTRIB frames: {retrans} "
          f"({100.0 * retrans / report.tuples_sent:.1f}% of uploads)")
    print("\nEvery lost frame was retried, every duplicate deduplicated:")
    print(f"  result == plaintext truth: {report.result == truth}")


if __name__ == "__main__":
    main()
