"""E19 — The async [TNP14] protocol over a lossy, churning network.

Claims under test: the :mod:`repro.net` runtime scales a noise-based global
aggregate to thousands of concurrent PDS nodes; with 5-10% message loss and
10% node churn the reliable-delivery layer (retransmission + deduplication)
still returns *exactly* the synchronous driver's answer; and the cost of
unreliability is visible as retransmitted frames, not wrong results.
"""

from __future__ import annotations

import random
import time

from repro.bench.harness import Experiment, run_and_print
from repro.globalq.async_protocol import AsyncGlobalQuery
from repro.globalq.noise import NoiseProtocol
from repro.globalq.queries import WHITE_NOISE, AggregateQuery, NoisePlan
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.net import ChurnModel, LinkProfile
from repro.workloads.people import CITIES, generate_population

QUERY = AggregateQuery.count(group_by="city", where=(("kind", "profile"),))
NOISE = NoisePlan(WHITE_NOISE, 1.0, tuple(CITIES))
CHURN = ChurnModel(offline_fraction=0.10, mean_online=0.03)

#: (num_pds, loss probability) sweep; the 2000-node 5%-loss row is the
#: acceptance configuration for the subsystem.
SWEEP = [(100, 0.0), (500, 0.05), (2000, 0.05), (5000, 0.10)]


def make_nodes(num_pds: int):
    population = generate_population(num_pds, seed=41, skew=1.1)
    return [PdsNode(i, records) for i, records in enumerate(population)]


def noise_family() -> NoiseProtocol:
    """A fresh family object: both drivers start from the same seeds."""
    return NoiseProtocol(TokenFleet(3), noise=NOISE, rng=random.Random(1))


def run_pair(num_pds: int, loss: float):
    nodes = make_nodes(num_pds)
    sync_report = noise_family().run(nodes, QUERY)
    driver = AsyncGlobalQuery(
        noise_family(),
        link=LinkProfile(latency_ms=10.0, jitter_ms=5.0, loss=loss),
        churn=CHURN if loss else None,
        num_tokens=16,
        token_failure_rate=0.1,
        deadline=120.0,
    )
    start = time.perf_counter()
    report = driver.run_sync(nodes, QUERY)
    elapsed = time.perf_counter() - start
    return sync_report, report, elapsed


def build_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E19",
        title="Async noise-based COUNT over a lossy churning network",
        claim="exactly the synchronous answer at every scale; loss and "
        "churn cost retransmissions, never correctness",
        columns=[
            "num_pds", "loss_pct", "exact", "frames", "retrans_pct",
            "dropped", "reassigned", "comm_kB", "wall_s",
        ],
    )
    for num_pds, loss in SWEEP:
        sync_report, report, elapsed = run_pair(num_pds, loss)
        metrics = report.net_metrics
        retrans = (
            100.0
            * (metrics.sent_by_kind["CONTRIB"] - report.tuples_sent)
            / max(1, report.tuples_sent)
        )
        experiment.add_row(
            num_pds,
            round(loss * 100),
            report.result == sync_report.result,
            metrics.frames_sent,
            round(retrans, 1),
            metrics.frames_dropped,
            report.aggregator_retries,
            round(report.comm_bytes / 1024, 1),
            round(elapsed, 2),
        )
    return experiment


def test_e19_network_scale(benchmark):
    experiment = run_and_print(build_experiment)
    assert all(experiment.column("exact"))
    # The acceptance row: >= 2000 nodes, 5% loss, 10% churn completed.
    assert any(
        row[0] >= 2000 and row[1] == 5 for row in experiment.rows
    )
    # Lossy rows really were lossy.
    for row in experiment.rows:
        if row[1] > 0:
            assert row[5] > 0, row

    nodes = make_nodes(300)
    driver = AsyncGlobalQuery(
        noise_family(),
        link=LinkProfile(latency_ms=10.0, jitter_ms=5.0, loss=0.05),
        churn=CHURN,
        token_failure_rate=0.1,
    )
    benchmark(driver.run_sync, nodes, QUERY)
