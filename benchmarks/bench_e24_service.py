"""E24 — The SSI as a query service: admission, caching, and the knee.

Claims under test (Issue 6's acceptance criteria):

* under concurrent mixed-class load with churn enabled, **every** completed
  query's aggregate is bit-identical to the one-shot batch driver re-run
  over the (snapshot, seed) the service recorded for it — scheduling,
  caching and churn cannot perturb an answer;
* an open-loop Poisson sweep over arrival rate × cache size exhibits a
  measurable saturation knee: below it goodput tracks offered load, above
  it queues fill and admission control sheds with the typed ``Overloaded``
  rejection;
* the version-exact result cache moves the knee to higher rates at equal
  answers (hits are byte-identical replays, never approximations).

Row meaning: one row per sweep cell — offered rate (q/s), cache capacity,
offered/completed/shed counts, goodput (q/s), latency p50/p99/p999 (ms),
cache hits, and whether every unique computed answer verified
bit-identically. ``meta`` carries the knee per cache configuration and the
persistent-pool reuse timing. The service is a single-executor system, so
there is no scheduler-width axis (the last ``in_flight`` sweep is kept in
EXPERIMENTS.md).

``SERVICE_SMOKE=1`` (the CI job) runs the same sweep at tiny sizes, like
``BENCH_SMOKE``.
"""

from __future__ import annotations

import asyncio
import os
import random
import time

from repro.bench.harness import (
    Experiment,
    record_wall_clock,
    run_and_print,
    smoke_mode,
)
from repro.globalq.parallel import ShardedCollector, WorkerPool
from repro.globalq.protocol import TokenFleet
from repro.globalq.queries import AggregateQuery
from repro.net.runtime import ChurnModel
from repro.service import (
    MembershipChurn,
    OpenLoopLoadGenerator,
    ServiceConfig,
    SsiQueryService,
    embedded_mix,
    find_knee,
    run_query,
    slim_population,
    standard_mix,
)

#: Goodput/offered floor that still counts as "keeping up" (knee threshold).
KNEE_THRESHOLD = 0.9


def service_smoke() -> bool:
    """Tiny sizes under either the generic or the service CI smoke flag."""
    return smoke_mode() or bool(os.environ.get("SERVICE_SMOKE"))


def parameters() -> dict:
    if service_smoke():
        return {
            "population": 240,
            "rates": [4.0, 16.0],
            "caches": [0, 8],
            "duration_s": 0.5,
            "churn_sample": 3,
            "embedded_rates": [4.0, 16.0, 32.0],
            "embedded_rows": 2000,
            "embedded_duration_s": 0.5,
        }
    return {
        "population": 4000,
        "rates": [1.0, 2.0, 4.0, 8.0, 16.0],
        "caches": [0, 16],
        "duration_s": 2.0,
        "churn_sample": 4,
        "embedded_rates": [2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        "embedded_rows": 2000,
        "embedded_duration_s": 2.0,
    }


async def run_cell(
    population_size: int,
    rate: float,
    cache_capacity: int,
    duration_s: float,
    churn_sample: int,
):
    """One sweep cell: fresh population, churn on, open-loop load."""
    population = slim_population(population_size)
    service = SsiQueryService(
        population,
        ServiceConfig(
            max_queue_depth=16,
            cache_capacity=cache_capacity,
            record_snapshots=True,
        ),
    )
    service.start()
    churn = MembershipChurn(
        population,
        ChurnModel(offline_fraction=0.25, mean_online=1.5),
        # The churn streams of the retired in_flight=1 cells, so the table
        # stays comparable with the sweep kept in EXPERIMENTS.md.
        rng=random.Random(int(rate * 100) + 1),
        sample=churn_sample,
    )
    churn.start()
    generator = OpenLoopLoadGenerator(
        service, standard_mix(), seed=int(rate * 10) + cache_capacity
    )
    report = await generator.run(rate, duration_s, keep_results=True)
    await churn.stop()
    await service.stop()
    return population, service, report


def verify_bit_identity(population, service, report) -> tuple[int, bool]:
    """Re-run the batch driver for every unique served computation.

    Served answers that share (descriptor, version) share the snapshot and
    seed by construction, so each unique pair verifies all its replays —
    including every cache hit.
    """
    unique = {}
    for served in report.results:
        key = (served.descriptor.canonical(), served.version)
        existing = unique.get(key)
        if existing is not None:
            # A replay (cache hit or identical recomputation) must already
            # be byte-identical to its first serving.
            if (
                existing.result != served.result
                or existing.seed != served.seed
            ):
                return len(unique), False
            continue
        unique[key] = served
    for served in unique.values():
        reference = run_query(
            served.descriptor,
            served.snapshot.nodes,
            population.fleet,
            served.seed,
            service.config.domain,
        )
        if reference.result != served.result:
            return len(unique), False
    return len(unique), True


def sweep(experiment: Experiment) -> None:
    params = parameters()
    knees = {}
    for cache_capacity in params["caches"]:
        reports = []
        for rate in params["rates"]:
            start = time.perf_counter()
            population, service, report = asyncio.run(
                run_cell(
                    params["population"],
                    rate,
                    cache_capacity,
                    params["duration_s"],
                    params["churn_sample"],
                )
            )
            wall_s = time.perf_counter() - start
            verified, exact = verify_bit_identity(population, service, report)
            summary = report.latency_ms.summary()
            experiment.add_row(
                rate,
                cache_capacity,
                report.offered,
                report.completed,
                report.shed,
                round(report.goodput, 2),
                round(summary["p50"], 1),
                round(summary["p99"], 1),
                round(summary["p999"], 1),
                report.cache_hits,
                verified,
                exact,
                "-",
            )
            record_wall_clock(
                experiment, f"cell_r{rate:g}_c{cache_capacity}", wall_s
            )
            reports.append(report)
        knees[f"cache={cache_capacity}"] = find_knee(reports, KNEE_THRESHOLD)
    experiment.meta["knees"] = knees


async def run_embedded_cell(rate: float, duration_s: float, rows: int):
    """One embedded-spj sweep cell.

    Churn is off and the population tiny — this family never touches the
    fleet; the cell isolates the hosted Part II engine's per-query CPU
    cost. Cache is off so every admitted query actually executes.
    """
    population = slim_population(24)
    service = SsiQueryService(
        population,
        ServiceConfig(
            max_queue_depth=16, cache_capacity=0, record_snapshots=True
        ),
    )
    service.start()
    generator = OpenLoopLoadGenerator(
        service, embedded_mix(rows), seed=int(rate * 10)
    )
    report = await generator.run(rate, duration_s, keep_results=True)
    await service.stop()
    return population, service, report


def embedded_sweep(experiment: Experiment) -> None:
    """Embedded-family rate sweep on the hosted (columnar) engine.

    The service-level claim: the engine's per-query CPU is cheap enough
    that the saturation knee sits above 8 q/s. (The tuple-at-a-time
    executor this used to be swept against is a test reference only; its
    last measured knee is kept in EXPERIMENTS.md.)
    """
    params = parameters()
    engine = "batch"
    # Prewarm the hosted database so the one-time build cost never lands
    # in a cell's latency.
    from repro.service import run_embedded

    start = time.perf_counter()
    run_embedded(embedded_mix(params["embedded_rows"]).descriptors()[0])
    record_wall_clock(
        experiment, "embedded_db_build", time.perf_counter() - start
    )
    reports = []
    for rate in params["embedded_rates"]:
        start = time.perf_counter()
        population, service, report = asyncio.run(
            run_embedded_cell(
                rate,
                params["embedded_duration_s"],
                params["embedded_rows"],
            )
        )
        wall_s = time.perf_counter() - start
        verified, exact = verify_bit_identity(
            population, service, report
        )
        summary = report.latency_ms.summary()
        experiment.add_row(
            rate,
            0,
            report.offered,
            report.completed,
            report.shed,
            round(report.goodput, 2),
            round(summary["p50"], 1),
            round(summary["p99"], 1),
            round(summary["p999"], 1),
            report.cache_hits,
            verified,
            exact,
            engine,
        )
        record_wall_clock(
            experiment, f"embedded_r{rate:g}_{engine}", wall_s
        )
        reports.append(report)
    experiment.meta["embedded_knees"] = {
        engine: find_knee(reports, KNEE_THRESHOLD)
    }
    experiment.meta["embedded_rows"] = params["embedded_rows"]


def pool_reuse_rows(experiment: Experiment) -> None:
    """Satellite 1: a persistent WorkerPool amortises process spawning."""
    calls = 4
    population = slim_population(60 if service_smoke() else 600)
    nodes = list(population.snapshot().nodes)
    query = AggregateQuery.sum("salary")

    start = time.perf_counter()
    for _ in range(calls):
        ShardedCollector(workers=2, shard_size=64).collect(
            nodes, query, TokenFleet(0)
        )
    per_call_s = time.perf_counter() - start

    start = time.perf_counter()
    with WorkerPool(workers=2) as pool:
        for _ in range(calls):
            ShardedCollector(shard_size=64, pool=pool).collect(
                nodes, query, TokenFleet(0)
            )
    pooled_s = time.perf_counter() - start

    experiment.meta["pool_reuse"] = {
        "calls": calls,
        "per_call_executor_s": round(per_call_s, 3),
        "persistent_pool_s": round(pooled_s, 3),
        "speedup": round(per_call_s / pooled_s, 2) if pooled_s else None,
    }
    record_wall_clock(experiment, "pool_per_call", per_call_s)
    record_wall_clock(experiment, "pool_persistent", pooled_s)


def build_experiment() -> Experiment:
    params = parameters()
    experiment = Experiment(
        experiment_id="e24",
        title="SSI query service: admission, churn-aware cache, knee",
        claim="a persistent SSI serves concurrent mixed [TNP14] queries "
        "bit-identically to the one-shot driver under churn; open-loop "
        "load locates a saturation knee and the version-exact cache "
        "moves it to higher rates",
        columns=[
            "rate_qps", "cache", "offered", "completed", "shed",
            "goodput_qps", "p50_ms", "p99_ms", "p999_ms", "cache_hits",
            "verified", "exact", "engine",
        ],
    )
    experiment.meta["smoke_mode"] = service_smoke()
    experiment.meta["population"] = params["population"]
    experiment.meta["duration_s"] = params["duration_s"]
    experiment.meta["knee_threshold"] = KNEE_THRESHOLD
    sweep(experiment)
    embedded_sweep(experiment)
    pool_reuse_rows(experiment)
    return experiment


def test_e24_service(benchmark):
    experiment = run_and_print(build_experiment)
    # The acceptance property: every completed answer, in every cell,
    # reproduced bit-identically by the batch driver.
    assert all(experiment.column("exact"))
    assert all(v > 0 for v in experiment.column("verified"))
    # Saturation is observable: each cache configuration reports a knee.
    knees = experiment.meta["knees"]
    assert knees
    for knee in knees.values():
        assert knee["knee_rate_qps"] > 0
    # The service claim, asserted in smoke and full runs alike: the hosted
    # engine sustains embedded-spj load past 8 q/s.
    embedded_knees = experiment.meta["embedded_knees"]
    assert embedded_knees["batch"]["knee_rate_qps"] > 8.0
    protocol_rows = [row for row in experiment.rows if row[12] == "-"]
    if not service_smoke():
        # Past the knee the service sheds rather than queueing unboundedly.
        shed_total = sum(experiment.column("shed"))
        assert shed_total > 0
        # The cache lifts goodput at the top offered rate.
        top = max(row[0] for row in protocol_rows)
        goodput = {row[1]: row[5] for row in protocol_rows if row[0] == top}
        assert goodput[16] > goodput[0]

    # pytest-benchmark hook: one served query end to end (tiny population).
    def one_query():
        async def body():
            population = slim_population(60)
            service = SsiQueryService(population)
            service.start()
            served = await service.submit(standard_mix().descriptors()[1])
            await service.stop()
            return served

        return asyncio.run(body())

    served = benchmark(one_query)
    assert served.result["*"] == 60.0


if __name__ == "__main__":
    run_and_print(build_experiment)
