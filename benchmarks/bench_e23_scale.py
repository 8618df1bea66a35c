"""E23 — Scaling global queries: batched Paillier + sharded collection.

Claims under test (the ROADMAP's million-user north star, applied to
Part III):

* the Paillier collection phase is crypto-bound: batching blinding factors
  through seeded pools (fixed-base windowed precomputation + BPV subset
  products) cuts its wall-clock by >=5x against the pre-PR scalar path
  (one full ``r^n mod n²`` per site), at identical decrypted totals;
* the [TNP14] secure-aggregation family completes a 1M-PDS sweep through
  the sharded executor, and the aggregate is *exactly* equal for every
  worker count — shard seeds, not scheduling, decide every ciphertext.

Row meaning: ``phase`` is ``crypto`` (Paillier secure sum, ``cost_ops`` =
full modular exponentiations) or ``scale`` ([TNP14] secure aggregation,
``cost_ops`` = token decryptions). ``wall_s`` is measured wall-clock (the
collection phase dominates both), also recorded per row in
``meta["wall_clock_s"]``.
"""

from __future__ import annotations

import random
import time

from repro.bench.harness import (
    Experiment,
    record_wall_clock,
    run_and_print,
    scaled,
    smoke_mode,
)
from repro.crypto.paillier import generate_keypair
from repro.globalq.queries import AggregateQuery, plaintext_answer
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.net.metrics import Channel
from repro.smc.secure_sum import paillier_secure_sum
from repro.workloads.people import CITIES, PersonRecord

QUERY = AggregateQuery.sum("salary", group_by="city")

#: Speedup floor of the acceptance criterion (full sizes only).
REQUIRED_SPEEDUP = 5.0


def worker_sweep() -> list[int]:
    return [1, 2] if smoke_mode() else [1, 2, 4, 8]


def make_slim_nodes(count: int, seed: int = 23) -> list[PdsNode]:
    """One flat record per PDS: at 1M nodes the records must stay slim."""
    rng = random.Random(seed)
    cities = list(CITIES)
    return [
        PdsNode(
            i,
            [
                PersonRecord(
                    {
                        "city": cities[rng.randrange(len(cities))],
                        "salary": float(1200 + rng.randrange(0, 4000)),
                    }
                )
            ],
        )
        for i in range(count)
    ]


def crypto_rows(experiment: Experiment) -> float:
    """Paillier secure-sum collection: scalar baseline vs batched shards."""
    bits = scaled(512, 256)
    sites = scaled(4096, 64)
    shard_size = scaled(512, 16)
    public, private = generate_keypair(bits, random.Random(72))
    values = [v * 13 % 100_000 for v in range(sites)]
    expected = sum(values)

    start = time.perf_counter()
    scalar = paillier_secure_sum(
        values, public, private, Channel(), random.Random(1)
    )
    scalar_s = time.perf_counter() - start
    experiment.add_row(
        "crypto", sites, "scalar", 1, scalar.crypto.modexps,
        round(scalar_s, 3), 1.0, scalar.total == expected,
    )
    record_wall_clock(experiment, "crypto_scalar", scalar_s)

    speedup_at_max = 0.0
    for workers in worker_sweep():
        start = time.perf_counter()
        batched = paillier_secure_sum(
            values, public, private, Channel(),
            workers=workers, shard_size=shard_size,
        )
        batched_s = time.perf_counter() - start
        speedup = scalar_s / batched_s
        speedup_at_max = speedup  # sweep ends at the widest worker count
        experiment.add_row(
            "crypto", sites, "batched", workers, batched.crypto.modexps,
            round(batched_s, 3), round(speedup, 1),
            batched.total == expected,
        )
        record_wall_clock(
            experiment, f"crypto_batched_w{workers}", batched_s
        )
    experiment.meta["crypto"] = {
        "key_bits": bits,
        "sites": sites,
        "shard_size": shard_size,
        "scalar_modexps": scalar.crypto.modexps,
        "speedup_at_max_workers": round(speedup_at_max, 2),
    }
    return speedup_at_max


def scale_rows(experiment: Experiment) -> None:
    """[TNP14] secure aggregation up to 1M PDSs: parallel == serial, exact."""
    if smoke_mode():
        populations = [300]
    else:
        populations = [10_000, 100_000, 1_000_000]
    shard_size = scaled(4096, 64)
    for population in populations:
        nodes = make_slim_nodes(population)
        truth = plaintext_answer([n.records for n in nodes], QUERY)
        workers_list = worker_sweep()
        if population >= 1_000_000:
            workers_list = [workers_list[0], workers_list[-1]]
        serial_result = None
        for workers in workers_list:
            protocol = SecureAggregationProtocol(
                TokenFleet(0),
                rng=random.Random(1),
                workers=workers,
                shard_size=shard_size,
            )
            start = time.perf_counter()
            report = protocol.run(nodes, QUERY)
            wall_s = time.perf_counter() - start
            if serial_result is None:
                serial_result = report.result
                serial_s = wall_s
            # The acceptance property: exact equality, not approximation.
            exact = report.result == serial_result == truth
            experiment.add_row(
                "scale", population, "secure-agg", workers,
                report.token_decryptions, round(wall_s, 3),
                round(serial_s / wall_s, 2), exact,
            )
            record_wall_clock(
                experiment, f"scale_{population}_w{workers}", wall_s
            )
        del nodes


def build_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="e23",
        title="Global-query scaling: batched Paillier + sharded collection",
        claim="batched blinding pools cut crypto-bound collection >=5x vs "
        "the scalar path; the sharded executor completes 1M PDSs with "
        "results exactly equal at every worker count",
        columns=[
            "phase", "size", "variant", "workers", "cost_ops", "wall_s",
            "speedup", "exact",
        ],
    )
    experiment.meta["smoke_mode"] = smoke_mode()
    speedup = crypto_rows(experiment)
    scale_rows(experiment)
    experiment.meta["required_speedup"] = REQUIRED_SPEEDUP
    experiment.meta["speedup_ok"] = bool(
        smoke_mode() or speedup >= REQUIRED_SPEEDUP
    )
    return experiment


def test_e23_scale(benchmark):
    experiment = run_and_print(build_experiment)
    assert all(experiment.column("exact"))
    crypto = [row for row in experiment.rows if row[0] == "crypto"]
    assert crypto[0][2] == "scalar"
    if not smoke_mode():
        # Batching collapses the exponentiation count >=10x at every width
        # (pool amortisation needs realistic shard sizes, so full mode only).
        assert all(row[4] * 10 <= crypto[0][4] for row in crypto[1:])
        # Acceptance: >=5x wall-clock at the widest worker sweep.
        assert crypto[-1][6] >= REQUIRED_SPEEDUP
        populations = {row[1] for row in experiment.rows if row[0] == "scale"}
        assert max(populations) == 1_000_000

    public, private = generate_keypair(256, random.Random(7))
    values = list(range(64))
    result = benchmark(
        lambda: paillier_secure_sum(
            values, public, private, Channel(), workers=1, shard_size=32
        )
    )
    assert result.total == sum(values)


if __name__ == "__main__":
    run_and_print(build_experiment)
