"""E18 — Outsourced encrypted databases ([HILM02]/[HIM04] bucketization).

Part III cites Hacigümüş's bucketization as the foundation of the
histogram protocol family. Claims under test: range queries over the
encrypted outsourced table are exact after client post-filtering; the
false-positive transfer shrinks as buckets multiply while the provider's
bucket histogram sharpens — the trade-off curve the tutorial imports.
"""

from __future__ import annotations

import random

from repro.bench.harness import Experiment, run_and_print
from repro.globalq.attacks import histogram_flatness
from repro.outsourced.hacigumus import OutsourcedDatabase, RangeBucketMap

KEY = b"0123456789abcdef"


def make_db(num_buckets: int, seed: int) -> OutsourcedDatabase:
    rng = random.Random(seed)
    return OutsourcedDatabase(
        KEY, {"age": RangeBucketMap(0, 100, num_buckets, rng)}, rng=rng
    )


def load(db: OutsourcedDatabase, count: int, seed: int):
    rng = random.Random(seed)
    rows = [
        {"id": i, "age": min(100, int(rng.gauss(40, 18)) % 101)}
        for i in range(count)
    ]
    for row in rows:
        db.insert(row)
    return rows


def build_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E18",
        title="Bucketization: precision vs leak as buckets grow",
        claim="exact answers always; false-positive transfer falls with "
        "bucket count; the provider's histogram gets sharper (lower "
        "flatness on skewed data)",
        columns=[
            "buckets", "exact", "rows_transferred", "rows_matching",
            "fp_ratio", "histogram_flatness",
        ],
    )
    for buckets in (2, 4, 16, 50):
        db = make_db(buckets, seed=buckets)
        rows = load(db, 1500, seed=7)
        expected = sorted(
            row["id"] for row in rows if 35 <= row["age"] <= 45
        )
        answer, cost = db.range_query("age", 35, 45)
        exact = sorted(row["id"] for row in answer) == expected
        flatness = histogram_flatness(
            dict(db.server.observations.bucket_histogram)
        )
        experiment.add_row(
            buckets, exact, cost.rows_transferred, cost.rows_matching,
            round(cost.false_positive_ratio, 3), round(flatness, 3),
        )
    return experiment


def test_e18_bucketization_tradeoff(benchmark):
    experiment = run_and_print(build_experiment)
    assert all(experiment.column("exact"))
    fp = experiment.column("fp_ratio")
    assert fp[0] > fp[-1]  # more buckets, fewer false positives
    assert fp[-1] < 0.5
    matching = experiment.column("rows_matching")
    assert len(set(matching)) == 1  # answers identical at every granularity
    # The leak direction: fine buckets expose the gaussian's shape, so the
    # observed histogram is less flat than with coarse buckets.
    flatness = experiment.column("histogram_flatness")
    assert flatness[-1] < flatness[0]

    db = make_db(16, seed=3)
    load(db, 400, seed=3)
    benchmark(db.range_query, "age", 30, 50)
