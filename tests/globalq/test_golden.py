"""Frozen oracle for the collection stream and the served query path.

``golden/*.json`` were recorded once, at commit ab91b97 (before the
protocol families were folded onto one driver), by calling
:func:`collection_digests` and :func:`served_reports` below. They pin
*bytes*, not just aggregates: any refactor of the collection path, the
shard-seed geometry or the driver's channel accounting that changes a
single ciphertext, fake draw or accounted byte fails here — at
``workers=1`` and over a 2-process pool alike.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.globalq.histogram import EquiDepthBucketizer
from repro.globalq.parallel import ShardedCollector, WorkerPool
from repro.globalq.queries import WHITE_NOISE, NoisePlan
from repro.globalq.tokens import TokenFleet
from repro.service import run_query, slim_population, standard_mix
from repro.workloads.people import CITIES as DOMAIN
from tests.globalq.test_parallel import CITIES, NODES, QUERY

GOLDEN = Path(__file__).parent / "golden"
SERVED_SEED = 20140324
SERVED_SHARD_SIZE = 32

COLLECTION_MODES = {
    "blob": {},
    "tag+noise": {
        "with_group_tag": True,
        "noise": NoisePlan(WHITE_NOISE, 0.4, tuple(CITIES)),
    },
    "bucket": {"bucketizer": EquiDepthBucketizer({c: 1.0 for c in CITIES}, 2)},
}


def collection_digests(pool: WorkerPool | None = None) -> dict[str, str]:
    """SHA-256 of the whole blob/tag/bucket stream, per collection mode."""
    digests = {}
    for mode, options in COLLECTION_MODES.items():
        collected = ShardedCollector(
            workers=1, shard_size=16, base_seed=5, pool=pool
        ).collect(NODES, QUERY, TokenFleet(3), **options)
        stream = hashlib.sha256()
        for pds_id, contributions, fake_count in collected.per_pds():
            stream.update(f"{pds_id}:{fake_count}:".encode())
            for contribution in contributions:
                stream.update(contribution.blob)
                stream.update(contribution.group_tag or b"-")
                stream.update(str(contribution.bucket_id).encode())
        digests[mode] = stream.hexdigest()
    return digests


def served_reports(pool: WorkerPool | None = None) -> dict[str, dict]:
    """The four ``standard_mix()`` classes through ``run_query``."""
    population = slim_population(150)
    nodes = population.snapshot().nodes
    reports = {}
    for descriptor in standard_mix().descriptors():
        report = run_query(
            descriptor, nodes, population.fleet, SERVED_SEED, tuple(DOMAIN),
            1, SERVED_SHARD_SIZE, pool,
        )
        reports[descriptor.query_class] = {
            "result": report.result,
            "tuples_sent": report.tuples_sent,
            "fake_tuples_sent": report.fake_tuples_sent,
            "comm_bytes": report.comm_bytes,
        }
    return reports


@pytest.fixture(scope="module", params=["inline", "pool-2"])
def pool(request):
    if request.param == "inline":
        yield None
        return
    with WorkerPool(2) as worker_pool:
        yield worker_pool


def test_collection_stream_matches_golden(pool):
    expected = json.loads((GOLDEN / "collection_sha256.json").read_text())
    assert collection_digests(pool) == expected


def test_served_reports_match_golden(pool):
    expected = json.loads((GOLDEN / "served_reports.json").read_text())
    assert served_reports(pool) == expected
