"""Key once, not per PDS: a timing-free guard on the served-query path.

A served query encrypts and decrypts about one tuple per PDS, so any key
schedule repeated per PDS or per message dominates it. These tests count
the schedules ``repro.crypto.symmetric`` starts — an ``hmac.new`` call or a
fresh ``hashlib.sha256`` state, whichever the implementation uses — while a
whole protocol run executes, and hold the count to the per-shard fleet
rebuilds, whatever the population size.
"""

import hashlib
import hmac
from types import SimpleNamespace

import pytest

from repro.crypto import symmetric
from repro.crypto.symmetric import DeterministicCipher
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import NoiseProtocol
from repro.globalq.parallel import ShardedCollector
from repro.globalq.queries import (
    WHITE_NOISE,
    NoisePlan,
    plaintext_answer,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.net.messages import unpack_payload
from repro.workloads.people import PersonRecord
from tests.globalq.test_parallel import CITIES, QUERY, make_nodes

FAMILIES = {
    "secure-agg": lambda fleet, **driver: SecureAggregationProtocol(
        fleet, None, **driver
    ),
    "noise": lambda fleet, **driver: NoiseProtocol(
        fleet, NoisePlan(WHITE_NOISE, 0.4, tuple(CITIES)), **driver
    ),
    "histogram": lambda fleet, **driver: HistogramProtocol(
        fleet, EquiDepthBucketizer({c: 1.0 for c in CITIES}, 2), **driver
    ),
}


@pytest.fixture
def key_schedules(monkeypatch):
    """Every key schedule the symmetric module starts, as a growing list."""
    started = []

    def counted(function):
        def wrapper(*args, **kwargs):
            started.append(function.__name__)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        symmetric, "hmac",
        SimpleNamespace(
            new=counted(hmac.new), compare_digest=hmac.compare_digest
        ),
    )
    monkeypatch.setattr(
        symmetric, "hashlib", SimpleNamespace(sha256=counted(hashlib.sha256))
    )
    return started


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_key_schedules_follow_shards_not_nodes(family, key_schedules):
    fleet = TokenFleet(3)
    per_fleet = len(key_schedules)  # what keying one fleet costs
    assert per_fleet > 0
    counts = {}
    for nodes, shard_size in ((64, 512), (256, 512), (256, 64)):
        population = make_nodes(nodes)
        del key_schedules[:]
        report = FAMILIES[family](
            fleet, shard_size=shard_size, collection_seed=11
        ).run(population, QUERY)
        counts[nodes, shard_size] = len(key_schedules)
        assert report.result == pytest.approx(
            plaintext_answer([n.records for n in population], QUERY)
        )
        assert report.token_decryptions == report.tuples_sent >= nodes
    # Collection workers rebuild the fleet from its seed once per shard;
    # nothing else — no PDS, tuple, tag or aggregator — keys anything.
    assert counts[64, 512] == counts[256, 512] == per_fleet
    assert counts[256, 64] == 4 * per_fleet


def test_group_tags_are_memoised_per_shard_and_exact(monkeypatch):
    # Repeated groups inside a node, across nodes and across shards, plus
    # fakes drawn from the public domain (one value no node holds).
    domain = tuple(CITIES) + ("brest",)
    nodes = [
        PdsNode(
            i,
            [
                PersonRecord({"city": CITIES[i % 3], "salary": 1.0}),
                PersonRecord({"city": CITIES[i % 3], "salary": 2.0}),
                PersonRecord({"city": CITIES[(i + 1) % 3], "salary": 3.0}),
            ],
        )
        for i in range(40)
    ]
    fleet = TokenFleet(9)
    computed = []
    encrypt = DeterministicCipher.encrypt

    def spy(self, plaintext):
        computed.append(plaintext)
        return encrypt(self, plaintext)

    monkeypatch.setattr(DeterministicCipher, "encrypt", spy)
    collected = ShardedCollector(shard_size=16, base_seed=2).collect(
        nodes, QUERY, fleet,
        with_group_tag=True, noise=NoisePlan(WHITE_NOISE, 0.5, domain),
    )
    monkeypatch.undo()

    opener = fleet.payload_cipher(seed=0)
    per_shard: dict[int, set] = {}
    tuples = 0
    for position, (_, contributions, _) in enumerate(collected.per_pds()):
        for contribution in contributions:
            group = unpack_payload(opener.decrypt(contribution.blob)).group
            assert contribution.group_tag == fleet.deterministic.encrypt(
                group.encode("utf-8")
            )
            per_shard.setdefault(position // 16, set()).add(group)
            tuples += 1
    assert set().union(*per_shard.values()) == set(domain)
    # One SIV per distinct group per shard, although every group repeats.
    assert len(computed) == sum(len(groups) for groups in per_shard.values())
    assert len(computed) < tuples / 5
