"""Sharded parallel collection: determinism, equality, and wiring.

The contract under test is the E23 acceptance property: for every protocol
family (and the Paillier secure sum), running the collection phase with any
worker count produces *exactly* the same results — same ciphertext bytes,
same accounting, same final aggregates — because shard geometry and seeds
never depend on scheduling.
"""

import os
import random
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.crypto.paillier import generate_keypair
from repro.globalq import parallel
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import NoiseProtocol
from repro.globalq.parallel import (
    ShardedCollector,
    WorkerPool,
    collect_encrypted_sum,
    shard_seed,
    shard_slices,
)
from repro.globalq.queries import (
    WHITE_NOISE,
    AggregateQuery,
    NoisePlan,
    plaintext_answer,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.net.metrics import Channel
from repro.smc.secure_sum import paillier_secure_sum
from repro.workloads.people import PersonRecord

CITIES = ["paris", "lyon", "lille", "nantes"]


def make_nodes(count: int) -> list[PdsNode]:
    return [
        PdsNode(
            i,
            [
                PersonRecord(
                    {"city": CITIES[i % len(CITIES)], "salary": float(i % 97)}
                )
            ],
        )
        for i in range(count)
    ]


NODES = make_nodes(120)
QUERY = AggregateQuery.sum("salary", group_by="city")
TRUTH = plaintext_answer([n.records for n in NODES], QUERY)


class TestShardPlan:
    def test_slices_cover_population_exactly(self):
        slices = shard_slices(10, 3)
        assert slices == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert shard_slices(0, 4) == []
        with pytest.raises(ValueError):
            shard_slices(5, 0)

    def test_shard_seeds_stable_and_distinct(self):
        seeds = [shard_seed(7, i) for i in range(50)]
        assert seeds == [shard_seed(7, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert shard_seed(8, 0) != shard_seed(7, 0)


class TestShardedCollector:
    def test_worker_count_cannot_change_ciphertexts(self):
        fleet = TokenFleet(3)
        outputs = []
        for workers in (1, 2, 3):
            collected = ShardedCollector(
                workers=workers, shard_size=16, base_seed=5
            ).collect(NODES, QUERY, TokenFleet(3), with_group_tag=True)
            outputs.append(
                (collected.pds_ids, collected.tuple_counts, collected.blobs)
            )
        assert outputs[0] == outputs[1] == outputs[2]
        del fleet

    def test_shard_size_does_change_ciphertexts(self):
        # Nonce seeds derive from the shard stream, so geometry is part of
        # the determinism contract — pin that it matters.
        one = ShardedCollector(workers=1, shard_size=16).collect(
            NODES, QUERY, TokenFleet(3)
        )
        other = ShardedCollector(workers=1, shard_size=32).collect(
            NODES, QUERY, TokenFleet(3)
        )
        assert one.pds_ids == other.pds_ids
        assert one.blobs != other.blobs

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ShardedCollector(workers=0)


class TestWorkerPool:
    """Persistent pool reuse: same results, one executor, explicit close."""

    def test_pool_reuse_matches_per_call_results(self):
        with WorkerPool(workers=2) as pool:
            pooled_one = ShardedCollector(
                shard_size=16, base_seed=5, pool=pool
            ).collect(NODES, QUERY, TokenFleet(3))
            pooled_two = ShardedCollector(
                shard_size=16, base_seed=5, pool=pool
            ).collect(NODES, QUERY, TokenFleet(3))
        percall = ShardedCollector(
            workers=2, shard_size=16, base_seed=5
        ).collect(NODES, QUERY, TokenFleet(3))

        def blobs(collected):
            return collected.pds_ids, collected.tuple_counts, collected.blobs

        assert blobs(pooled_one) == blobs(pooled_two) == blobs(percall)

    def test_executor_is_lazy_and_reused(self):
        pool = WorkerPool(workers=2)
        assert pool._executor is None  # nothing spawned until first use
        first = pool.executor
        assert pool.executor is first
        pool.close()

    def test_concurrent_first_submits_construct_one_executor(self, monkeypatch):
        """Regression: ``executor`` was check-then-set, so two first queries
        of a service could each build a ``ProcessPoolExecutor`` and leak
        one. The double counts constructions; nothing is timed."""
        constructed = []

        class SlowExecutor:
            def __init__(self, max_workers):
                constructed.append(self)
                time.sleep(0.02)  # hold the window open for the others

            def submit(self, fn, *args):
                return self

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", SlowExecutor)
        pool = WorkerPool(workers=2)
        start = threading.Barrier(16)
        submitted = []

        def first_query():
            start.wait(timeout=10)
            submitted.append(pool.submit(len, ()))

        threads = [threading.Thread(target=first_query) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        pool.close()
        assert len(constructed) == 1
        assert submitted == constructed * 16

    def test_dead_worker_fails_one_query_then_pool_respawns(self):
        """Regression: a killed pool child left every later query raising
        ``BrokenProcessPool`` for the life of the pool."""

        def run(pool=None):
            return SecureAggregationProtocol(
                TokenFleet(0), rng=random.Random(1), shard_size=16, pool=pool
            ).run(NODES, QUERY)

        with WorkerPool(workers=2) as pool:
            assert run(pool) == run()
            victim = pool.submit(os.getpid).result(timeout=30)
            os.kill(victim, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                run(pool)
            assert run(pool) == run()
            assert pool.submit(os.getpid).result(timeout=30) != victim

    def test_close_is_idempotent_and_final(self):
        pool = WorkerPool(workers=1)
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.submit(len, ())

    def test_closed_pool_rejected_by_collector(self):
        pool = WorkerPool(workers=2)
        pool.close()
        with pytest.raises(RuntimeError):
            ShardedCollector(shard_size=16, pool=pool).collect(
                NODES[:8], QUERY, TokenFleet(3)
            )

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_protocols_share_a_pool(self):
        with WorkerPool(workers=2) as pool:
            pooled = SecureAggregationProtocol(
                TokenFleet(0), rng=random.Random(1), shard_size=32, pool=pool
            ).run(NODES, QUERY)
        percall = SecureAggregationProtocol(
            TokenFleet(0), rng=random.Random(1), workers=2, shard_size=32
        ).run(NODES, QUERY)
        assert pooled.result == percall.result == TRUTH

    def test_paillier_sum_accepts_pool(self):
        pub, priv = generate_keypair(bits=256, rng=random.Random(321))
        values = [3 * v for v in range(48)]
        with WorkerPool(workers=2) as pool:
            pooled = paillier_secure_sum(
                values, pub, priv, Channel(), shard_size=16, pool=pool
            )
        percall = paillier_secure_sum(
            values, pub, priv, Channel(), workers=2, shard_size=16
        )
        assert pooled.total == percall.total == sum(values)


@pytest.mark.parametrize("workers", [1, 2])
class TestFamilyEquality:
    """Full protocol runs: sharded path == truth, any worker count."""

    def test_secure_aggregation(self, workers):
        report = SecureAggregationProtocol(
            TokenFleet(0),
            rng=random.Random(1),
            workers=workers,
            shard_size=32,
        ).run(NODES, QUERY)
        assert report.result == TRUTH
        assert report.tuples_sent == len(NODES)

    def test_noise(self, workers):
        plan = NoisePlan(WHITE_NOISE, 0.4, tuple(CITIES))
        report = NoiseProtocol(
            TokenFleet(0),
            plan,
            rng=random.Random(1),
            workers=workers,
            shard_size=32,
        ).run(NODES, QUERY)
        assert report.result == TRUTH
        assert report.fake_tuples_sent > 0

    def test_histogram(self, workers):
        bucketizer = EquiDepthBucketizer({c: 1.0 for c in CITIES}, 2)
        report = HistogramProtocol(
            TokenFleet(0),
            bucketizer,
            rng=random.Random(1),
            workers=workers,
            shard_size=32,
        ).run(NODES, QUERY)
        assert report.result == TRUTH


class TestFullReportEquality:
    def test_serial_and_pooled_reports_identical(self):
        def run(workers):
            return SecureAggregationProtocol(
                TokenFleet(0),
                rng=random.Random(9),
                workers=workers,
                shard_size=16,
            ).run(NODES, QUERY)

        serial, pooled = run(1), run(2)
        assert serial.result == pooled.result
        assert serial.tuples_sent == pooled.tuples_sent
        assert serial.comm_bytes == pooled.comm_bytes
        assert serial.comm_messages == pooled.comm_messages
        assert serial.token_decryptions == pooled.token_decryptions

    def test_noise_accounting_identical(self):
        plan = NoisePlan(WHITE_NOISE, 0.5, tuple(CITIES))

        def run(workers):
            return NoiseProtocol(
                TokenFleet(0),
                plan,
                rng=random.Random(2),
                workers=workers,
                shard_size=16,
            ).run(NODES, QUERY)

        serial, pooled = run(1), run(2)
        assert serial.fake_tuples_sent == pooled.fake_tuples_sent
        assert serial.comm_bytes == pooled.comm_bytes
        assert serial.ssi_tag_histogram == pooled.ssi_tag_histogram


class TestEncryptedSumShards:
    PUB, PRIV = generate_keypair(bits=256, rng=random.Random(321))

    def test_partials_merge_to_exact_sum(self):
        values = [v * 3 for v in range(90)]
        for workers in (1, 2):
            shards = collect_encrypted_sum(
                values, self.PUB, workers=workers, shard_size=32
            )
            assert [s.shard_index for s in shards] == [0, 1, 2]
            combined = 1
            for shard in shards:
                combined = self.PUB.add(combined, shard.partial)
            assert self.PRIV.decrypt(combined) == sum(values)

    def test_shard_partials_deterministic(self):
        values = list(range(50))
        a = collect_encrypted_sum(values, self.PUB, workers=1, shard_size=20)
        b = collect_encrypted_sum(values, self.PUB, workers=2, shard_size=20)
        assert [s.partial for s in a] == [s.partial for s in b]

    def test_secure_sum_wiring(self):
        values = [7 * v for v in range(64)]
        channel = Channel()
        scalar = paillier_secure_sum(
            values, self.PUB, self.PRIV, channel, random.Random(1)
        )
        batched = paillier_secure_sum(
            values, self.PUB, self.PRIV, Channel(), workers=1, shard_size=16
        )
        pooled = paillier_secure_sum(
            values, self.PUB, self.PRIV, Channel(), workers=2, shard_size=16
        )
        assert scalar.total == batched.total == pooled.total == sum(values)
        # Batching collapses the full-exponentiation count: 4 shards pay a
        # 33-exponentiation pool each instead of one per site.
        assert scalar.crypto.modexps == len(values) + 1
        assert batched.crypto.modexps == pooled.crypto.modexps == 4 * 33 + 1

    def test_scalar_path_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            paillier_secure_sum([1, 2], self.PUB, self.PRIV, Channel())
