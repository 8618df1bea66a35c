"""Batched / sharded / coalesced ingest folds bit-identically to serial.

The tentpole contract of the high-throughput ingest PR: because ciphertext
multiplication mod n² is commutative and associative, *any* legal
re-arrangement of a delta stream — interleaving streams across PDSs,
cutting the stream into batches, sharding each batch's fold, coalescing a
PDS's changes pane-wise before transmission — must produce the exact same
pane products (same integers mod n², not just the same plaintexts) as the
one-delta-at-a-time serial fold. The hypothesis tests below generate random
delta streams and random re-arrangements and assert that bit-identity,
plus replay rejection surviving the batch path.
"""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.paillier import generate_keypair
from repro.errors import ProtocolError
from repro.globalq.continuous import (
    DeltaBatcher,
    FoldEngine,
    StandingAggregate,
    WindowSpec,
)
from repro.net.codec import decode_delta_batch, encode_delta_batch
from repro.net.messages import EncryptedDelta

PUBLIC, PRIVATE = generate_keypair(bits=128, rng=random.Random(17))
SPEC = WindowSpec(width=4, slide=2)


def make_stream(seed: int, pds_count: int, deltas_per_pds: int):
    """A synthetic delta stream: monotone timestamps per PDS, fresh seqs.

    Ciphertexts come from one seeded blinding pool, so the same ``seed``
    always produces the same stream — the bit-identity assertions compare
    real 256-bit integers, not structure.
    """
    rng = random.Random(seed)
    pool = PUBLIC.blinding_pool(seed=seed)
    deltas = []
    for pds in range(pds_count):
        timestamp = 0
        for seq in range(1, deltas_per_pds + 1):
            timestamp = min(
                SPEC.width - 1, timestamp + rng.randrange(0, 3)
            )
            deltas.append(
                EncryptedDelta(
                    pds_id=pds,
                    seq=seq,
                    timestamp=timestamp,
                    value_cipher=PUBLIC.encrypt(
                        rng.randrange(-50, 50), pool=pool
                    ),
                    count_cipher=PUBLIC.encrypt(
                        rng.choice([-1, 0, 1]), pool=pool
                    ),
                )
            )
    return deltas


def interleave(deltas, seed: int):
    """A random interleaving that preserves each PDS's stream order —
    the set of arrival orders a per-stream-FIFO wire can produce."""
    queues: dict[int, deque] = {}
    for delta in deltas:
        queues.setdefault(delta.pds_id, deque()).append(delta)
    rng = random.Random(seed)
    keys = list(queues)
    out = []
    while keys:
        key = rng.choice(keys)
        out.append(queues[key].popleft())
        if not queues[key]:
            keys.remove(key)
    return out


def serial_fold(deltas) -> StandingAggregate:
    state = StandingAggregate(PUBLIC.n, SPEC)
    for delta in deltas:
        state.fold(delta)
    return state


class TestFoldPermutationInvariance:
    @given(
        stream_seed=st.integers(0, 50),
        shuffle_seed=st.integers(0, 50),
        batch_size=st.integers(1, 17),
        shard_size=st.integers(1, 9),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_batching_and_sharding_is_bit_identical(
        self, stream_seed, shuffle_seed, batch_size, shard_size
    ):
        deltas = make_stream(stream_seed, pds_count=12, deltas_per_pds=3)
        reference = serial_fold(deltas)

        arrived = interleave(deltas, shuffle_seed)
        state = StandingAggregate(PUBLIC.n, SPEC)
        engine = FoldEngine(PUBLIC.n_squared, shard_size=shard_size)
        accepted = 0
        for start in range(0, len(arrived), batch_size):
            accepted += state.fold_many(
                arrived[start : start + batch_size], engine=engine
            )
        # Same integers mod n², not merely the same plaintexts.
        assert state.current() == reference.current()
        assert accepted == len(deltas)
        assert state.duplicates == 0

    @given(
        stream_seed=st.integers(0, 50),
        shuffle_seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_coalesced_stream_decrypts_identically(
        self, stream_seed, shuffle_seed
    ):
        """PDS-side coalescing changes the ciphertexts (it multiplies
        them) but never the decrypted fold — additivity is the contract."""
        deltas = make_stream(stream_seed, pds_count=10, deltas_per_pds=4)
        reference = serial_fold(deltas)

        batcher = DeltaBatcher(PUBLIC.n, SPEC)
        for delta in interleave(deltas, shuffle_seed):
            assert batcher.add(1, delta) is True
        coalesced = [delta for _, delta in batcher.flush()]
        assert len(coalesced) == batcher.added - batcher.coalesced

        state = StandingAggregate(PUBLIC.n, SPEC)
        state.fold_many(coalesced)
        for got, want in zip(state.current(), reference.current()):
            assert PRIVATE.decrypt_signed(got) == PRIVATE.decrypt_signed(
                want
            )
        assert state.duplicates == 0

    @given(
        stream_seed=st.integers(0, 30),
        replay_seed=st.integers(0, 30),
    )
    @settings(max_examples=20, deadline=None)
    def test_replays_are_rejected_through_the_batch_path(
        self, stream_seed, replay_seed
    ):
        deltas = make_stream(stream_seed, pds_count=8, deltas_per_pds=3)
        reference = serial_fold(deltas)

        rng = random.Random(replay_seed)
        replayed = list(deltas)
        for _ in range(5):
            replayed.append(rng.choice(deltas))  # duplicate seqs

        state = StandingAggregate(PUBLIC.n, SPEC)
        accepted = state.fold_many(replayed, engine=FoldEngine(
            PUBLIC.n_squared, shard_size=4
        ))
        assert accepted == len(deltas)
        assert state.duplicates == 5
        assert state.current() == reference.current()

    def test_worker_count_cannot_change_shard_geometry(self):
        """The shard key depends on group size and shard_size only."""
        deltas = make_stream(3, pds_count=20, deltas_per_pds=2)
        engine_a = FoldEngine(PUBLIC.n_squared, shard_size=4)
        engine_b = FoldEngine(PUBLIC.n_squared, shard_size=4)
        buckets_a = engine_a.partition(deltas)
        buckets_b = engine_b.partition(deltas)
        assert [[d.pds_id for d in b] for b in buckets_a] == [
            [d.pds_id for d in b] for b in buckets_b
        ]
        assert len(buckets_a) == -(-len(deltas) // 4)
        assert engine_a.product(deltas) == engine_b.product(deltas)


class TestDeltaBatcher:
    def test_duplicates_dropped_before_coalescing(self):
        deltas = make_stream(5, pds_count=3, deltas_per_pds=2)
        batcher = DeltaBatcher(PUBLIC.n, SPEC)
        for delta in deltas:
            assert batcher.add(7, delta) is True
        # Replaying any delta is refused — folding it into a pending
        # product would double-count before the SSI ever saw the batch.
        assert batcher.add(7, deltas[0]) is False
        assert batcher.duplicates == 1

    def test_coalescing_never_crosses_panes(self):
        pool = PUBLIC.blinding_pool(seed=11)
        one = EncryptedDelta(1, 1, 0, PUBLIC.encrypt(5, pool=pool),
                             PUBLIC.encrypt(1, pool=pool))
        two = EncryptedDelta(1, 2, SPEC.pane_width,
                             PUBLIC.encrypt(3, pool=pool),
                             PUBLIC.encrypt(1, pool=pool))
        batcher = DeltaBatcher(PUBLIC.n, SPEC)
        batcher.add(1, one)
        batcher.add(1, two)
        assert batcher.coalesced == 0
        assert [d.timestamp for _, d in batcher.flush()] == [
            0, SPEC.pane_width
        ]

    def test_flush_round_trips_the_batch_codec(self):
        deltas = make_stream(9, pds_count=6, deltas_per_pds=3)
        batcher = DeltaBatcher(PUBLIC.n, SPEC)
        for delta in deltas:
            batcher.add(2, delta)
        entries = batcher.flush()
        assert decode_delta_batch(encode_delta_batch(entries)) == entries
        assert batcher.pending == 0
        assert batcher.flushed_deltas == len(entries)


class TestFoldManyAtomicity:
    def test_late_batch_raises_before_any_state_change(self):
        deltas = make_stream(4, pds_count=4, deltas_per_pds=2)
        state = StandingAggregate(PUBLIC.n, SPEC)
        state.advance(SPEC.width)  # seal everything
        before = (state.current(), dict(state._last_seq))
        try:
            state.fold_many(deltas)
        except ProtocolError:
            pass
        else:  # pragma: no cover
            raise AssertionError("late batch must raise")
        assert (state.current(), dict(state._last_seq)) == before
