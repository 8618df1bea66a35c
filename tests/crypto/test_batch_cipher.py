"""The batch cipher against the per-message one, its reference.

:meth:`NondeterministicCipher.seal_batch` and
:meth:`NondeterministicCipher.open_batch` carry every collection tuple and
every aggregated blob, so they must produce exactly the bytes (and the
failures) of per-message ``encrypt`` / ``decrypt``. The per-message path is
itself pinned by the known-answer vectors in
``test_symmetric_sharing.py``; these tests tie the batch path to it,
including the known answers themselves.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.symmetric import NondeterministicCipher
from repro.errors import IntegrityError
from tests.crypto.test_symmetric_sharing import (
    KAT,
    KAT_KEYS,
    KAT_LENGTHS,
    KAT_SEED,
    kat_plaintext,
)

KEY = b"0123456789abcdef-batch"
SEEDS = st.integers(0, 2**64 - 1)
#: 0-96 bytes crosses the 32-byte single-block keystream boundary twice.
PLAINTEXTS = st.binary(max_size=96)
#: ``(seed, plaintexts)`` per nonce stream — one stream per PDS.
STREAMS = st.lists(st.tuples(SEEDS, st.lists(PLAINTEXTS, max_size=4)), max_size=6)


def per_message(cipher, streams):
    """``encrypt`` under ``with_nonces(Random(seed))``, stream by stream."""
    sealed = []
    for seed, plaintexts in streams:
        bound = cipher.with_nonces(random.Random(seed))
        sealed.extend(bound.encrypt(plaintext) for plaintext in plaintexts)
    return sealed


def batch(cipher, streams):
    return cipher.seal_batch(
        [plaintext for _, plaintexts in streams for plaintext in plaintexts],
        [seed for seed, _ in streams],
        [len(plaintexts) for _, plaintexts in streams],
    )


class TestSealBatch:
    @given(STREAMS)
    @settings(max_examples=200, deadline=None)
    def test_equals_per_message_encrypt(self, streams):
        # Streams with no plaintext, repeated seeds, and messages on both
        # sides of the single-block keystream.
        cipher = NondeterministicCipher(KEY)
        assert batch(cipher, streams) == per_message(cipher, streams)

    @pytest.mark.parametrize("name", sorted(KAT_KEYS))
    def test_reproduces_the_known_answers(self, name):
        plaintexts = [kat_plaintext(length) for length in KAT_LENGTHS]
        sealed = NondeterministicCipher(KAT_KEYS[name]).seal_batch(
            plaintexts, [KAT_SEED], [len(plaintexts)]
        )
        assert sealed == [
            bytes.fromhex(KAT[name][str(length)]["nondeterministic"])
            for length in KAT_LENGTHS
        ]


class TestScratchGenerator:
    """One generator reseeded per stream is ``Random(seed)`` per stream."""

    @given(st.lists(SEEDS, min_size=1, max_size=8), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_reseeded_scratch_yields_fresh_stream(self, seeds, draws):
        scratch = random.Random()
        c_seed = super(random.Random, scratch).seed
        for seed in seeds:
            fresh = random.Random(seed)
            expected = [fresh.getrandbits(128) for _ in range(draws)]
            scratch.seed(seed)
            assert [scratch.getrandbits(128) for _ in range(draws)] == expected
            # The C seed seal_batch binds leaves the same state.
            scratch.getrandbits(64)  # used, then reseeded
            c_seed(seed)
            assert [scratch.getrandbits(128) for _ in range(draws)] == expected


def sealed_corpus():
    plaintexts = [bytes(range(size)) for size in (0, 1, 20, 32, 33, 64, 96)]
    cipher = NondeterministicCipher(KEY)
    blobs = cipher.seal_batch(plaintexts, [7], [len(plaintexts)])
    return cipher, plaintexts, blobs


class TestOpenBatch:
    @given(STREAMS)
    @settings(max_examples=200, deadline=None)
    def test_equals_per_message_decrypt(self, streams):
        cipher = NondeterministicCipher(KEY)
        blobs = per_message(cipher, streams)
        assert cipher.open_batch(blobs) == [cipher.decrypt(b) for b in blobs]

    def test_every_tampered_byte_and_truncation_fails_one_slot(self):
        cipher, plaintexts, blobs = sealed_corpus()
        for target, good in enumerate(blobs):
            forgeries = [good[:keep] for keep in range(len(good))]
            for position in range(len(good)):
                forged = bytearray(good)
                forged[position] ^= 0x01
                forgeries.append(bytes(forged))
            for forged in forgeries:
                with pytest.raises(IntegrityError):
                    cipher.decrypt(forged)
                opened = cipher.open_batch(
                    blobs[:target] + [forged] + blobs[target + 1 :]
                )
                expected = list(plaintexts)
                expected[target] = None
                assert opened == expected

    def test_wrong_key_fails_every_slot(self):
        _, plaintexts, blobs = sealed_corpus()
        other = NondeterministicCipher(KEY + b"other")
        assert other.open_batch(blobs) == [None] * len(plaintexts)
