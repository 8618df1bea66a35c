"""Tests for symmetric ciphers and additive secret sharing."""

import hashlib
import hmac
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sharing import reconstruct, reconstruct_signed, split
from repro.crypto.symmetric import (
    DeterministicCipher,
    KeyedPrf,
    NondeterministicCipher,
)
from repro.errors import IntegrityError

KEY = b"0123456789abcdef"

#: Ciphertexts recorded at c5fb66a, when both ciphers still called
#: ``hmac.new`` per message: ``DeterministicCipher(key)`` and
#: ``NondeterministicCipher(key, rng=random.Random(KAT_SEED))`` encrypting
#: ``kat_plaintext(n)`` for n = 0, 18, 32, 33, 100 in that order (33 and 100
#: take the multi-block keystream branch).
KAT = json.loads(
    (Path(__file__).parent / "golden" / "symmetric_kat.json").read_text()
)
KAT_KEYS = {"fleet-length": bytes(range(7, 46)), "over-block": bytes(range(100))}
KAT_SEED = 2014
KAT_LENGTHS = (0, 18, 32, 33, 100)


def kat_plaintext(length: int) -> bytes:
    return bytes((i * 7 + 3) % 256 for i in range(length))


class TestKeyedPrf:
    """The precomputed-state PRF against stdlib ``hmac``, its reference."""

    @given(st.binary(min_size=16, max_size=200), st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_equals_stdlib_hmac(self, key, message):
        assert KeyedPrf(key).digest(message) == hmac.new(
            key, message, hashlib.sha256
        ).digest()

    @pytest.mark.parametrize("key_bytes", [16, 63, 64, 65, 200])
    def test_block_size_boundary(self, key_bytes):
        key = bytes(range(key_bytes))
        for message in (b"", b"m", b"m" * 64, b"m" * 200):
            assert KeyedPrf(key).digest(message) == hmac.new(
                key, message, hashlib.sha256
            ).digest()

    def test_state_survives_reuse(self):
        # Digests never update the keyed states: any order, same answers.
        prf = KeyedPrf(KEY)
        first = [prf.digest(m) for m in (b"a", b"b" * 70, b"a")]
        assert first[0] == first[2] == hmac.new(KEY, b"a", hashlib.sha256).digest()
        assert prf.digest(b"b" * 70) == first[1]

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 64, 65, 100])
    def test_keystream_is_counter_mode(self, length):
        nonce = bytes(range(16))
        blocks = b"".join(
            hmac.new(KEY, nonce + i.to_bytes(4, "little"), hashlib.sha256).digest()
            for i in range((length + 31) // 32)
        )
        assert KeyedPrf(KEY).keystream(nonce, length) == blocks[:length]


class TestKnownAnswers:
    """Both ciphers still emit the bytes the per-message-hmac code did."""

    @pytest.mark.parametrize("name", sorted(KAT_KEYS))
    def test_deterministic(self, name):
        cipher = DeterministicCipher(KAT_KEYS[name])
        for length in KAT_LENGTHS:
            expected = bytes.fromhex(KAT[name][str(length)]["deterministic"])
            assert cipher.encrypt(kat_plaintext(length)) == expected
            assert cipher.decrypt(expected) == kat_plaintext(length)

    @pytest.mark.parametrize("name", sorted(KAT_KEYS))
    def test_nondeterministic(self, name):
        cipher = NondeterministicCipher(
            KAT_KEYS[name], rng=random.Random(KAT_SEED)
        )
        for length in KAT_LENGTHS:
            expected = bytes.fromhex(KAT[name][str(length)]["nondeterministic"])
            assert cipher.encrypt(kat_plaintext(length)) == expected
            assert cipher.decrypt(expected) == kat_plaintext(length)

    @pytest.mark.parametrize("name", sorted(KAT_KEYS))
    def test_with_nonces_shares_the_key_not_the_stream(self, name):
        # The fleet's use: one keyed cipher, a nonce source bound per PDS.
        keyed = NondeterministicCipher(KAT_KEYS[name])
        bound = keyed.with_nonces(random.Random(KAT_SEED))
        for length in KAT_LENGTHS:
            expected = bytes.fromhex(KAT[name][str(length)]["nondeterministic"])
            assert bound.encrypt(kat_plaintext(length)) == expected
            assert keyed.decrypt(expected) == kat_plaintext(length)

    @pytest.mark.parametrize("kind", ["deterministic", "nondeterministic"])
    @pytest.mark.parametrize("length", KAT_LENGTHS)
    def test_every_tampered_byte_and_truncation_rejected(self, kind, length):
        key = KAT_KEYS["fleet-length"]
        cipher = (
            DeterministicCipher(key)
            if kind == "deterministic"
            else NondeterministicCipher(key, rng=random.Random(0))
        )
        good = bytes.fromhex(KAT["fleet-length"][str(length)][kind])
        for position in range(len(good)):
            forged = bytearray(good)
            forged[position] ^= 0x01
            with pytest.raises(IntegrityError):
                cipher.decrypt(bytes(forged))
        for keep in range(len(good)):
            with pytest.raises(IntegrityError):
                cipher.decrypt(good[:keep])


class TestDeterministicCipher:
    def test_roundtrip(self):
        cipher = DeterministicCipher(KEY)
        for plaintext in (b"", b"x", b"tuple|HOUSEHOLD|42", b"\x00" * 100):
            assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    def test_equal_plaintexts_equal_ciphertexts(self):
        cipher = DeterministicCipher(KEY)
        assert cipher.encrypt(b"HOUSEHOLD") == cipher.encrypt(b"HOUSEHOLD")

    def test_different_plaintexts_differ(self):
        cipher = DeterministicCipher(KEY)
        assert cipher.encrypt(b"A") != cipher.encrypt(b"B")

    def test_tampering_detected(self):
        cipher = DeterministicCipher(KEY)
        ciphertext = bytearray(cipher.encrypt(b"secret"))
        ciphertext[-1] ^= 1
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(ciphertext))

    def test_truncated_rejected(self):
        with pytest.raises(IntegrityError):
            DeterministicCipher(KEY).decrypt(b"short")

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            DeterministicCipher(b"tiny")

    @given(st.binary(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, plaintext):
        cipher = DeterministicCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext


class TestNondeterministicCipher:
    def test_roundtrip(self):
        cipher = NondeterministicCipher(KEY, rng=random.Random(1))
        for plaintext in (b"", b"x", b"tuple|HOUSEHOLD|42"):
            assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    def test_equal_plaintexts_unlinkable(self):
        cipher = NondeterministicCipher(KEY, rng=random.Random(2))
        assert cipher.encrypt(b"HOUSEHOLD") != cipher.encrypt(b"HOUSEHOLD")

    def test_tampering_detected(self):
        cipher = NondeterministicCipher(KEY, rng=random.Random(3))
        ciphertext = bytearray(cipher.encrypt(b"secret"))
        ciphertext[20] ^= 0xFF
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(ciphertext))

    def test_cross_key_decryption_fails(self):
        a = NondeterministicCipher(KEY, rng=random.Random(4))
        b = NondeterministicCipher(b"another-16-byte-key!", rng=random.Random(4))
        with pytest.raises(IntegrityError):
            b.decrypt(a.encrypt(b"msg"))

    @given(st.binary(max_size=200), st.integers())
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, plaintext, seed):
        cipher = NondeterministicCipher(KEY, rng=random.Random(seed))
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext


class TestSecretSharing:
    def test_split_reconstruct(self):
        rng = random.Random(1)
        shares = split(123456, 5, rng)
        assert len(shares) == 5
        assert reconstruct(shares) == 123456

    def test_single_share(self):
        assert reconstruct(split(42, 1, random.Random(0))) == 42

    def test_partial_shares_reveal_nothing_structural(self):
        """Any n-1 shares are uniform: reconstructing them misses the secret."""
        rng = random.Random(2)
        shares = split(999, 4, rng)
        assert reconstruct(shares[:-1]) != 999 or shares[-1] == 0

    def test_signed_reconstruction(self):
        rng = random.Random(3)
        shares = split(-77, 3, rng)
        assert reconstruct_signed(shares) == -77

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            split(1, 0, random.Random(0))
        with pytest.raises(ValueError):
            split(1, 2, random.Random(0), modulus=1)
        with pytest.raises(ValueError):
            reconstruct([])

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=1, max_value=20),
        st.integers(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip(self, value, num_shares, seed):
        shares = split(value, num_shares, random.Random(seed))
        assert reconstruct(shares) == value
