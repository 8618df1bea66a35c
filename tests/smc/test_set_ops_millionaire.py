"""Tests for the set primitives and Yao's millionaires' protocol."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.paillier import generate_keypair as paillier_keypair
from repro.crypto.rsa import generate_keypair as rsa_keypair
from repro.net.metrics import Channel
from repro.smc.millionaire import millionaires
from repro.smc.set_ops import (
    make_commutative_keys,
    secure_intersection_size,
    secure_scalar_product,
    secure_set_union,
)

PUB, PRIV = paillier_keypair(bits=256, rng=random.Random(5))
RSA_KEYS = rsa_keypair(bits=128, rng=random.Random(6))


class TestCommutativeCipher:
    def test_layers_commute(self):
        keys = make_commutative_keys(2, random.Random(1), prime_bits=48)
        element = 123456
        ab = keys[1].encrypt(keys[0].encrypt(element))
        ba = keys[0].encrypt(keys[1].encrypt(element))
        assert ab == ba


class TestSecureSetUnion:
    def test_union_of_overlapping_sets(self):
        sets = [{"flu", "cold"}, {"cold", "allergy"}, {"flu"}]
        keys = make_commutative_keys(3, random.Random(2), prime_bits=48)
        result = secure_set_union(sets, keys, Channel())
        assert result.items == {"flu", "cold", "allergy"}

    def test_disjoint_sets(self):
        sets = [{"a"}, {"b"}]
        keys = make_commutative_keys(2, random.Random(3), prime_bits=48)
        assert secure_set_union(sets, keys, Channel()).items == {"a", "b"}

    def test_crypto_cost_counts_layers(self):
        sets = [{"a", "b"}, {"c"}]
        keys = make_commutative_keys(2, random.Random(4), prime_bits=48)
        result = secure_set_union(sets, keys, Channel())
        # 3 items x 2 layers each.
        assert result.crypto.modexps == 6

    def test_key_count_mismatch(self):
        keys = make_commutative_keys(1, random.Random(5), prime_bits=48)
        with pytest.raises(ValueError):
            secure_set_union([{"a"}, {"b"}], keys, Channel())

    @given(
        st.lists(
            st.sets(st.sampled_from("abcdefgh"), max_size=5),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_property_equals_plain_union(self, sets):
        keys = make_commutative_keys(len(sets), random.Random(6), prime_bits=48)
        result = secure_set_union(sets, keys, Channel())
        assert result.items == set().union(*sets)


class TestIntersectionSize:
    def test_size_only(self):
        sets = [{"a", "b", "c"}, {"b", "c", "d"}, {"c", "b", "x"}]
        keys = make_commutative_keys(3, random.Random(7), prime_bits=48)
        size, _ = secure_intersection_size(sets, keys, Channel())
        assert size == 2

    def test_empty_intersection(self):
        keys = make_commutative_keys(2, random.Random(8), prime_bits=48)
        size, _ = secure_intersection_size([{"a"}, {"b"}], keys, Channel())
        assert size == 0


class TestScalarProduct:
    def test_basic(self):
        value, _ = secure_scalar_product(
            [1, 2, 3], [4, 5, 6], PUB, PRIV, Channel(), random.Random(1)
        )
        assert value == 32

    def test_negative_weights(self):
        value, _ = secure_scalar_product(
            [3, 1], [-2, 5], PUB, PRIV, Channel(), random.Random(2)
        )
        assert value == -1

    def test_empty_vectors(self):
        value, crypto = secure_scalar_product(
            [], [], PUB, PRIV, Channel(), random.Random(3)
        )
        assert value == 0
        assert crypto.modexps == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            secure_scalar_product([1], [1, 2], PUB, PRIV, Channel(), random.Random(4))

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=8),
        st.integers(),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_matches_dot(self, a, seed):
        rng = random.Random(seed)
        b = [rng.randrange(0, 50) for _ in a]
        value, _ = secure_scalar_product(a, b, PUB, PRIV, Channel(), rng)
        assert value == sum(x * y for x, y in zip(a, b))


class TestMillionaires:
    @pytest.mark.parametrize(
        "alice,bob,expected",
        [(5, 3, True), (3, 5, False), (4, 4, True), (1, 8, False), (8, 1, True)],
    )
    def test_comparisons(self, alice, bob, expected):
        result = millionaires(
            alice, bob, domain=8, channel=Channel(), rng=random.Random(alice * 10 + bob),
            keypair=RSA_KEYS,
        )
        assert result.alice_at_least_bob is expected

    def test_cost_proportional_to_domain(self):
        """The tutorial's complaint: decryptions == domain size."""
        small = millionaires(2, 3, 8, Channel(), random.Random(1), keypair=RSA_KEYS)
        large = millionaires(2, 3, 64, Channel(), random.Random(1), keypair=RSA_KEYS)
        assert small.decryptions == 8
        assert large.decryptions == 64
        assert large.crypto.modexps > small.crypto.modexps * 6

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            millionaires(0, 3, 8, Channel(), random.Random(1), keypair=RSA_KEYS)
        with pytest.raises(ValueError):
            millionaires(3, 9, 8, Channel(), random.Random(1), keypair=RSA_KEYS)

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.integers(),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_correct_for_all_pairs(self, alice, bob, seed):
        result = millionaires(
            alice, bob, 16, Channel(), random.Random(seed), keypair=RSA_KEYS
        )
        assert result.alice_at_least_bob == (alice >= bob)
