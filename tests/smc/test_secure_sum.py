"""Tests for secure sum (ring and Paillier variants) and the channel."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.paillier import generate_keypair
from repro.net.metrics import Channel, payload_bytes
from repro.smc.secure_sum import (
    collude_against_site,
    paillier_secure_sum,
    ring_secure_sum,
)

PUB, PRIV = generate_keypair(bits=256, rng=random.Random(99))


class TestChannel:
    def test_bytes_and_messages_counted(self):
        channel = Channel()
        channel.send("a", "b", 255)
        channel.send("b", "c", b"xyz")
        assert channel.stats.messages == 2
        assert channel.stats.bytes == 1 + 3
        assert channel.stats.by_edge[("a", "b")] == 1

    def test_transcript_optional(self):
        channel = Channel(keep_transcript=True)
        channel.send("a", "b", "hello")
        assert channel.transcript == [("a", "b", "hello")]

    def test_payload_sizes(self):
        assert payload_bytes(0) == 1
        assert payload_bytes(2**16) == 3
        assert payload_bytes([1, b"ab", "cd"]) == 1 + 2 + 2
        assert payload_bytes({"k": 1.0}) == 1 + 8
        assert payload_bytes(True) == 1
        with pytest.raises(TypeError):
            payload_bytes(object())


class TestRingSecureSum:
    def test_correct_total(self):
        channel = Channel()
        result = ring_secure_sum([10, 20, 30, 40], channel, random.Random(1))
        assert result.total == 100

    def test_one_message_per_edge_plus_return(self):
        channel = Channel()
        ring_secure_sum([1] * 7, channel, random.Random(2))
        assert channel.stats.messages == 7  # 6 forwards + closing hop

    def test_no_modexp(self):
        result = ring_secure_sum([1, 2], Channel(), random.Random(3))
        assert result.crypto.modexps == 0

    def test_masked_values_on_wire(self):
        """The wire never carries a partial sum in the clear."""
        channel = Channel(keep_transcript=True)
        values = [5, 5, 5]
        ring_secure_sum(values, channel, random.Random(4))
        partials = {5, 10, 15}
        wire_values = {payload for _, _, payload in channel.transcript}
        assert not (wire_values & partials)  # overwhelming probability

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ring_secure_sum([], Channel(), random.Random(0))
        with pytest.raises(ValueError):
            ring_secure_sum([-1], Channel(), random.Random(0))

    def test_collusion_recovers_target_value(self):
        """The toolkit's honest-majority caveat, demonstrated."""
        values = [11, 22, 33, 44, 55]
        assert collude_against_site(values, target=2) == 33

    def test_collusion_needs_interior_target(self):
        with pytest.raises(ValueError):
            collude_against_site([1, 2, 3], target=0)

    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_property_sum(self, values):
        result = ring_secure_sum(values, Channel(), random.Random(7))
        assert result.total == sum(values)


class TestPaillierSecureSum:
    def test_correct_total(self):
        channel = Channel()
        result = paillier_secure_sum(
            [100, 200, 300], PUB, PRIV, channel, random.Random(1)
        )
        assert result.total == 600

    def test_modexp_cost_linear_in_sites(self):
        few = paillier_secure_sum([1] * 3, PUB, PRIV, Channel(), random.Random(2))
        many = paillier_secure_sum([1] * 9, PUB, PRIV, Channel(), random.Random(2))
        assert few.crypto.modexps == 4  # 3 encryptions + 1 decryption
        assert many.crypto.modexps == 10

    def test_ciphertexts_unlinkable(self):
        channel = Channel(keep_transcript=True)
        paillier_secure_sum([7, 7, 7], PUB, PRIV, channel, random.Random(3))
        to_aggregator = [
            payload
            for _, receiver, payload in channel.transcript
            if receiver == "aggregator"
        ]
        assert len(set(to_aggregator)) == 3  # same value, distinct ciphertexts

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            paillier_secure_sum([], PUB, PRIV, Channel(), random.Random(0))
