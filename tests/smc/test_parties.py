"""Unit tests for the communication-accounting layer (parties/channels)."""

from dataclasses import dataclass

import pytest

from repro.smc.parties import CryptoOps
from repro.net.messages import EncryptedContribution
from repro.net.metrics import Channel, CommStats, payload_bytes


class TestPayloadBytes:
    def test_none_is_zero(self):
        assert payload_bytes(None) == 0

    def test_bytes_like(self):
        assert payload_bytes(b"abcd") == 4
        assert payload_bytes(bytearray(b"abc")) == 3
        assert payload_bytes(memoryview(b"ab")) == 2
        assert payload_bytes(b"") == 0

    def test_bool_is_one_byte(self):
        # bool before int: True would otherwise size as a 1-bit integer.
        assert payload_bytes(True) == 1
        assert payload_bytes(False) == 1

    def test_int_sized_by_bit_length(self):
        assert payload_bytes(0) == 1
        assert payload_bytes(255) == 1
        assert payload_bytes(256) == 2
        assert payload_bytes(2**64) == 9
        assert payload_bytes(-300) == 2

    def test_float_is_eight_bytes(self):
        assert payload_bytes(3.14) == 8
        assert payload_bytes(0.0) == 8

    def test_str_utf8_length(self):
        assert payload_bytes("abc") == 3
        assert payload_bytes("é") == 2
        assert payload_bytes("") == 0

    def test_containers_sum_items(self):
        assert payload_bytes([b"ab", b"c"]) == 3
        assert payload_bytes((1.0, 2.0)) == 16
        assert payload_bytes({b"four"}) == 4
        assert payload_bytes(frozenset({b"four"})) == 4
        assert payload_bytes([]) == 0

    def test_dict_sums_keys_and_values(self):
        assert payload_bytes({"ab": 1.0}) == 2 + 8

    def test_nested_containers(self):
        assert payload_bytes([[b"ab"], {"c": [b"d", None]}]) == 4

    def test_dataclass_sums_fields(self):
        contribution = EncryptedContribution(
            blob=b"0123456789", group_tag=b"tag", bucket_id=None
        )
        assert payload_bytes(contribution) == 10 + 3

    def test_dataclass_with_all_fields(self):
        contribution = EncryptedContribution(
            blob=b"0123456789", group_tag=b"tag", bucket_id=7
        )
        assert payload_bytes(contribution) == 10 + 3 + 1

    def test_nested_dataclasses(self):
        @dataclass
        class Pair:
            left: EncryptedContribution
            right: EncryptedContribution

        contribution = EncryptedContribution(blob=b"abcd")
        assert payload_bytes(Pair(contribution, contribution)) == 8

    def test_dataclass_type_is_not_an_instance(self):
        with pytest.raises(TypeError, match="cannot size"):
            payload_bytes(EncryptedContribution)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot size"):
            payload_bytes(object())


class TestCommStats:
    def test_record_accumulates_edges(self):
        stats = CommStats()
        stats.record("a", "b", 10)
        stats.record("a", "b", 5)
        stats.record("b", "a", 1)
        assert stats.messages == 3
        assert stats.bytes == 16
        assert stats.by_edge[("a", "b")] == 15
        assert stats.by_edge[("b", "a")] == 1


class TestChannel:
    def test_send_accounts_and_returns_payload(self):
        channel = Channel()
        payload = {"k": b"value"}
        assert channel.send("a", "b", payload) is payload
        assert channel.stats.messages == 1
        assert channel.stats.bytes == payload_bytes(payload)
        assert channel.transcript == []

    def test_transcript_kept_on_request(self):
        channel = Channel(keep_transcript=True)
        channel.send("a", "b", b"x")
        assert channel.transcript == [("a", "b", b"x")]


class TestCryptoOps:
    def test_addition(self):
        total = CryptoOps(modexps=2, symmetric_ops=3) + CryptoOps(
            modexps=1, symmetric_ops=4
        )
        assert total.modexps == 3
        assert total.symmetric_ops == 7
