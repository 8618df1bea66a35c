"""Byte-level codec tests: frames and protocol payloads round-trip,
malformed bytes always surface as ProtocolError."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net.codec import (
    KIND_ACK,
    KIND_CONTRIB,
    KIND_NAMES,
    KIND_QUERY,
    KIND_REJECT,
    KIND_RESULT,
    Frame,
    decode_json_payload,
    decode_contribution,
    decode_frame,
    decode_outcome,
    decode_partition,
    encode_contribution,
    encode_json_payload,
    encode_frame,
    encode_outcome,
    encode_partition,
    pack_u32,
    unpack_u32,
)
from repro.net.messages import (
    Accumulator,
    AggregationOutcome,
    EncryptedContribution,
)


class TestFrame:
    @pytest.mark.parametrize("kind", sorted(KIND_NAMES))
    def test_roundtrip_every_kind(self, kind):
        frame = Frame(kind, "pds-42", 7, b"payload")
        assert decode_frame(encode_frame(frame)) == frame

    def test_standing_kinds_preserve_the_trace_block(self):
        """SUBSCRIBE/DELTA_BATCH/UPDATE frames round-trip as v2 traced
        frames — the delta stream joins distributed traces like any other
        traffic."""
        from repro.net.codec import (
            KIND_DELTA_BATCH,
            KIND_SUBSCRIBE,
            KIND_UPDATE,
        )
        from repro.obs.telemetry import TraceContext

        # Retiring kind 15 must not have moved its neighbours' bytes.
        assert (KIND_SUBSCRIBE, KIND_UPDATE, KIND_DELTA_BATCH) == (14, 16, 17)
        context = TraceContext(trace_id=77, parent_span_id=5, sampled=True)
        for kind in (KIND_SUBSCRIBE, KIND_DELTA_BATCH, KIND_UPDATE):
            frame = Frame(kind, "pds-1", 9, b"\x01\x02", trace=context)
            decoded = decode_frame(encode_frame(frame))
            assert decoded.kind == kind
            assert decoded.payload == b"\x01\x02"
            assert decoded.trace is not None
            assert decoded.trace.to_bytes() == context.to_bytes()

    def test_empty_payload(self):
        frame = Frame(KIND_ACK, "ssi", 0)
        assert decode_frame(encode_frame(frame)) == frame

    def test_kind_name(self):
        assert Frame(KIND_CONTRIB, "a", 0).kind_name == "CONTRIB"
        assert Frame(KIND_CONTRIB, "a", 0).kind_name in KIND_NAMES.values()

    @given(
        st.sampled_from(sorted(KIND_NAMES)),
        st.text(min_size=1, max_size=40),
        st.integers(0, 2**32 - 1),
        st.binary(max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip(self, kind, sender, seq, payload):
        frame = Frame(kind, sender, seq, payload)
        assert decode_frame(encode_frame(frame)) == frame

    def test_unknown_kind_rejected_on_encode(self):
        for kind in (99, 15):  # 15: the retired one-delta kind, unassigned
            with pytest.raises(ProtocolError, match="unknown frame kind"):
                encode_frame(Frame(kind, "a", 0))

    def test_oversized_sender_rejected(self):
        with pytest.raises(ProtocolError, match="sender"):
            encode_frame(Frame(KIND_ACK, "x" * 256, 0))

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="shorter than its header"):
            decode_frame(b"\xa7\x01")

    def test_bad_magic(self):
        data = bytearray(encode_frame(Frame(KIND_ACK, "a", 1)))
        data[0] = 0x00
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(bytes(data))

    def test_bad_version(self):
        data = bytearray(encode_frame(Frame(KIND_ACK, "a", 1)))
        data[1] = 9
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(data))

    def test_unknown_kind_rejected_on_decode(self):
        data = bytearray(encode_frame(Frame(KIND_ACK, "a", 1)))
        for kind in (77, 15):
            data[2] = kind
            with pytest.raises(ProtocolError, match="unknown frame kind"):
                decode_frame(bytes(data))

    def test_length_mismatch(self):
        data = encode_frame(Frame(KIND_ACK, "a", 1, b"xy"))
        with pytest.raises(ProtocolError, match="length"):
            decode_frame(data + b"trailing")
        with pytest.raises(ProtocolError, match="length"):
            decode_frame(data[:-1])

    def test_invalid_utf8_sender(self):
        data = bytearray(encode_frame(Frame(KIND_ACK, "ab", 1)))
        header = struct.Struct("<BBBBII")
        data[header.size] = 0xFF  # first sender byte -> invalid UTF-8
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_frame(bytes(data))


class TestU32:
    def test_roundtrip(self):
        assert unpack_u32(pack_u32(0)) == 0
        assert unpack_u32(pack_u32(2**32 - 1)) == 2**32 - 1

    def test_too_short(self):
        with pytest.raises(ProtocolError):
            unpack_u32(b"\x01")


CONTRIBUTIONS = [
    EncryptedContribution(blob=b"ciphertext"),
    EncryptedContribution(blob=b"c", group_tag=b"tag-bytes"),
    EncryptedContribution(blob=b"c", bucket_id=3),
    EncryptedContribution(blob=b"", group_tag=b"", bucket_id=0),
    EncryptedContribution(blob=b"c", group_tag=b"t", bucket_id=-1),
]


class TestContributionCodec:
    @pytest.mark.parametrize("contribution", CONTRIBUTIONS)
    def test_roundtrip(self, contribution):
        encoded = encode_contribution(contribution)
        assert decode_contribution(encoded) == contribution

    def test_none_fields_stay_none(self):
        decoded = decode_contribution(
            encode_contribution(EncryptedContribution(blob=b"x"))
        )
        assert decoded.group_tag is None
        assert decoded.bucket_id is None

    def test_empty_tag_distinct_from_no_tag(self):
        with_tag = decode_contribution(
            encode_contribution(
                EncryptedContribution(blob=b"x", group_tag=b"")
            )
        )
        assert with_tag.group_tag == b""

    def test_too_short(self):
        with pytest.raises(ProtocolError, match="too short"):
            decode_contribution(b"\x00\x00")

    def test_length_mismatch(self):
        encoded = encode_contribution(EncryptedContribution(blob=b"abcdef"))
        with pytest.raises(ProtocolError, match="length"):
            decode_contribution(encoded + b"z")

    def test_tag_length_boundary(self):
        """The tag length is a u16 field: 65535 bytes round-trip, one more
        is refused as ProtocolError, not a bare struct.error."""
        longest = EncryptedContribution(blob=b"c", group_tag=b"t" * 0xFFFF)
        assert decode_contribution(encode_contribution(longest)) == longest
        with pytest.raises(ProtocolError, match="65535"):
            encode_contribution(
                EncryptedContribution(blob=b"c", group_tag=b"t" * 0x10000)
            )


class TestPartitionCodec:
    def test_roundtrip(self):
        pid, decoded = decode_partition(encode_partition(17, CONTRIBUTIONS))
        assert pid == 17
        assert decoded == CONTRIBUTIONS

    def test_empty_partition(self):
        assert decode_partition(encode_partition(0, [])) == (0, [])

    def test_truncated(self):
        encoded = encode_partition(2, CONTRIBUTIONS)
        with pytest.raises(ProtocolError, match="truncated|too short"):
            decode_partition(encoded[:-3])

    def test_trailing_bytes(self):
        encoded = encode_partition(2, [])
        with pytest.raises(ProtocolError, match="trailing"):
            decode_partition(encoded + b"\x00")

    def test_contribution_count_boundary(self):
        """The count is a u16 field (a noise or histogram partition holds a
        whole group or bucket): 65535 round-trip, 65536 raise ProtocolError."""
        one = EncryptedContribution(blob=b"")
        pid, decoded = decode_partition(encode_partition(3, [one] * 0xFFFF))
        assert (pid, len(decoded)) == (3, 0xFFFF)
        with pytest.raises(ProtocolError, match="65535"):
            encode_partition(3, [one] * 0x10000)


def outcome() -> AggregationOutcome:
    accumulator = Accumulator()
    accumulator.add("lyon", 2.0)
    accumulator.add("paris", 1.5)
    accumulator.add("paris", 0.5)
    return AggregationOutcome(
        accumulator=accumulator,
        real_tuples=3,
        fake_tuples=2,
        integrity_failures=1,
        seen_pds_sequences={(4, 0), (9, 2)},
    )


class TestOutcomeCodec:
    def test_roundtrip(self):
        pid, decoded = decode_outcome(encode_outcome(5, outcome()))
        original = outcome()
        assert pid == 5
        assert decoded.real_tuples == original.real_tuples
        assert decoded.fake_tuples == original.fake_tuples
        assert decoded.integrity_failures == original.integrity_failures
        assert decoded.seen_pds_sequences == original.seen_pds_sequences
        assert decoded.accumulator.sums == original.accumulator.sums
        assert decoded.accumulator.counts == original.accumulator.counts

    def test_truncated(self):
        encoded = encode_outcome(5, outcome())
        for cut in (4, len(encoded) - 3):
            with pytest.raises(ProtocolError):
                decode_outcome(encoded[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(ProtocolError, match="trailing"):
            decode_outcome(encode_outcome(5, outcome()) + b"\x00")

    @staticmethod
    def _frame(groups: list[tuple[str, float, int]]) -> bytes:
        """An outcome payload with exactly ``groups``, however malformed."""
        parts = [struct.pack("<IIIIII", 5, 1, 0, 0, 0, len(groups))]
        for name, total, count in groups:
            encoded = name.encode("utf-8")
            parts.append(struct.pack("<H", len(encoded)) + encoded)
            parts.append(struct.pack("<dI", total, count))
        return b"".join(parts)

    def test_zero_count_group_rejected(self):
        """A zero count would decode, then divide by zero in an AVG."""
        accumulator = Accumulator()
        accumulator.add("lyon", 2.0)
        assert self._frame([("lyon", 2.0, 1)]) == encode_outcome(
            5, AggregationOutcome(accumulator, 1, 0, 0, set())
        )
        with pytest.raises(ProtocolError, match="count 0"):
            decode_outcome(self._frame([("lyon", 2.0, 0)]))

    def test_repeated_group_rejected(self):
        """A repeated group must not silently drop the first partial."""
        with pytest.raises(ProtocolError, match="repeated"):
            decode_outcome(self._frame([("lyon", 2.0, 1), ("lyon", 3.0, 2)]))

    def test_group_name_length_boundary(self):
        """Group names carry a u16 length: 65535 bytes round-trip, one
        more is refused as ProtocolError, not a bare struct.error."""
        for size, ok in ((0xFFFF, True), (0x10000, False)):
            accumulator = Accumulator()
            accumulator.add("g" * size, 1.0)
            partial = AggregationOutcome(accumulator, 1, 0, 0, set())
            if ok:
                decoded = decode_outcome(encode_outcome(1, partial))[1]
                assert decoded.accumulator.sums == {"g" * size: 1.0}
            else:
                with pytest.raises(ProtocolError, match="65535"):
                    encode_outcome(1, partial)


CONTRIB_HEADER = struct.Struct("<BIHi")  # flags, blob_len, tag_len, bucket


class TestCanonicalDecoders:
    """One byte string per message: what decodes, re-encodes to its input.

    Each case below decoded before the decoders were made canonical, to a
    value whose encoding differs from the bytes received.
    """

    @pytest.mark.parametrize(
        "flags, tag, bucket",
        [
            (0x04, b"", 0),  # an unknown flag bit
            (0x80 | 0x01, b"t", 0),  # unknown bit beside a known one
            (0x00, b"t", 0),  # a tag without its flag
            (0x02, b"t", 1),  # a tag beside the bucket flag only
            (0x00, b"", 7),  # a bucket without its flag
            (0x01, b"t", -1),  # a bucket beside the tag flag only
        ],
    )
    def test_contribution_fields_need_their_flags(self, flags, tag, bucket):
        data = CONTRIB_HEADER.pack(flags, 1, len(tag), bucket) + b"c" + tag
        with pytest.raises(ProtocolError, match="flag"):
            decode_contribution(data)

    @staticmethod
    def _outcome(pairs, groups) -> bytes:
        parts = [struct.pack("<IIIIII", 5, 1, 0, 0, len(pairs), len(groups))]
        parts += [struct.pack("<II", *pair) for pair in pairs]
        for name in groups:
            encoded = name.encode("utf-8")
            parts.append(struct.pack("<H", len(encoded)) + encoded)
            parts.append(struct.pack("<dI", 1.0, 1))
        return b"".join(parts)

    def test_sorted_outcome_decodes(self):
        data = self._outcome([(1, 0), (1, 1), (2, 0)], ["lyon", "paris"])
        assert encode_outcome(*decode_outcome(data)) == data

    @pytest.mark.parametrize(
        "pairs", [[(1, 1), (1, 0)], [(2, 0), (1, 5)], [(1, 0), (1, 0)]]
    )
    def test_unsorted_or_repeated_seen_pairs_rejected(self, pairs):
        with pytest.raises(ProtocolError, match="seen pairs"):
            decode_outcome(self._outcome(pairs, ["lyon"]))

    def test_unsorted_groups_rejected(self):
        with pytest.raises(ProtocolError, match="ascending"):
            decode_outcome(self._outcome([], ["paris", "lyon"]))


@st.composite
def contributions(draw):
    return EncryptedContribution(
        blob=draw(st.binary(max_size=24)),
        group_tag=draw(st.none() | st.binary(max_size=8)),
        bucket_id=draw(st.none() | st.integers(-(2**31), 2**31 - 1)),
    )


@st.composite
def outcomes(draw):
    accumulator = Accumulator()
    for group in draw(st.lists(st.text(max_size=4), max_size=4, unique=True)):
        accumulator.sums[group] = draw(st.floats(allow_nan=False))
        accumulator.counts[group] = draw(st.integers(1, 2**32 - 1))
    uint32 = st.integers(0, 2**32 - 1)
    return AggregationOutcome(
        accumulator=accumulator,
        real_tuples=draw(uint32),
        fake_tuples=draw(uint32),
        integrity_failures=draw(uint32),
        seen_pds_sequences=draw(
            st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6)
        ),
    )


@st.composite
def mutants(draw, encodings):
    """A valid encoding with a few bytes overwritten, cut or inserted."""
    data = bytearray(draw(encodings))
    for _ in range(draw(st.integers(1, 3))):
        position = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(("set", "cut", "insert")))
        if action == "insert" or position == len(data):
            data.insert(position, draw(st.integers(0, 255)))
        elif action == "cut":
            del data[position]
        else:
            data[position] = draw(st.integers(0, 255))
    return bytes(data)


def assert_canonical(decode, encode, data: bytes) -> None:
    try:
        decoded = decode(data)
    except ProtocolError:
        return
    assert encode(decoded) == data


class TestCanonicalProperties:
    """Per payload kind: a decode raises ProtocolError or round-trips."""

    @given(mutants(contributions().map(encode_contribution)))
    @settings(max_examples=400, deadline=None)
    def test_contribution(self, data):
        assert_canonical(decode_contribution, encode_contribution, data)

    @given(
        mutants(
            st.tuples(
                st.integers(0, 2**32 - 1), st.lists(contributions(), max_size=3)
            ).map(lambda args: encode_partition(*args))
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_partition(self, data):
        assert_canonical(
            decode_partition, lambda decoded: encode_partition(*decoded), data
        )

    @given(
        mutants(
            st.tuples(st.integers(0, 2**32 - 1), outcomes()).map(
                lambda args: encode_outcome(*args)
            )
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_outcome(self, data):
        assert_canonical(
            decode_outcome, lambda decoded: encode_outcome(*decoded), data
        )


class TestServiceFrames:
    def test_new_kinds_are_named_and_distinct(self):
        assert KIND_NAMES[KIND_QUERY] == "QUERY"
        assert KIND_NAMES[KIND_RESULT] == "RESULT"
        assert KIND_NAMES[KIND_REJECT] == "REJECT"
        assert len({KIND_QUERY, KIND_RESULT, KIND_REJECT}) == 3

    def test_json_payload_round_trips_through_frame(self):
        body = {"request_id": 3, "result": {"*": 1.5}, "cached": False}
        frame = Frame(KIND_RESULT, "ssi", 9, encode_json_payload(body))
        decoded = decode_frame(encode_frame(frame))
        assert decoded.kind == KIND_RESULT
        assert decode_json_payload(decoded.payload) == body

    def test_json_payload_is_canonical(self):
        a = encode_json_payload({"b": 1, "a": 2})
        b = encode_json_payload({"a": 2, "b": 1})
        assert a == b  # key order never changes the bytes

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe", b"not json", b"[1,2]", b'"scalar"'],
    )
    def test_malformed_json_payloads_rejected(self, data):
        with pytest.raises(ProtocolError):
            decode_json_payload(data)

    def test_unencodable_object_rejected(self):
        with pytest.raises(ProtocolError):
            encode_json_payload({"x": object()})


class TestDeltaBatchCodec:
    def _entries(self, count=4):
        from repro.net.messages import EncryptedDelta

        return [
            (
                sub,
                EncryptedDelta(
                    pds_id=i,
                    seq=i + 1,
                    timestamp=i % 3,
                    value_cipher=(1 << 200) + 17 * i,
                    count_cipher=(1 << 199) + 5 * i,
                ),
            )
            for i, sub in zip(range(count), [1, 1, 2, 7] * count)
        ]

    def test_round_trip(self):
        from repro.net.codec import (
            KIND_DELTA_BATCH,
            decode_delta_batch,
            encode_delta_batch,
        )

        entries = self._entries()
        frame = Frame(
            KIND_DELTA_BATCH, "pds-0", 1, encode_delta_batch(entries)
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded.kind == KIND_DELTA_BATCH
        assert KIND_NAMES[KIND_DELTA_BATCH] == "DELTA_BATCH"
        assert decode_delta_batch(decoded.payload) == entries

    def test_empty_batch_round_trips(self):
        from repro.net.codec import decode_delta_batch, encode_delta_batch

        assert decode_delta_batch(encode_delta_batch([])) == []

    def test_truncated_and_trailing_bytes_rejected(self):
        from repro.net.codec import decode_delta_batch, encode_delta_batch

        blob = encode_delta_batch(self._entries())
        with pytest.raises(ProtocolError):
            decode_delta_batch(blob[:-3])
        with pytest.raises(ProtocolError):
            decode_delta_batch(blob + b"\x00")
        with pytest.raises(ProtocolError):
            decode_delta_batch(b"\x01")  # count says 1, no entry bytes

    def test_entry_payload_corruption_rejected(self):
        from repro.net.codec import decode_delta_batch, encode_delta_batch

        blob = bytearray(encode_delta_batch(self._entries(1)))
        # Shrink the inner delta header's vlen so lengths disagree.
        blob[-1] ^= 0xFF
        with pytest.raises(ProtocolError):
            decode_delta_batch(bytes(blob[:-4]))
