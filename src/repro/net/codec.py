"""Byte-level codec of the simulated network (`repro.net`).

Everything that crosses the :class:`~repro.net.bus.MessageBus` is a
:class:`Frame` — a small header plus an opaque payload — so latency, loss and
bandwidth models act on real byte counts, not Python objects. The payload
codecs encode the wire types of :mod:`repro.net.messages`:

* :func:`encode_contribution` / :func:`decode_contribution` — an
  :class:`~repro.net.messages.EncryptedContribution` (blob + optional
  deterministic group tag + optional cleartext bucket id);
* :func:`encode_partition` / :func:`decode_partition` — a partition the SSI
  assigns to a claiming token (partition id + contribution list);
* :func:`encode_outcome` / :func:`decode_outcome` — a token's partial
  aggregate (:class:`~repro.net.messages.AggregationOutcome`) on its way
  to the querier;
* :func:`encode_delta_batch` / :func:`decode_delta_batch` — many
  :class:`~repro.net.messages.EncryptedDelta` changes of standing queries.

Malformed bytes always raise :class:`~repro.errors.ProtocolError`, never a
bare struct/unicode error — receivers must be able to discard garbage. The
contribution, partition and outcome decoders are also *canonical*: they
accept only the one byte string their encoder writes for a value, so a
decoded payload re-encodes to its input.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.net.messages import (
    Accumulator,
    AggregationOutcome,
    EncryptedContribution,
    EncryptedDelta,
)
from repro.obs.telemetry import TraceContext

# ---------------------------------------------------------------------------
# Frame kinds (the protocol control vocabulary)
# ---------------------------------------------------------------------------

KIND_CONTRIB = 1  #: PDS -> SSI: one encrypted contribution
KIND_ACK = 2  #: receiver -> sender: positive acknowledgement (seq echo)
KIND_CLAIM = 3  #: token -> SSI: "give me a partition to aggregate"
KIND_ASSIGN = 4  #: SSI -> token: a partition (id + contributions)
KIND_WAIT = 5  #: SSI -> token: nothing free right now, back off and re-claim
KIND_FIN = 6  #: SSI -> token: every partition is aggregated, disconnect
KIND_PARTIAL = 7  #: token -> querier: partial aggregate of one partition
KIND_PLAN = 8  #: SSI -> querier: how many partials to expect
KIND_DONE = 9  #: querier -> SSI: partition completed, stop reassigning it
KIND_QUERY = 10  #: querier -> SSI service: a query descriptor to serve
KIND_RESULT = 11  #: SSI service -> querier: the served aggregate
KIND_REJECT = 12  #: SSI service -> querier: admission control shed the query
KIND_TELEMETRY = 13  #: telemetry snapshot request/response (service.top)
KIND_SUBSCRIBE = 14  #: querier -> SSI service: register a standing query
# 15 stays unassigned: renumbering would move the bytes of every later kind.
KIND_UPDATE = 16  #: SSI service -> querier: a window-boundary update
KIND_DELTA_BATCH = 17  #: PDS -> SSI service: many deltas in one frame

KIND_NAMES = {
    KIND_CONTRIB: "CONTRIB",
    KIND_ACK: "ACK",
    KIND_CLAIM: "CLAIM",
    KIND_ASSIGN: "ASSIGN",
    KIND_WAIT: "WAIT",
    KIND_FIN: "FIN",
    KIND_PARTIAL: "PARTIAL",
    KIND_PLAN: "PLAN",
    KIND_DONE: "DONE",
    KIND_QUERY: "QUERY",
    KIND_RESULT: "RESULT",
    KIND_REJECT: "REJECT",
    KIND_TELEMETRY: "TELEMETRY",
    KIND_SUBSCRIBE: "SUBSCRIBE",
    KIND_UPDATE: "UPDATE",
    KIND_DELTA_BATCH: "DELTA_BATCH",
}

_MAGIC = 0xA7
_VERSION = 1
#: Version-2 frames carry a fixed trace-context block (trace id, parent
#: span id, sampling flags) between sender and payload. Emitted only when
#: a frame actually propagates a context, so untraced traffic stays
#: byte-identical to version 1 — and the 17 context bytes of traced
#: traffic are charged by the bandwidth model like any other bytes.
_VERSION_TRACED = 2
_TRACE_BLOCK = struct.Struct("<QQB")  # trace id, parent span id, flags
_FRAME_HEADER = struct.Struct("<BBBBII")  # magic, version, kind, slen, seq, plen
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class Frame:
    """One message on the wire: kind, sender address, sequence, payload.

    ``trace`` is an optional distributed trace context
    (:class:`repro.obs.telemetry.TraceContext`, duck-typed: anything with
    ``to_bytes()`` producing the 17-byte block) linking the work this
    frame triggers to the span that sent it.
    """

    kind: int
    sender: str
    seq: int
    payload: bytes = b""
    trace: "object | None" = None

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"kind-{self.kind}")


def encode_frame(frame: Frame) -> bytes:
    sender = frame.sender.encode("utf-8")
    if len(sender) > 255:
        raise ProtocolError("sender address longer than 255 bytes")
    if frame.kind not in KIND_NAMES:
        raise ProtocolError(f"unknown frame kind {frame.kind}")
    version = _VERSION
    trace_block = b""
    if frame.trace is not None:
        trace_block = frame.trace.to_bytes()
        if len(trace_block) != _TRACE_BLOCK.size:
            raise ProtocolError("trace context block has the wrong size")
        version = _VERSION_TRACED
    return (
        _FRAME_HEADER.pack(
            _MAGIC, version, frame.kind, len(sender),
            frame.seq & 0xFFFFFFFF, len(frame.payload),
        )
        + sender
        + trace_block
        + frame.payload
    )


def decode_frame(data: bytes) -> Frame:
    if len(data) < _FRAME_HEADER.size:
        raise ProtocolError("frame shorter than its header")
    magic, version, kind, slen, seq, plen = _FRAME_HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic 0x{magic:02x}")
    if version not in (_VERSION, _VERSION_TRACED):
        raise ProtocolError(f"unsupported frame version {version}")
    if kind not in KIND_NAMES:
        raise ProtocolError(f"unknown frame kind {kind}")
    trace_len = _TRACE_BLOCK.size if version == _VERSION_TRACED else 0
    if len(data) != _FRAME_HEADER.size + slen + trace_len + plen:
        raise ProtocolError("frame length does not match its header")
    offset = _FRAME_HEADER.size
    try:
        sender = data[offset : offset + slen].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("frame sender is not valid UTF-8") from exc
    offset += slen
    trace = None
    if trace_len:
        trace = TraceContext.from_bytes(data[offset : offset + trace_len])
        offset += trace_len
    return Frame(kind, sender, seq, bytes(data[offset:]), trace=trace)


def encode_json_payload(obj) -> bytes:
    """Canonical JSON bytes for the service control plane (QUERY/RESULT/
    REJECT frames carry small structured records, not ciphertext bags —
    sorted keys keep the encoding deterministic for byte-level tests)."""
    try:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"payload is not JSON-encodable: {exc}") from exc


def decode_json_payload(data: bytes) -> dict:
    """Decode a JSON control payload; garbage raises :class:`ProtocolError`."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("payload is not valid JSON") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("JSON payload must be an object")
    return obj


def pack_u32(value: int) -> bytes:
    return _U32.pack(value)


def unpack_u32(data: bytes) -> int:
    if len(data) < _U32.size:
        raise ProtocolError("u32 payload too short")
    return _U32.unpack_from(data, 0)[0]


# ---------------------------------------------------------------------------
# EncryptedContribution
# ---------------------------------------------------------------------------

_FLAG_TAG = 0x01
_FLAG_BUCKET = 0x02
_CONTRIB_HEADER = struct.Struct("<BIHi")  # flags, blob_len, tag_len, bucket


def encode_contribution(contribution: EncryptedContribution) -> bytes:
    tag = contribution.group_tag or b""
    if len(tag) > 0xFFFF:
        raise ProtocolError("group tag longer than 65535 bytes")
    flags = 0
    if contribution.group_tag is not None:
        flags |= _FLAG_TAG
    bucket = 0
    if contribution.bucket_id is not None:
        flags |= _FLAG_BUCKET
        bucket = contribution.bucket_id
    return (
        _CONTRIB_HEADER.pack(flags, len(contribution.blob), len(tag), bucket)
        + contribution.blob
        + tag
    )


def decode_contribution(data: bytes) -> EncryptedContribution:
    if len(data) < _CONTRIB_HEADER.size:
        raise ProtocolError("contribution frame too short")
    flags, blob_len, tag_len, bucket = _CONTRIB_HEADER.unpack_from(data, 0)
    if flags & ~(_FLAG_TAG | _FLAG_BUCKET):
        raise ProtocolError(f"contribution has unknown flag bits {flags:#04x}")
    if tag_len and not flags & _FLAG_TAG:
        raise ProtocolError("contribution carries a tag its flags do not set")
    if bucket and not flags & _FLAG_BUCKET:
        raise ProtocolError("contribution carries a bucket its flags do not set")
    offset = _CONTRIB_HEADER.size
    if len(data) != offset + blob_len + tag_len:
        raise ProtocolError("contribution length does not match its header")
    blob = bytes(data[offset : offset + blob_len])
    tag = bytes(data[offset + blob_len :])
    return EncryptedContribution(
        blob=blob,
        group_tag=tag if flags & _FLAG_TAG else None,
        bucket_id=bucket if flags & _FLAG_BUCKET else None,
    )


# ---------------------------------------------------------------------------
# Partition assignment (SSI -> token)
# ---------------------------------------------------------------------------

_PARTITION_HEADER = struct.Struct("<IH")  # partition id, contribution count


def encode_partition(
    partition_id: int, contributions: list[EncryptedContribution]
) -> bytes:
    if len(contributions) > 0xFFFF:
        raise ProtocolError("partition larger than 65535 contributions")
    parts = [_PARTITION_HEADER.pack(partition_id, len(contributions))]
    for contribution in contributions:
        encoded = encode_contribution(contribution)
        parts.append(_U32.pack(len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def decode_partition(
    data: bytes,
) -> tuple[int, list[EncryptedContribution]]:
    if len(data) < _PARTITION_HEADER.size:
        raise ProtocolError("partition frame too short")
    partition_id, count = _PARTITION_HEADER.unpack_from(data, 0)
    offset = _PARTITION_HEADER.size
    contributions = []
    for _ in range(count):
        if len(data) < offset + _U32.size:
            raise ProtocolError("partition frame truncated")
        (length,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        if len(data) < offset + length:
            raise ProtocolError("partition frame truncated")
        contributions.append(decode_contribution(data[offset : offset + length]))
        offset += length
    if offset != len(data):
        raise ProtocolError("partition frame has trailing bytes")
    return partition_id, contributions


# ---------------------------------------------------------------------------
# Partial aggregate (token -> querier)
# ---------------------------------------------------------------------------

_OUTCOME_HEADER = struct.Struct("<IIIIII")  # pid, real, fake, fail, nseen, ngrp
_SEEN_PAIR = struct.Struct("<II")
_GROUP_STATS = struct.Struct("<dI")  # sum, count
_U16 = struct.Struct("<H")


def encode_outcome(partition_id: int, outcome: AggregationOutcome) -> bytes:
    accumulator = outcome.accumulator
    parts = [
        _OUTCOME_HEADER.pack(
            partition_id,
            outcome.real_tuples,
            outcome.fake_tuples,
            outcome.integrity_failures,
            len(outcome.seen_pds_sequences),
            len(accumulator.sums),
        )
    ]
    for pds_id, sequence in sorted(outcome.seen_pds_sequences):
        parts.append(_SEEN_PAIR.pack(pds_id, sequence))
    for group in sorted(accumulator.sums):
        encoded = group.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ProtocolError("group name longer than 65535 bytes")
        parts.append(_U16.pack(len(encoded)))
        parts.append(encoded)
        parts.append(
            _GROUP_STATS.pack(accumulator.sums[group], accumulator.counts[group])
        )
    return b"".join(parts)


def decode_outcome(data: bytes) -> tuple[int, AggregationOutcome]:
    if len(data) < _OUTCOME_HEADER.size:
        raise ProtocolError("outcome frame too short")
    pid, real, fake, failures, nseen, ngroups = _OUTCOME_HEADER.unpack_from(
        data, 0
    )
    offset = _OUTCOME_HEADER.size
    seen: set[tuple[int, int]] = set()
    previous = None
    for _ in range(nseen):
        if len(data) < offset + _SEEN_PAIR.size:
            raise ProtocolError("outcome frame truncated in seen set")
        pair = _SEEN_PAIR.unpack_from(data, offset)
        # encode_outcome writes the set sorted: a repeated or out-of-order
        # pair is another byte string for the same partial.
        if previous is not None and pair <= previous:
            raise ProtocolError("outcome seen pairs not strictly ascending")
        seen.add(pair)
        previous = pair
        offset += _SEEN_PAIR.size
    accumulator = Accumulator()
    previous = None
    for _ in range(ngroups):
        if len(data) < offset + _U16.size:
            raise ProtocolError("outcome frame truncated in groups")
        (glen,) = _U16.unpack_from(data, offset)
        offset += _U16.size
        if len(data) < offset + glen + _GROUP_STATS.size:
            raise ProtocolError("outcome frame truncated in groups")
        try:
            group = data[offset : offset + glen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("outcome group is not valid UTF-8") from exc
        offset += glen
        total, count = _GROUP_STATS.unpack_from(data, offset)
        offset += _GROUP_STATS.size
        # An aggregator only reports groups it added to, each once: a
        # zero count or a repeated group is garbage, not a partial.
        if count == 0:
            raise ProtocolError(f"outcome group {group!r} has count 0")
        if group in accumulator.sums:
            raise ProtocolError(f"outcome group {group!r} repeated")
        if previous is not None and group < previous:
            raise ProtocolError("outcome groups not in ascending order")
        previous = group
        accumulator.sums[group] = total
        accumulator.counts[group] = count
    if offset != len(data):
        raise ProtocolError("outcome frame has trailing bytes")
    return pid, AggregationOutcome(
        accumulator=accumulator,
        real_tuples=real,
        fake_tuples=fake,
        integrity_failures=failures,
        seen_pds_sequences=seen,
    )


# ---------------------------------------------------------------------------
# Encrypted contribution delta (PDS -> SSI service, standing queries)
# ---------------------------------------------------------------------------

# subscription id, pds id, seq, timestamp, value len, count len
_DELTA_HEADER = struct.Struct("<IIIqHH")


def encode_delta(subscription_id: int, delta: EncryptedDelta) -> bytes:
    """One ``DELTA_BATCH`` entry: header + the two big-endian ciphertexts.

    The ciphertext blobs are what the bandwidth model charges — for a
    512-bit key each is 128 bytes, so one delta costs ~270 wire bytes
    against the ~one-ciphertext-per-PDS cost of a full recollection.
    """
    value = delta.value_cipher.to_bytes(
        (delta.value_cipher.bit_length() + 7) // 8 or 1, "big"
    )
    count = delta.count_cipher.to_bytes(
        (delta.count_cipher.bit_length() + 7) // 8 or 1, "big"
    )
    if len(value) > 0xFFFF or len(count) > 0xFFFF:
        raise ProtocolError("delta ciphertext longer than 65535 bytes")
    return (
        _DELTA_HEADER.pack(
            subscription_id,
            delta.pds_id,
            delta.seq,
            delta.timestamp,
            len(value),
            len(count),
        )
        + value
        + count
    )


def decode_delta(data: bytes) -> tuple[int, EncryptedDelta]:
    if len(data) < _DELTA_HEADER.size:
        raise ProtocolError("delta entry too short")
    sub_id, pds_id, seq, timestamp, vlen, clen = _DELTA_HEADER.unpack_from(
        data, 0
    )
    offset = _DELTA_HEADER.size
    if len(data) != offset + vlen + clen:
        raise ProtocolError("delta length does not match its header")
    value = int.from_bytes(data[offset : offset + vlen], "big")
    count = int.from_bytes(data[offset + vlen :], "big")
    return sub_id, EncryptedDelta(
        pds_id=pds_id,
        seq=seq,
        timestamp=timestamp,
        value_cipher=value,
        count_cipher=count,
    )


# ---------------------------------------------------------------------------
# Batched deltas (PDS -> SSI service, high-throughput ingest)
# ---------------------------------------------------------------------------

_BATCH_HEADER = struct.Struct("<H")  # entry count


def encode_delta_batch(entries) -> bytes:
    """One ``DELTA_BATCH`` payload: many ``(subscription_id, delta)`` pairs.

    Each entry is a length-prefixed single-delta encoding, so the batch
    frame charges the bandwidth model for exactly the ciphertext bytes of
    its deltas plus 4 framing bytes per entry — one frame header and one
    bus hop amortized over the whole batch instead of paid per delta.
    Entries may target different subscriptions (a PDS holding several
    standing subscriptions flushes them in one frame).
    """
    entries = list(entries)
    if len(entries) > 0xFFFF:
        raise ProtocolError("delta batch larger than 65535 entries")
    parts = [_BATCH_HEADER.pack(len(entries))]
    for subscription_id, delta in entries:
        encoded = encode_delta(subscription_id, delta)
        parts.append(_U32.pack(len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def decode_delta_batch(data: bytes) -> list[tuple[int, EncryptedDelta]]:
    """Decode a ``DELTA_BATCH`` payload; garbage raises ProtocolError."""
    if len(data) < _BATCH_HEADER.size:
        raise ProtocolError("delta batch frame too short")
    (count,) = _BATCH_HEADER.unpack_from(data, 0)
    offset = _BATCH_HEADER.size
    entries = []
    for _ in range(count):
        if len(data) < offset + _U32.size:
            raise ProtocolError("delta batch frame truncated")
        (length,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        if len(data) < offset + length:
            raise ProtocolError("delta batch frame truncated")
        entries.append(decode_delta(data[offset : offset + length]))
        offset += length
    if offset != len(data):
        raise ProtocolError("delta batch frame has trailing bytes")
    return entries
