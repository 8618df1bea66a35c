"""Wire types of the [TNP14]-style global protocols.

Every value that crosses a wire or a worker boundary between a PDS, the
SSI and a querier is defined here, below both :mod:`repro.net` (whose
codec encodes them) and :mod:`repro.globalq` (whose protocols produce
them). This module imports nothing from the rest of the system but
:mod:`repro.errors`.

A PDS contribution travels as an :class:`EncryptedContribution`:

* ``blob`` — the authenticated ciphertext of the tuple payload (always
  non-deterministic, so the payload itself never leaks);
* ``group_tag`` — optional *deterministic* encryption of the group value
  (noise-based family: lets the SSI partition by group, leaks frequencies);
* ``bucket_id`` — optional cleartext histogram bucket (histogram family:
  leaks only the coarse bucket).

The payload inside ``blob`` is ``pds_id | sequence | flags | group | value``,
packed by :func:`pack_fields`; the ``FAKE`` flag marks noise tuples that
trusted aggregators silently drop after decryption. The collection and
aggregation loops pack and unpack bare fields; :class:`Payload` is the same
five fields as a record, for callers that want one.

A trusted aggregator's partial travels as an :class:`AggregationOutcome`
around an :class:`Accumulator`; a standing query's change travels as an
:class:`EncryptedDelta`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ProtocolError

_HEADER = struct.Struct("<IIBd")  # pds_id, sequence, flags, value

FLAG_FAKE = 0x01


@dataclass(frozen=True, slots=True)
class EncryptedContribution:
    """One contribution as the SSI sees it."""

    blob: bytes
    group_tag: bytes | None = None
    bucket_id: int | None = None

    def wire_size(self) -> int:
        size = len(self.blob)
        if self.group_tag is not None:
            size += len(self.group_tag)
        if self.bucket_id is not None:
            size += 4
        return size


@dataclass(frozen=True)
class Payload:
    """Decrypted content of a contribution (inside a token only)."""

    pds_id: int
    sequence: int
    group: str
    value: float
    fake: bool = False


def pack_fields(
    pds_id: int, sequence: int, group: str, value: float, fake: bool = False
) -> bytes:
    return (
        _HEADER.pack(pds_id, sequence, FLAG_FAKE if fake else 0, value)
        + group.encode("utf-8")
    )


def unpack_fields(data: bytes) -> tuple[int, int, str, float, bool]:
    """``(pds_id, sequence, group, value, fake)`` — :class:`Payload` order."""
    if len(data) < _HEADER.size:
        raise ProtocolError("contribution payload too short")
    pds_id, sequence, flags, value = _HEADER.unpack_from(data, 0)
    try:
        group = data[_HEADER.size :].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("contribution group is not valid UTF-8") from exc
    return pds_id, sequence, group, value, bool(flags & FLAG_FAKE)


def pack_payload(payload: Payload) -> bytes:
    return pack_fields(
        payload.pds_id, payload.sequence, payload.group, payload.value,
        payload.fake,
    )


def unpack_payload(data: bytes) -> Payload:
    return Payload(*unpack_fields(data))


class Accumulator:
    """Composable partial aggregate: (sum, count) per group.

    All three SQL aggregates reduce to sum/count pairs, which merge
    associatively — the property every partition-then-combine protocol
    needs.
    """

    def __init__(self) -> None:
        self.sums: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def add(self, group: str, value: float) -> None:
        self.sums[group] = self.sums.get(group, 0.0) + value
        self.counts[group] = self.counts.get(group, 0) + 1

    def merge(self, other: "Accumulator") -> None:
        for group, value in other.sums.items():
            self.sums[group] = self.sums.get(group, 0.0) + value
        for group, count in other.counts.items():
            self.counts[group] = self.counts.get(group, 0) + count

    def finalize(self, query) -> dict[str, float]:
        """The answer to ``query`` (an ``AggregateQuery``) per group."""
        result = {}
        for group in self.sums:
            if query.aggregate == "COUNT":
                result[group] = float(self.counts[group])
            elif query.aggregate == "SUM":
                result[group] = self.sums[group]
            else:  # AVG
                result[group] = self.sums[group] / self.counts[group]
        return result

    def serialized_size(self) -> int:
        """Wire size of this partial (group strings + two 8 B numbers)."""
        return sum(len(group.encode()) + 16 for group in self.sums)


@dataclass
class AggregationOutcome:
    """What one trusted aggregator produced from one partition."""

    accumulator: Accumulator
    real_tuples: int
    fake_tuples: int
    integrity_failures: int
    seen_pds_sequences: set


@dataclass(frozen=True)
class EncryptedDelta:
    """One PDS's encrypted contribution change.

    ``value_cipher`` encrypts the signed change of the PDS's value sum,
    ``count_cipher`` the signed change of its matching-record count —
    together they update the (sum, count) pair every SQL aggregate reduces
    to. ``seq`` is the per-(PDS, subscription) sequence number: the SSI
    folds each sequence at most once, so a replayed or duplicated delta
    cannot double-count (the one-shot protocols' replay rule, applied to
    the delta stream).
    """

    pds_id: int
    seq: int
    timestamp: int
    value_cipher: int
    count_cipher: int

    def ciphertext_bytes(self, n_squared: int) -> int:
        """Wire size of the two ciphertexts under modulus ``n²``."""
        return 2 * ((n_squared.bit_length() + 7) // 8)
