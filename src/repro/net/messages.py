"""Wire types of the [TNP14]-style global protocols.

Every value that crosses a wire or a worker boundary between a PDS, the
SSI and a querier is defined here, below both :mod:`repro.net` (whose
codec encodes them) and :mod:`repro.globalq` (whose protocols produce
them). This module imports nothing from the rest of the system but
:mod:`repro.errors`.

A PDS contribution is one slot of a :class:`ContributionBag` (a whole
collection shard in columns); one slot read on its own is an
:class:`EncryptedContribution`:

* ``blob`` — the authenticated ciphertext of the tuple payload (always
  non-deterministic, so the payload itself never leaks);
* ``group_tag`` — optional *deterministic* encryption of the group value
  (noise-based family: lets the SSI partition by group, leaks frequencies);
* ``bucket_id`` — optional cleartext histogram bucket (histogram family:
  leaks only the coarse bucket).

The payload inside ``blob`` is :data:`PAYLOAD_HEADER` (``pds_id``,
``sequence``, flags, ``value``) followed by the UTF-8 group; the ``FAKE``
flag marks noise tuples that trusted aggregators silently drop after
decryption. The collection and aggregation loops pack and unpack the
header inline; :class:`Payload` with :func:`pack_payload` /
:func:`unpack_payload` is the same layout as a record, for callers that
want one.

The SSI cuts a bag into :class:`Partition` objects, each holding the blobs
one aggregator token opens.

A trusted aggregator's partial travels as an :class:`AggregationOutcome`
around an :class:`Accumulator`; a standing query's change travels as an
:class:`EncryptedDelta`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from itertools import chain

from repro.errors import ProtocolError

#: ``pds_id, sequence, flags, value`` — the fixed head of every payload.
PAYLOAD_HEADER = struct.Struct("<IIBd")

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


@dataclass(slots=True)
class ContributionBag:
    """Collected contributions in columns: the in-memory form end to end.

    A collection shard builds one, a worker ships it back as is, the
    driver concatenates shards into the population's bag, and the SSI
    stores its columns. Per PDS, in population order: ``pds_ids``,
    ``tuple_counts`` (real plus fake) and ``fake_counts``. Per
    contribution, PDS by PDS in sequence order: ``blobs``, and ``tags`` /
    ``buckets`` when the family exposes them (``None`` otherwise).
    """

    pds_ids: list
    tuple_counts: list
    fake_counts: list
    blobs: list
    tags: list | None = None
    buckets: list | None = None

    @classmethod
    def concat(cls, bags: list["ContributionBag"]) -> "ContributionBag":
        """Shards in order, as one bag (the bag itself if there is one)."""
        if len(bags) == 1:
            return bags[0]

        def column(name):
            parts = [getattr(bag, name) for bag in bags]
            if None in parts:
                return None
            return list(chain.from_iterable(parts))

        return cls(*(column(field.name) for field in fields(cls)))

    @classmethod
    def of(cls, contributions: list[EncryptedContribution]) -> "ContributionBag":
        """Loose contributions (one sender's, or one frame's) as a bag."""
        tags = [c.group_tag for c in contributions]
        buckets = [c.bucket_id for c in contributions]
        return cls(
            [], [], [], [c.blob for c in contributions],
            tags if any(tag is not None for tag in tags) else None,
            buckets if any(b is not None for b in buckets) else None,
        )

    def contributions(self) -> list[EncryptedContribution]:
        """Every slot as an :class:`EncryptedContribution` view."""
        count = len(self.blobs)
        return list(
            map(
                EncryptedContribution,
                self.blobs,
                self.tags or [None] * count,
                self.buckets or [None] * count,
            )
        )

    def per_pds(self):
        """``(pds_id, contributions, fake_count)`` views, PDS by PDS."""
        contributions = self.contributions()
        end = 0
        for pds_id, count, fakes in zip(
            self.pds_ids, self.tuple_counts, self.fake_counts
        ):
            start, end = end, end + count
            yield pds_id, contributions[start:end], fakes


@dataclass(frozen=True, slots=True)
class Partition:
    """The blobs one aggregator token opens, and what the SSI cut them on.

    ``group_tag`` or ``bucket_id`` is the tag or bucket every member
    shares; both are ``None`` for a random partition.
    """

    blobs: list
    group_tag: bytes | None = None
    bucket_id: int | None = None

    def contributions(self) -> list[EncryptedContribution]:
        """The members as :class:`EncryptedContribution` views."""
        return [
            EncryptedContribution(blob, self.group_tag, self.bucket_id)
            for blob in self.blobs
        ]


@dataclass(frozen=True)
class Payload:
    """Decrypted content of a contribution (inside a token only)."""

    pds_id: int
    sequence: int
    group: str
    value: float
    fake: bool = False


def pack_payload(payload: Payload) -> bytes:
    return PAYLOAD_HEADER.pack(
        payload.pds_id,
        payload.sequence,
        FLAG_FAKE if payload.fake else 0,
        payload.value,
    ) + payload.group.encode("utf-8")


def unpack_payload(data: bytes) -> Payload:
    if len(data) < PAYLOAD_HEADER.size:
        raise ProtocolError("contribution payload too short")
    pds_id, sequence, flags, value = PAYLOAD_HEADER.unpack_from(data, 0)
    try:
        group = data[PAYLOAD_HEADER.size :].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("contribution group is not valid UTF-8") from exc
    return Payload(pds_id, sequence, group, value, bool(flags & FLAG_FAKE))


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
