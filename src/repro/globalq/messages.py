"""Wire formats of the [TNP14]-style global protocols.

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
