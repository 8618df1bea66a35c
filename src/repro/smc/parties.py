"""Party and channel abstractions with communication accounting.

Part III compares protocol families by what they *cost*: messages exchanged,
bytes moved, modular exponentiations performed. Every protocol in
:mod:`repro.smc` and :mod:`repro.globalq` routes its traffic through a
:class:`Channel`, so benches read totals off one object instead of
instrumenting each protocol ad hoc.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


def payload_bytes(payload) -> int:
    """Serialized size estimate of a protocol message payload.

    Supports ``None`` (absence of payload: 0 bytes), ``bytes``/``str``,
    ``bool``/``int``/``float``, containers, and dataclass instances (sized
    as the sum of their fields — e.g. an ``EncryptedContribution`` with an
    optional group tag).
    """
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, (payload.bit_length() + 7) // 8)
    if isinstance(payload, float):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(payload_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            payload_bytes(key) + payload_bytes(value)
            for key, value in payload.items()
        )
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return sum(
            payload_bytes(getattr(payload, f.name))
            for f in dataclasses.fields(payload)
        )
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


@dataclass
class CommStats:
    """Aggregate traffic counters of one channel."""

    messages: int = 0
    bytes: int = 0
    by_edge: dict = field(default_factory=dict)

    def record(
        self, sender: str, receiver: str, size: int, messages: int = 1
    ) -> None:
        self.messages += messages
        self.bytes += size
        edge = (sender, receiver)
        self.by_edge[edge] = self.by_edge.get(edge, 0) + size


class Channel:
    """An instrumented message fabric between named parties."""

    def __init__(self, keep_transcript: bool = False) -> None:
        self.stats = CommStats()
        self.keep_transcript = keep_transcript
        self.transcript: list[tuple[str, str, object]] = []

    def send(self, sender: str, receiver: str, payload):
        """Account one message and hand the payload to the caller.

        Protocols are written in direct style (the 'receiver' code is the
        next statement), so ``send`` returns the payload for convenience.
        """
        self.stats.record(sender, receiver, payload_bytes(payload))
        if self.keep_transcript:
            self.transcript.append((sender, receiver, payload))
        return payload

    def send_batch(self, sender: str, receiver: str, payloads: list) -> None:
        """Account ``payloads`` as that many messages on one edge at once.

        Totals equal one :meth:`send` per payload; an empty batch records
        nothing, as zero sends would.
        """
        if not payloads:
            return
        self.stats.record(
            sender, receiver,
            sum(map(payload_bytes, payloads)), len(payloads),
        )
        if self.keep_transcript:
            self.transcript.extend(
                (sender, receiver, payload) for payload in payloads
            )


@dataclass
class CryptoOps:
    """Counts of expensive cryptographic operations in one protocol run."""

    modexps: int = 0
    symmetric_ops: int = 0

    def __add__(self, other: "CryptoOps") -> "CryptoOps":
        return CryptoOps(
            modexps=self.modexps + other.modexps,
            symmetric_ops=self.symmetric_ops + other.symmetric_ops,
        )
