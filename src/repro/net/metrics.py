"""Traffic accounting: synchronous channels and the simulated network.

Part III compares protocol families by what they *cost*. Every synchronous
protocol in :mod:`repro.smc` and :mod:`repro.globalq` routes its traffic
through a :class:`Channel`, so benches read message and byte totals off
one :class:`CommStats` instead of instrumenting each protocol ad hoc.

:class:`NetMetrics` subsumes that accounting for the asynchronous runtime:
every *delivered* frame is recorded into an embedded ``CommStats`` with
the same ``(sender, receiver)`` edge keys, so benches that read
``channel.stats`` off a synchronous run can read ``metrics.comm`` off an
asynchronous one and compare like with like. On top of that it tracks what
only a real network has: frames dropped (and why), in-flight message
histograms, and per-phase simulated latency.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
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
class LatencyStats:
    """Streaming summary of simulated one-way latencies (milliseconds)."""

    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0

    def add(self, latency_ms: float) -> None:
        self.count += 1
        self.total_ms += latency_ms
        self.max_ms = max(self.max_ms, latency_ms)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


def _inflight_bucket(inflight: int) -> int:
    """Power-of-two histogram bucket (0, 1, 2, 4, 8, ...)."""
    bucket = 1
    while bucket < inflight:
        bucket *= 2
    return bucket if inflight else 0


@dataclass
class NetMetrics:
    """Everything the bus measures about one run."""

    comm: CommStats = field(default_factory=CommStats)
    frames_sent: int = 0
    frames_delivered: int = 0
    bytes_sent: int = 0
    sent_by_kind: Counter = field(default_factory=Counter)
    drops: Counter = field(default_factory=Counter)  # reason -> count
    dropped_bytes: int = 0
    #: Messages abandoned by their sender after exhausting every retry —
    #: these never reach :meth:`on_deliver`, so without this counter they
    #: would vanish from the latency picture entirely.
    dropped_after_retry: int = 0
    retry_exhausted_by: Counter = field(default_factory=Counter)
    inflight: int = 0
    max_inflight: int = 0
    inflight_histogram: Counter = field(default_factory=Counter)
    phase: str = "idle"
    latency_by_phase: dict = field(default_factory=dict)

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def on_send(self, kind_name: str, nbytes: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += nbytes
        self.sent_by_kind[kind_name] += 1
        self.inflight += 1
        self.max_inflight = max(self.max_inflight, self.inflight)
        self.inflight_histogram[_inflight_bucket(self.inflight)] += 1

    def on_drop(self, reason: str, nbytes: int) -> None:
        self.inflight -= 1
        self.drops[reason] += 1
        self.dropped_bytes += nbytes

    def on_retry_exhausted(self, what: str = "message") -> None:
        """Record a message its sender gave up on after max retries."""
        self.dropped_after_retry += 1
        self.retry_exhausted_by[what] += 1

    def on_deliver(
        self, sender: str, receiver: str, nbytes: int, latency_ms: float
    ) -> None:
        self.inflight -= 1
        self.frames_delivered += 1
        self.comm.record(sender, receiver, nbytes)
        self.latency_by_phase.setdefault(self.phase, LatencyStats()).add(
            latency_ms
        )

    @property
    def frames_dropped(self) -> int:
        return sum(self.drops.values())

    def merge_channel_stats(self, stats: CommStats) -> None:
        """Fold a synchronous :class:`CommStats` into this run's totals.

        Lets hybrid drivers (e.g. a local SMC step inside an async global
        query) account in one place.
        """
        self.comm.messages += stats.messages
        self.comm.bytes += stats.bytes
        for edge, size in stats.by_edge.items():
            self.comm.by_edge[edge] = self.comm.by_edge.get(edge, 0) + size

    def summary(self) -> dict:
        """Flat dict for bench tables and logs."""
        return {
            "frames_sent": self.frames_sent,
            "frames_delivered": self.frames_delivered,
            "frames_dropped": self.frames_dropped,
            "dropped_after_retry": self.dropped_after_retry,
            "retry_exhausted_by": dict(self.retry_exhausted_by),
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.comm.bytes,
            "max_inflight": self.max_inflight,
            "drop_reasons": dict(self.drops),
            "latency_ms_by_phase": {
                phase: round(stats.mean_ms, 3)
                for phase, stats in self.latency_by_phase.items()
            },
        }
