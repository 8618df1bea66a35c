"""`repro.net` — an asyncio simulated network for the global protocols.

The tutorial's Part III runs on an asymmetric architecture: millions of
intermittently connected secure tokens talking to an always-on, untrusted
SSI. This package models the *communication* half of that claim — per-link
latency/jitter/loss (:class:`MessageBus`, :class:`LinkProfile`), bounded
mailboxes with backpressure (:class:`Endpoint`), retry with exponential
backoff (:func:`with_retries`), byte-level framing (:mod:`repro.net.codec`)
of the protocols' wire types (:mod:`repro.net.messages`), node churn
scheduling (:class:`NodeRuntime`, :class:`ChurnModel`) and traffic
accounting — the synchronous protocols' :class:`~repro.net.metrics.Channel`
and the network's :class:`NetMetrics`, which subsumes it.

:mod:`repro.globalq.async_protocol` drives the three [TNP14] protocol
families over this runtime.
"""

from repro.errors import NetError, NetTimeout, RetriesExhausted
from repro.net.bus import LinkProfile, MessageBus
from repro.net.codec import (
    KIND_ACK,
    KIND_ASSIGN,
    KIND_CLAIM,
    KIND_CONTRIB,
    KIND_DONE,
    KIND_FIN,
    KIND_PARTIAL,
    KIND_PLAN,
    KIND_WAIT,
    Frame,
    decode_contribution,
    decode_frame,
    decode_outcome,
    decode_partition,
    encode_contribution,
    encode_frame,
    encode_outcome,
    encode_partition,
)
from repro.net.endpoint import Endpoint
from repro.net.metrics import LatencyStats, NetMetrics
from repro.net.retry import RetryPolicy, with_retries
from repro.net.runtime import ChurnModel, NodeRuntime

__all__ = [
    "KIND_ACK",
    "KIND_ASSIGN",
    "KIND_CLAIM",
    "KIND_CONTRIB",
    "KIND_DONE",
    "KIND_FIN",
    "KIND_PARTIAL",
    "KIND_PLAN",
    "KIND_WAIT",
    "ChurnModel",
    "Endpoint",
    "Frame",
    "LatencyStats",
    "LinkProfile",
    "MessageBus",
    "NetError",
    "NetMetrics",
    "NetTimeout",
    "NodeRuntime",
    "RetriesExhausted",
    "RetryPolicy",
    "decode_contribution",
    "decode_frame",
    "decode_outcome",
    "decode_partition",
    "encode_contribution",
    "encode_frame",
    "encode_outcome",
    "encode_partition",
    "with_retries",
]
