"""Secure global computation over the asymmetric PDS architecture (Part III).

The [TNP14] protocol stack: citizens' tokens answer global SQL aggregates
through an untrusted Supporting Server Infrastructure. Three protocol
families trade leak against cost (secure-aggregation, noise-based,
histogram-based), an honest-but-curious SSI mounts frequency analysis, and a
weakly malicious one is caught by authentication, replay detection and
participation audits.
"""

from repro.globalq.attacks import AttackResult, frequency_analysis, histogram_flatness
from repro.globalq.continuous import (
    DeltaEmitter,
    EncryptedDelta,
    LiveWindow,
    StandingAggregate,
    StandingQuery,
    StandingView,
    WindowSpec,
    WindowUpdate,
)
from repro.globalq.graphq import (
    DistributedGraph,
    GraphQueryReport,
    centralized_reachability,
    private_reachability,
)
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.messages import (
    EncryptedContribution,
    Payload,
    pack_payload,
    unpack_payload,
)
from repro.globalq.parallel import (
    DEFAULT_SHARD_SIZE,
    ShardedCollector,
    collect_encrypted_sum,
    shard_seed,
    shard_slices,
)
from repro.globalq.noise import (
    COMPLEMENTARY_NOISE,
    NO_NOISE,
    WHITE_NOISE,
    NoisePlan,
    NoiseProtocol,
    plan_fakes,
)
from repro.globalq.protocol import (
    AggregationOutcome,
    PdsNode,
    ProtocolFamily,
    ProtocolReport,
    TokenFleet,
    TrustedAggregator,
)
from repro.globalq.queries import (
    GLOBAL_GROUP,
    Accumulator,
    AggregateQuery,
    local_contributions,
    plaintext_answer,
    record_matches,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.ssi import (
    HONEST,
    SsiBehavior,
    SupportingServerInfrastructure,
)
from repro.globalq.verification import (
    AuditResult,
    detection_probability,
    participating_pds_ids,
    participation_audit,
)

# The asyncio driver is resolved lazily (PEP 562): async_protocol imports
# repro.net.bus, while repro.net.metrics imports repro.smc (whose package
# import reaches back here through secure_sum → globalq.parallel). Importing
# it eagerly would close that loop into a genuine cycle; deferring it keeps
# `from repro.globalq import AsyncGlobalQuery` working from any entry point.
def __getattr__(name: str):
    if name == "AsyncGlobalQuery":
        from repro.globalq.async_protocol import AsyncGlobalQuery

        return AsyncGlobalQuery
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "COMPLEMENTARY_NOISE",
    "DEFAULT_SHARD_SIZE",
    "GLOBAL_GROUP",
    "HONEST",
    "NO_NOISE",
    "WHITE_NOISE",
    "Accumulator",
    "AsyncGlobalQuery",
    "AggregateQuery",
    "AggregationOutcome",
    "AttackResult",
    "AuditResult",
    "DeltaEmitter",
    "DistributedGraph",
    "EncryptedContribution",
    "EncryptedDelta",
    "GraphQueryReport",
    "EquiDepthBucketizer",
    "LiveWindow",
    "StandingAggregate",
    "StandingQuery",
    "StandingView",
    "WindowSpec",
    "WindowUpdate",
    "HistogramProtocol",
    "NoisePlan",
    "NoiseProtocol",
    "Payload",
    "PdsNode",
    "ProtocolFamily",
    "ProtocolReport",
    "SecureAggregationProtocol",
    "ShardedCollector",
    "SsiBehavior",
    "SupportingServerInfrastructure",
    "TokenFleet",
    "TrustedAggregator",
    "centralized_reachability",
    "collect_encrypted_sum",
    "detection_probability",
    "frequency_analysis",
    "histogram_flatness",
    "local_contributions",
    "pack_payload",
    "participating_pds_ids",
    "participation_audit",
    "plaintext_answer",
    "plan_fakes",
    "private_reachability",
    "record_matches",
    "shard_seed",
    "shard_slices",
    "unpack_payload",
]
