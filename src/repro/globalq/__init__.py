"""Secure global computation over the asymmetric PDS architecture (Part III).

The [TNP14] protocol stack: citizens' tokens answer global SQL aggregates
through an untrusted Supporting Server Infrastructure. Three protocol
families trade leak against cost (secure-aggregation, noise-based,
histogram-based), an honest-but-curious SSI mounts frequency analysis, and a
weakly malicious one is caught by authentication, replay detection and
participation audits.
"""

from repro.globalq.async_protocol import AsyncGlobalQuery
from repro.globalq.attacks import AttackResult, frequency_analysis, histogram_flatness
from repro.globalq.continuous import (
    DeltaEmitter,
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
from repro.globalq.parallel import (
    DEFAULT_SHARD_SIZE,
    ShardedCollector,
    collect_encrypted_sum,
    shard_seed,
    shard_slices,
)
from repro.globalq.noise import NoiseProtocol
from repro.globalq.protocol import ProtocolFamily, ProtocolReport
from repro.globalq.queries import (
    COMPLEMENTARY_NOISE,
    GLOBAL_GROUP,
    NO_NOISE,
    WHITE_NOISE,
    AggregateQuery,
    NoisePlan,
    local_contributions,
    plaintext_answer,
    plan_fakes,
    record_matches,
)
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.ssi import (
    HONEST,
    SsiBehavior,
    SupportingServerInfrastructure,
)
from repro.globalq.tokens import PdsNode, TokenFleet, TrustedAggregator
from repro.globalq.verification import (
    AuditResult,
    detection_probability,
    participating_pds_ids,
    participation_audit,
)

__all__ = [
    "COMPLEMENTARY_NOISE",
    "DEFAULT_SHARD_SIZE",
    "GLOBAL_GROUP",
    "HONEST",
    "NO_NOISE",
    "WHITE_NOISE",
    "AsyncGlobalQuery",
    "AggregateQuery",
    "AttackResult",
    "AuditResult",
    "DeltaEmitter",
    "DistributedGraph",
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
    "participating_pds_ids",
    "participation_audit",
    "plaintext_answer",
    "plan_fakes",
    "private_reachability",
    "record_matches",
    "shard_seed",
    "shard_slices",
]
