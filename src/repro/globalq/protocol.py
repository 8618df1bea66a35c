"""The one driver of the [TNP14] protocol families.

All three families are the same three-phase skeleton the tutorial draws:

1. **Collection** — each PDS evaluates the WHERE locally and pushes
   encrypted contributions to the SSI;
2. **Partitioning** — the SSI splits the ciphertext bag into partitions
   (randomly, by deterministic tag, or by histogram bucket — the choice *is*
   the protocol family);
3. **Aggregation** — connected tokens (any citizen's token can serve) each
   decrypt one partition inside their secure perimeter, drop fakes, verify
   authenticity, partially aggregate, and the querier's token merges the
   partials into the final answer.

A family is therefore *data over one driver*: what a contribution exposes
next to its encrypted blob (nothing / a deterministic group tag plus fakes /
a cleartext bucket id) and hence how the SSI may partition.
:class:`ProtocolFamily` owns the skeleton — collection through the sharded
collector, traffic accounting, the aggregator retry loop, report assembly —
and the family modules (:mod:`~repro.globalq.secureagg`,
:mod:`~repro.globalq.noise`, :mod:`~repro.globalq.histogram`) contribute only
their collection options, wire size and partition rule. One
:class:`~repro.net.messages.ContributionBag` travels from the PDSs through
the SSI to the tokens, and each phase's traffic is accounted in one record
of its exact byte and message totals. The asynchronous
driver (:mod:`repro.globalq.async_protocol`) runs the same family objects
over a simulated network. This module also provides the report type; the
fleet key material, the PDS node and the trusted aggregator are the token
side, in :mod:`repro.globalq.tokens`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.globalq.parallel import (
    DEFAULT_SHARD_SIZE,
    ShardedCollector,
    WorkerPool,
    aggregate_partitions,
)
from repro.globalq.queries import AggregateQuery
from repro.globalq.ssi import HONEST, SsiBehavior, SupportingServerInfrastructure
from repro.globalq.tokens import PdsNode, TokenFleet, TrustedAggregator
from repro.net.messages import (
    Accumulator,
    AggregationOutcome,
    ContributionBag,
    Partition,
)
from repro.net.metrics import CommStats, payload_bytes


@dataclass
class ProtocolReport:
    """Result and full cost/leak profile of one protocol run."""

    result: dict[str, float]
    protocol: str
    num_pds: int
    tuples_sent: int
    fake_tuples_sent: int
    token_decryptions: int
    token_invocations: int
    comm_bytes: int
    comm_messages: int
    integrity_failures: int
    duplicates_detected: int = 0
    aggregator_retries: int = 0
    ssi_tag_histogram: dict = field(default_factory=dict)
    ssi_bucket_histogram: dict = field(default_factory=dict)
    #: Filled by the asynchronous driver: the run's NetMetrics (message
    #: counts, drops, in-flight and per-phase latency). None on sync runs.
    net_metrics: object | None = None

    @property
    def cheating_detected(self) -> bool:
        """Whether the covert adversary was caught (forgery or replay)."""
        return self.integrity_failures > 0 or self.duplicates_detected > 0


def merge_outcomes(
    outcomes: list[AggregationOutcome],
    query: AggregateQuery,
) -> tuple[dict[str, float], int, int]:
    """Merge partial aggregates without any transport accounting.

    Cross-partition ``(pds_id, sequence)`` collisions flag a replaying SSI —
    the covert-adversary countermeasure is *detection*, which is why the
    report carries ``duplicates_detected`` rather than a corrected result.
    Returns ``(result, integrity_failures, duplicates_detected)``. Shared by
    :meth:`ProtocolFamily.run` (which adds traffic accounting) and
    :mod:`repro.globalq.async_protocol` (whose partials already crossed the
    simulated network).
    """
    merged = Accumulator()
    failures = 0
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    for outcome in outcomes:
        failures += outcome.integrity_failures
        overlap = seen & outcome.seen_pds_sequences
        duplicates += len(overlap)
        seen |= outcome.seen_pds_sequences
        merged.merge(outcome.accumulator)
    return merged.finalize(query), failures, duplicates


class ProtocolFamily:
    """One [TNP14] family: collection options + partition rule, one driver.

    Subclasses say what a contribution exposes (:meth:`collection_options`,
    :meth:`wire_bytes`) and how the SSI may therefore partition
    (:meth:`partition`); :meth:`run` is the only place the
    collection → partitioning → aggregation → report sequence is written.
    ``workers``/``pool`` only choose where the collection shards and the
    aggregator tokens run (``1`` = inline, ``>1`` or a persistent
    :class:`WorkerPool` = worker processes); shard geometry and seeds never
    depend on them, so every setting produces bit-identical contributions
    and an identical report.
    """

    name = ""

    def __init__(
        self,
        fleet: TokenFleet,
        ssi_behavior: SsiBehavior = HONEST,
        rng: random.Random | None = None,
        aggregator_failure_rate: float = 0.0,
        workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
        collection_seed: int = 0,
        pool: WorkerPool | None = None,
    ) -> None:
        if not 0.0 <= aggregator_failure_rate < 1.0:
            raise ValueError("failure rate must be in [0, 1)")
        self.fleet = fleet
        self.ssi_behavior = ssi_behavior
        self.rng = rng or random.Random(0)
        #: Probability that an assigned token disconnects before answering.
        #: Tokens are "low powered, highly disconnected": the SSI simply
        #: reassigns the (ciphertext) partition to another connected token.
        self.aggregator_failure_rate = aggregator_failure_rate
        self.workers = workers
        self.shard_size = shard_size
        self.collection_seed = collection_seed
        self.pool = pool

    # ------------------------------------------------------------------
    # What a family is
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """The ``ProtocolReport.protocol`` string of a run."""
        return self.name

    def collection_options(self) -> dict:
        """``ShardedCollector.collect`` options: what contributions expose."""
        return {}

    def wire_bytes(self, bag: ContributionBag) -> int:
        """What ``bag`` costs on the PDS → SSI link: its blobs, by default."""
        return sum(map(len, bag.blobs))

    def partition(self, ssi: SupportingServerInfrastructure) -> list[Partition]:
        """The family's ``ssi.partition_*`` rule, as an ordered list."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The driver
    # ------------------------------------------------------------------
    def collect(
        self,
        nodes: list[PdsNode],
        query: AggregateQuery,
        pool: WorkerPool | None = None,
    ) -> ContributionBag:
        """Phase 1 as every driver runs it: deterministic shards."""
        return ShardedCollector(
            self.workers, self.shard_size, self.collection_seed,
            pool=pool or self.pool,
        ).collect(nodes, query, self.fleet, **self.collection_options())

    def aggregate(
        self,
        partitions: list[Partition],
        pool: WorkerPool | None = None,
    ) -> list[AggregationOutcome]:
        """Phase 3's token work: one outcome per partition, in order.

        Inline, each partition is opened in one batch by a token keyed from
        this fleet; on a pool, runs of consecutive partitions go to workers
        that key the fleet from its seed and do exactly the same.
        """
        pool = pool or self.pool
        if pool is None:
            aggregate = TrustedAggregator(self.fleet).aggregate
            return [aggregate(partition.blobs) for partition in partitions]
        return aggregate_partitions(
            partitions, self.fleet.seed, self.shard_size, pool
        )

    def run(
        self, nodes: list[PdsNode], query: AggregateQuery
    ) -> ProtocolReport:
        """The three phases; every cost lands in the report."""
        if self.pool is None and self.workers > 1:
            # One pool for both sharded phases of this run.
            with WorkerPool(self.workers) as pool:
                return self._run(nodes, query, pool)
        return self._run(nodes, query, self.pool)

    def _run(
        self,
        nodes: list[PdsNode],
        query: AggregateQuery,
        pool: WorkerPool | None,
    ) -> ProtocolReport:
        traffic = CommStats()
        ssi = SupportingServerInfrastructure(self.ssi_behavior, self.rng)

        # Phase 1: collection — every PDS uploads what its family exposes,
        # one message per contribution.
        bag = self.collect(nodes, query, pool)
        traffic.record("pds", "ssi", self.wire_bytes(bag), len(bag.blobs))
        ssi.collect(bag)

        # Phase 2: partitioning — the family *is* this rule.
        partitions = self.partition(ssi)

        # Phase 3: one trusted token per partition, then the querier merge.
        # A token may disconnect mid-partition; the SSI reassigns the same
        # ciphertext partition to another token (pure retry: aggregation is
        # deterministic and side-effect free until the partial is returned),
        # and every hand-off is traffic again. The SSI's disconnect draws
        # happen here, in partition order, wherever the tokens then run.
        retries = hand_off_bytes = hand_off_blobs = 0
        for partition in partitions:
            hand_offs = 1
            while self.rng.random() < self.aggregator_failure_rate:
                hand_offs += 1
                retries += 1
                if retries > 100 * max(1, len(partitions)):
                    raise RuntimeError("no connected tokens available")
            hand_off_bytes += hand_offs * sum(map(len, partition.blobs))
            hand_off_blobs += hand_offs * len(partition.blobs)
        traffic.record("ssi", "aggregator", hand_off_bytes, hand_off_blobs)
        outcomes = self.aggregate(partitions, pool)
        traffic.record(
            "aggregator", "querier",
            sum(
                payload_bytes(outcome.accumulator.serialized_size())
                for outcome in outcomes
            ),
            len(outcomes),
        )
        result, failures, duplicates = merge_outcomes(outcomes, query)
        return ProtocolReport(
            result=result,
            protocol=self.label,
            num_pds=len(nodes),
            tuples_sent=len(bag.blobs),
            fake_tuples_sent=sum(bag.fake_counts),
            token_decryptions=sum(len(p.blobs) for p in partitions),
            token_invocations=len(partitions) + 1,
            comm_bytes=traffic.bytes,
            comm_messages=traffic.messages,
            integrity_failures=failures,
            duplicates_detected=duplicates,
            aggregator_retries=retries,
            ssi_tag_histogram=dict(ssi.observations.group_tag_counts),
            ssi_bucket_histogram=dict(ssi.observations.bucket_counts),
        )
