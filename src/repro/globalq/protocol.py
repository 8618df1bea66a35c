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
collector, channel accounting, the aggregator retry loop, report assembly —
and the family modules (:mod:`~repro.globalq.secureagg`,
:mod:`~repro.globalq.noise`, :mod:`~repro.globalq.histogram`) contribute only
their collection options, wire form and partition rule. The asynchronous
driver (:mod:`repro.globalq.async_protocol`) runs the same family objects
over a simulated network. This module also provides the fleet key material,
the PDS node, the trusted aggregator and the report type.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from repro.crypto.symmetric import DeterministicCipher, NondeterministicCipher
from repro.errors import IntegrityError
from repro.globalq.messages import (
    EncryptedContribution,
    pack_fields,
    unpack_fields,
)
from repro.globalq.parallel import (
    DEFAULT_SHARD_SIZE,
    NodeContributions,
    ShardedCollector,
    WorkerPool,
    aggregate_partitions,
)
from repro.globalq.queries import Accumulator, AggregateQuery, local_contributions
from repro.globalq.ssi import HONEST, SsiBehavior, SupportingServerInfrastructure
from repro.smc.parties import Channel
from repro.workloads.people import PersonRecord


class TokenFleet:
    """Key material shared by every genuine token of the population.

    The tutorial's trust model: tokens are mutually trusted, certified
    hardware, so they can share symmetric keys that the SSI never sees.
    """

    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(seed)
        master = rng.getrandbits(256).to_bytes(32, "little")
        #: Key-derivation seed: a fleet rebuilt from the same seed (e.g.
        #: inside a collection worker process) holds identical keys.
        self.seed = seed
        self.deterministic = DeterministicCipher(master + b"group")
        #: Keyed once: every :meth:`payload_cipher` shares these HMAC states.
        self._payload = NondeterministicCipher(master + b"payload")
        self._rng = rng

    def payload_cipher(self, seed: int | None = None) -> NondeterministicCipher:
        """A non-deterministic cipher bound to the fleet payload key.

        ``seed`` pins the nonce stream (sharded collection derives one seed
        per PDS so results do not depend on worker scheduling, and
        decrypt-only holders pass a constant); when absent the fleet's own
        rng supplies it. Only the nonce source is per call — the key
        schedule was paid in ``__init__``.
        """
        if seed is None:
            seed = self._rng.getrandbits(64)
        return self._payload.with_nonces(random.Random(seed))

    def group_tagger(self):
        """A memoising ``group -> deterministic tag`` function.

        A query has few distinct groups and a shard many contributions, so
        each caller (one collection shard) computes every SIV once.
        """
        encrypt = self.deterministic.encrypt
        return functools.cache(lambda group: encrypt(group.encode("utf-8")))


def encrypt_contributions(
    pds_id: int,
    real: list[tuple[str, float]],
    fakes: list[tuple[str, float]],
    cipher: NondeterministicCipher,
    tag_of=None,
    bucketizer=None,
) -> list[EncryptedContribution]:
    """One PDS's ``real`` tuples then its ``fakes``, in sequence order."""
    encrypt = cipher.encrypt
    out = []
    sequence = 0
    for batch, fake in ((real, False), (fakes, True)):
        for group, value in batch:
            out.append(
                EncryptedContribution(
                    encrypt(pack_fields(pds_id, sequence, group, value, fake)),
                    tag_of(group) if tag_of is not None else None,
                    bucketizer(group) if bucketizer is not None else None,
                )
            )
            sequence += 1
    return out


@dataclass
class PdsNode:
    """One citizen's PDS as seen by the global layer."""

    pds_id: int
    records: list[PersonRecord]

    def contributions(
        self,
        query: AggregateQuery,
        fleet: TokenFleet,
        with_group_tag: bool = False,
        bucketizer=None,
        fakes: list[tuple[str, float]] | None = None,
        cipher_seed: int | None = None,
    ) -> list[EncryptedContribution]:
        """Encrypt this PDS's (filtered) tuples, plus any planned fakes."""
        return encrypt_contributions(
            self.pds_id,
            local_contributions(self.records, query),
            fakes or (),
            fleet.payload_cipher(cipher_seed),
            fleet.group_tagger() if with_group_tag else None,
            bucketizer,
        )


@dataclass
class AggregationOutcome:
    """What one trusted aggregator produced from one partition."""

    accumulator: Accumulator
    real_tuples: int
    fake_tuples: int
    integrity_failures: int
    seen_pds_sequences: set


class TrustedAggregator:
    """A connected token decrypting and folding one partition."""

    def __init__(self, fleet: TokenFleet) -> None:
        self.fleet = fleet
        # Decrypt-only: a fixed nonce seed keeps the fleet's shared rng
        # untouched, so concurrent served queries cannot perturb it.
        self._cipher = fleet.payload_cipher(seed=0)

    def aggregate(
        self, partition: list[EncryptedContribution]
    ) -> AggregationOutcome:
        accumulator = Accumulator()
        real = fakes = failures = 0
        seen: set[tuple[int, int]] = set()
        decrypt = self._cipher.decrypt
        for contribution in partition:
            try:
                pds_id, sequence, group, value, fake = unpack_fields(
                    decrypt(contribution.blob)
                )
            except IntegrityError:
                failures += 1  # forged or corrupted: detected, discarded
                continue
            identity = (pds_id, sequence)
            if identity in seen:
                continue  # replay inside this partition: skip silently
            seen.add(identity)
            if fake:
                fakes += 1
                continue
            real += 1
            accumulator.add(group, value)
        return AggregationOutcome(
            accumulator=accumulator,
            real_tuples=real,
            fake_tuples=fakes,
            integrity_failures=failures,
            seen_pds_sequences=seen,
        )


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
    :meth:`ProtocolFamily.run` (which adds channel accounting) and
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
    :meth:`wire_form`) and how the SSI may therefore partition
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

    def wire_form(self, contribution: EncryptedContribution) -> bytes:
        """What one contribution costs on the PDS → SSI link."""
        return contribution.blob

    def partition(
        self, ssi: SupportingServerInfrastructure
    ) -> list[list[EncryptedContribution]]:
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
    ) -> list[NodeContributions]:
        """Phase 1 as every driver runs it: deterministic shards."""
        return ShardedCollector(
            self.workers, self.shard_size, self.collection_seed,
            pool=pool or self.pool,
        ).collect(nodes, query, self.fleet, **self.collection_options())

    def aggregate(
        self,
        partitions: list[list[EncryptedContribution]],
        pool: WorkerPool | None = None,
    ) -> list[AggregationOutcome]:
        """Phase 3's token work: one outcome per partition, in order.

        Inline, each partition is decrypted by a token keyed from this
        fleet; on a pool, runs of consecutive partitions go to workers
        that key the fleet from its seed and do exactly the same.
        """
        pool = pool or self.pool
        if pool is None:
            return [
                TrustedAggregator(self.fleet).aggregate(partition)
                for partition in partitions
            ]
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
        channel = Channel()
        ssi = SupportingServerInfrastructure(self.ssi_behavior, self.rng)

        # Phase 1: collection — every PDS uploads what its family exposes.
        tuples_sent = fakes_sent = 0
        for item in self.collect(nodes, query, pool):
            tuples_sent += len(item.contributions)
            fakes_sent += item.fake_count
            channel.send_batch(
                f"pds-{item.pds_id}", "ssi",
                [self.wire_form(c) for c in item.contributions],
            )
            ssi.collect(item.contributions)

        # Phase 2: partitioning — the family *is* this rule.
        partitions = self.partition(ssi)

        # Phase 3: one trusted token per partition, then the querier merge.
        # A token may disconnect mid-partition; the SSI reassigns the same
        # ciphertext partition to another token (pure retry: aggregation is
        # deterministic and side-effect free until the partial is returned).
        # The SSI's hand-offs — channel accounting and the disconnect draws
        # — happen here, in partition order, wherever the tokens then run.
        retries = 0
        for index, partition in enumerate(partitions):
            blobs = [contribution.blob for contribution in partition]
            while True:
                channel.send_batch("ssi", f"aggregator-{index}", blobs)
                if self.rng.random() >= self.aggregator_failure_rate:
                    break
                retries += 1
                if retries > 100 * max(1, len(partitions)):
                    raise RuntimeError("no connected tokens available")
        outcomes = self.aggregate(partitions, pool)
        decryptions = sum(len(partition) for partition in partitions)
        for index, outcome in enumerate(outcomes):
            channel.send(
                f"aggregator-{index}",
                "querier",
                outcome.accumulator.serialized_size(),
            )
        result, failures, duplicates = merge_outcomes(outcomes, query)
        return ProtocolReport(
            result=result,
            protocol=self.label,
            num_pds=len(nodes),
            tuples_sent=tuples_sent,
            fake_tuples_sent=fakes_sent,
            token_decryptions=decryptions,
            token_invocations=len(partitions) + 1,
            comm_bytes=channel.stats.bytes,
            comm_messages=channel.stats.messages,
            integrity_failures=failures,
            duplicates_detected=duplicates,
            aggregator_retries=retries,
            ssi_tag_histogram=dict(ssi.observations.group_tag_counts),
            ssi_bucket_histogram=dict(ssi.observations.bucket_counts),
        )
