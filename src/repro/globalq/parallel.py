"""Sharded parallel execution of the [TNP14] collection and aggregation phases.

Both expensive phases of a global query are parallel by construction —
every PDS encrypts its own contributions with fleet-wide keys, and any
connected token can decrypt one partition. This module is their one
execution path: every driver (synchronous, asynchronous, served) collects
through :class:`ShardedCollector`, which may fan shards out over a process
pool without giving up reproducibility:

* the population is cut into fixed-size **shards** (shard geometry never
  depends on the worker count);
* each shard derives its randomness from a **deterministic shard seed**
  (SHA-256 of ``base_seed || shard index``), and every PDS inside a shard
  draws its fake plan and cipher-nonce seed from the shard stream in node
  order — so the produced ciphertexts are bit-identical whether the shard
  runs in-process, in any worker, or in any order;
* workers rebuild the :class:`~repro.globalq.tokens.TokenFleet` from its
  key-derivation seed, so no key material crosses the process boundary
  inside live objects.

``workers=1`` runs the very same shard function inline (no pool, no
pickling), which is what makes ``parallel == serial`` an *exact* equality
the tests and bench E23 assert, not an approximation: ``workers`` and
``pool`` only choose *where* shards run, never what they produce.

**What crosses the process boundary.** Pickling an object graph costs a
reduce call and a class lookup per object, on both sides; at 10 000 PDSs
that cost about as much as the encryption it bought. So a task that goes to a pool
travels as flat data, and :func:`run_shards` is the only place that
conversion happens:

* *to a collection worker*: a :class:`CollectTask` whose rows are
  ``(pds_id, [attribute dict, ...])`` — no ``PdsNode``, no
  ``PersonRecord`` (:func:`pack_collect_task`);
* *from a collection worker*: one tuple of arrays and byte strings per
  shard — pds ids, per-node tuple and fake counts, blob lengths, the
  joined blobs, and the distinct tags / bucket ids with one index per
  contribution (:func:`pack_contributions`), which the submitter turns
  back into :class:`NodeContributions` (:func:`unpack_contributions`);
* *to an aggregation worker*: an :class:`AggregateTask` — the fleet seed,
  the sizes of a run of consecutive partitions, blob lengths and the
  joined blobs;
* *from an aggregation worker*: per-partition group names, sums, counts,
  the three tallies and the seen ``(pds_id, sequence)`` pairs as flat
  arrays (:func:`pack_outcomes`), turned back into
  :class:`~repro.net.messages.AggregationOutcome` objects
  (:func:`unpack_outcomes`).

An inline run constructs none of this: it builds and returns the same
objects it hands to the SSI, and aggregates each partition with the
caller's own keyed fleet.

The same drain drives the Paillier secure-sum collection
(:func:`collect_encrypted_sum`): each shard encrypts its sites through a
shard-seeded :class:`~repro.crypto.fastexp.BlindingPool` and returns one
partial homomorphic aggregate for the SSI to merge.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import chain

from repro import obs
from repro.crypto.fastexp import count_modexp
from repro.crypto.paillier import PaillierPublicKey
from repro.globalq.queries import AggregateQuery, local_contributions, plan_fakes
from repro.globalq.tokens import TokenFleet, TrustedAggregator, encrypt_contributions
from repro.net.messages import Accumulator, AggregationOutcome, EncryptedContribution
from repro.obs import telemetry

#: Nodes per shard. Fixed (never derived from the worker count) so that
#: changing ``workers`` cannot change a single ciphertext.
DEFAULT_SHARD_SIZE = 512


def shard_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit seed of shard ``index`` (scheduling-independent)."""
    digest = hashlib.sha256(f"shard:{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def shard_slices(count: int, shard_size: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` shard bounds over ``count`` items."""
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return [
        (start, min(start + shard_size, count))
        for start in range(0, count, shard_size)
    ]


class WorkerPool:
    """A persistent process pool shared across repeated collections.

    A call with ``workers > 1`` and no pool opens one for its own
    duration — fine for one-shot benches, ruinous for a long-lived query
    service where every query would pay worker start-up again. Pass a
    ``WorkerPool`` to :class:`ShardedCollector`/
    :func:`collect_encrypted_sum` (or the protocol families' ``pool=``
    argument) to keep the workers alive between calls, and call
    :meth:`close` when the service shuts down. Shard seeds do not depend
    on which pool executes them, so routing through a shared pool cannot
    change a single ciphertext.

    ``submit`` is thread-safe — executor creation is locked and the rest
    delegates to the executor — so concurrent queries of one service can
    share one pool. A worker that dies breaks the executor, not the pool:
    :func:`run_shards` reports it through :meth:`discard_broken`, and the
    next ``submit`` spawns fresh workers.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor (workers spawn lazily on first use)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            return self._executor

    def submit(self, fn, *args):
        return self.executor.submit(fn, *args)

    def discard_broken(self) -> None:
        """Forget the executor after a ``BrokenProcessPool``.

        A ``ProcessPoolExecutor`` that lost a worker fails every later
        submit; dropping it lets the next :meth:`submit` respawn. When
        several queries hit the same death, a late caller may drop a
        healthy successor: its running shards still finish
        (``shutdown(wait=False)`` cancels nothing) and the next submit
        spawns again, so the race costs a respawn, never an answer.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    def close(self) -> None:
        """Shut the workers down; idempotent, and the pool stays closed."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _as_is(value):
    return value


def run_shards(fn, tasks, span_name, describe, workers, pool, wire=None):
    """Run ``fn`` over ``tasks``; yield each result inside its shard span.

    The one drain every sharded phase shares. Shards run inline when
    ``workers == 1`` and no pool was passed; otherwise on ``pool``, or on a
    :class:`WorkerPool` opened for this call. Results come back in shard
    order, each yielded while its ``span_name`` span (inline execution, or
    the wait for the worker's result) is still open, so whatever the
    consumer records per shard is charged to that span.

    ``wire`` is the flat form of a phase whose tasks and results are object
    graphs: ``(pack, remote, unpack)`` — ``pack(task)`` is what a worker
    receives, ``remote`` (a module-level function) runs it there and
    returns flat data, ``unpack`` rebuilds ``fn(task)``'s result from it.
    It is applied only to tasks that go to a pool; inline shards call
    ``fn(task)`` and build nothing else.

    A dead worker surfaces as ``BrokenProcessPool`` from this call; the
    pool is told to drop its executor first, so the next call respawns.
    """
    if pool is None and workers > 1:
        with WorkerPool(workers) as own:
            yield from run_shards(
                fn, tasks, span_name, describe, workers, own, wire
            )
        return

    def shard_span(task):
        return obs.span(span_name, shard=task.shard_index, **describe(task))

    if pool is None:
        for task in tasks:
            with shard_span(task) as span:
                yield telemetry.adopt(fn(task), span)
        return
    pack, remote, unpack = wire or (_as_is, fn, _as_is)
    try:
        futures = [pool.submit(remote, pack(task)) for task in tasks]
        for task, future in zip(tasks, futures):
            with shard_span(task) as span:
                yield unpack(telemetry.adopt(future.result(), span))
    except BrokenProcessPool:
        pool.discard_broken()
        raise


# ----------------------------------------------------------------------
# Symmetric collection ([TNP14] families)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CollectTask:
    """Everything one worker needs to collect one shard (all picklable)."""

    shard_index: int
    shard_seed: int
    fleet_seed: int
    query: AggregateQuery
    #: The shard's nodes in population order: the caller's own ``PdsNode``
    #: objects inline; ``(pds_id, [attribute dict, ...])`` rows once
    #: :attr:`flat` (a dict answers ``get``/``[]``/``in`` like a record).
    nodes: tuple
    with_group_tag: bool = False
    bucketizer: object = None
    noise: object = None
    #: Distributed trace context of the submitting span (or None): lets a
    #: worker process record its shard span for adoption by the submitter.
    trace: object = None
    #: Set by :func:`pack_collect_task`: ``nodes`` holds rows, not objects.
    flat: bool = False


@dataclass(slots=True)
class NodeContributions:
    """One PDS's collection output, tagged for accounting in the driver."""

    pds_id: int
    contributions: list
    fake_count: int


def collect_shard(task: CollectTask):
    """Collect one shard: the unit of work both serial and pooled paths run.

    Per node, in order: (1) plan fakes from the shard stream, (2) draw the
    cipher-nonce seed, (3) encrypt. The fixed draw order is the whole
    determinism contract. The fleet is keyed once per shard; a node costs
    its nonce ``Random`` plus one encryption per tuple, and a group's
    deterministic tag is computed once per shard.

    When the task carries a sampled trace context and runs in a worker
    process, the shard's execution span is recorded locally and shipped
    back wrapped in a :class:`~repro.obs.telemetry.TracedResult` for the
    submitter to adopt; otherwise the plain contribution list returns.
    """
    with telemetry.remote_recording(
        task.trace, f"worker-{os.getpid()}"
    ) as recording:
        with obs.span(
            "globalq.collect.shard.exec",
            shard=task.shard_index,
            nodes=len(task.nodes),
        ):
            fleet = TokenFleet(task.fleet_seed)
            tag_of = fleet.group_tagger() if task.with_group_tag else None
            rng = random.Random(task.shard_seed)
            out = []
            for node in task.nodes:
                if task.flat:
                    pds_id, records = node
                else:
                    pds_id, records = node.pds_id, node.records
                real = local_contributions(records, task.query)
                fakes = (
                    plan_fakes(real, task.noise, rng)
                    if task.noise is not None
                    else ()
                )
                contributions = encrypt_contributions(
                    pds_id,
                    real,
                    fakes,
                    fleet.payload_cipher(rng.getrandbits(64)),
                    tag_of,
                    task.bucketizer,
                )
                out.append(
                    NodeContributions(pds_id, contributions, len(fakes))
                )
    if recording is not None:
        return recording.wrap(out)
    return out


# -- flat forms for the process boundary (see the module docstring) -----
def _join(blobs: list) -> tuple:
    """``blobs`` as ``(lengths, joined)``."""
    return array("I", map(len, blobs)), b"".join(blobs)


def _chunks(sequence, sizes):
    """Consecutive slices of ``sequence``, ``sizes[i]`` items each."""
    end = 0
    for size in sizes:
        start, end = end, end + size
        yield sequence[start:end]


def _flat(result, pack):
    """A worker's ``result`` with its payload packed, traced or not."""
    if isinstance(result, telemetry.TracedResult):
        return replace(result, result=pack(result.result))
    return pack(result)


def pack_collect_task(task: CollectTask) -> CollectTask:
    """``task`` with every node reduced to a row of attribute dicts."""
    return replace(
        task,
        nodes=tuple(
            (node.pds_id, [record.attributes for record in node.records])
            for node in task.nodes
        ),
        flat=True,
    )


def pack_contributions(shard: list) -> tuple:
    """One shard's :class:`NodeContributions` as arrays and byte strings.

    Tags and bucket ids repeat (one per group, one per bucket), so each
    travels as a table of distinct values — ``None`` included — plus one
    index per contribution.
    """
    pds_ids = array("Q")
    tuple_counts = array("I")
    fake_counts = array("I")
    blobs = []
    tags: dict = {}
    tag_ids = array("I")
    buckets: dict = {}
    bucket_ids = array("I")
    for item in shard:
        pds_ids.append(item.pds_id)
        tuple_counts.append(len(item.contributions))
        fake_counts.append(item.fake_count)
        for contribution in item.contributions:
            blobs.append(contribution.blob)
            tag_ids.append(tags.setdefault(contribution.group_tag, len(tags)))
            bucket_ids.append(
                buckets.setdefault(contribution.bucket_id, len(buckets))
            )
    return (
        pds_ids, tuple_counts, fake_counts, *_join(blobs),
        list(tags), tag_ids, list(buckets), bucket_ids,
    )


def unpack_contributions(flat: tuple) -> list:
    """Inverse of :func:`pack_contributions`."""
    (
        pds_ids, tuple_counts, fake_counts, lengths, joined,
        tags, tag_ids, buckets, bucket_ids,
    ) = flat
    contributions = [
        EncryptedContribution(blob, tags[tag], buckets[bucket])
        for blob, tag, bucket in zip(
            _chunks(joined, lengths), tag_ids, bucket_ids
        )
    ]
    return [
        NodeContributions(pds_id, own, fakes)
        for pds_id, own, fakes in zip(
            pds_ids, _chunks(contributions, tuple_counts), fake_counts
        )
    ]


def collect_shard_flat(task: CollectTask):
    """Worker entry point: a packed task in, a packed shard out."""
    return _flat(collect_shard(task), pack_contributions)


#: ``run_shards(wire=...)`` of the collection phase.
COLLECT_WIRE = (pack_collect_task, collect_shard_flat, unpack_contributions)


class ShardedCollector:
    """Runs the collection phase over deterministic shards, optionally pooled.

    ``workers=1`` executes shards inline; ``workers>1`` fans them out over
    ``pool`` (or a :class:`WorkerPool` opened for the call). Results always
    come back in shard order. One ``globalq.collect.shard`` obs span
    brackets each shard (inline execution, or the wait for its worker
    result).
    """

    def __init__(
        self,
        workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
        base_seed: int = 0,
        pool: WorkerPool | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        #: A persistent :class:`WorkerPool` to run shards on; ``workers``
        #: then follows the pool's width.
        self.pool = pool
        self.workers = pool.workers if pool is not None else workers
        self.shard_size = shard_size
        self.base_seed = base_seed

    def collect(
        self,
        nodes,
        query: AggregateQuery,
        fleet,
        with_group_tag: bool = False,
        bucketizer=None,
        noise=None,
    ) -> list[NodeContributions]:
        """Collect the whole population; flat list in population order."""
        trace = telemetry.propagated()
        tasks = [
            CollectTask(
                shard_index=index,
                shard_seed=shard_seed(self.base_seed, index),
                fleet_seed=fleet.seed,
                query=query,
                nodes=tuple(nodes[start:stop]),
                with_group_tag=with_group_tag,
                bucketizer=bucketizer,
                noise=noise,
                trace=trace,
            )
            for index, (start, stop) in enumerate(
                shard_slices(len(nodes), self.shard_size)
            )
        ]
        results: list[NodeContributions] = []
        for shard in run_shards(
            collect_shard, tasks, "globalq.collect.shard",
            lambda task: {"nodes": len(task.nodes)},
            self.workers, self.pool, COLLECT_WIRE,
        ):
            results.extend(shard)
        return results


# ----------------------------------------------------------------------
# Symmetric aggregation ([TNP14] families, phase 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateTask:
    """A run of consecutive partitions for one aggregation worker.

    Born flat: it only ever exists on its way to a pool (inline runs hand
    each partition to a :class:`~repro.globalq.tokens.TrustedAggregator`
    keyed from the caller's own fleet).
    """

    shard_index: int
    fleet_seed: int
    #: Blobs per partition, in partition order.
    partition_sizes: array
    blob_lengths: array
    blobs: bytes
    #: Distributed trace context of the submitting span (or None).
    trace: object = None


def _runs(partitions, shard_size: int):
    """Consecutive partitions grouped until a run holds ``shard_size`` blobs."""
    run, blobs = [], 0
    for partition in partitions:
        run.append(partition)
        blobs += len(partition)
        if blobs >= shard_size:
            yield run
            run, blobs = [], 0
    if run:
        yield run


def aggregate_tasks(
    partitions, fleet_seed: int, shard_size: int
) -> list[AggregateTask]:
    """Cut ``partitions`` into runs of at least ``shard_size`` blobs.

    Runs never reorder or split a partition, and their geometry follows
    the partition sizes and ``shard_size`` only — never the worker count.
    """
    trace = telemetry.propagated()
    return [
        AggregateTask(
            index,
            fleet_seed,
            array("I", map(len, run)),
            *_join([c.blob for partition in run for c in partition]),
            trace,
        )
        for index, run in enumerate(_runs(partitions, shard_size))
    ]


def pack_outcomes(outcomes: list) -> tuple:
    """Per-partition :class:`AggregationOutcome` objects as flat arrays.

    Groups keep their accumulator insertion order (the merged result's
    key order follows it); the seen ``(pds_id, sequence)`` pairs flatten
    to one array, ``pds_id`` at even and ``sequence`` at odd positions.
    """
    group_counts = array("I")
    groups: list = []
    sums = array("d")
    counts = array("Q")
    tallies = array("Q")
    seen_counts = array("I")
    seen = array("Q")
    for outcome in outcomes:
        accumulator = outcome.accumulator
        group_counts.append(len(accumulator.sums))
        groups.extend(accumulator.sums)
        sums.extend(accumulator.sums.values())
        counts.extend(accumulator.counts[group] for group in accumulator.sums)
        tallies.extend(
            (
                outcome.real_tuples,
                outcome.fake_tuples,
                outcome.integrity_failures,
            )
        )
        seen_counts.append(len(outcome.seen_pds_sequences))
        seen.extend(chain.from_iterable(outcome.seen_pds_sequences))
    return group_counts, groups, sums, counts, tallies, seen_counts, seen


def unpack_outcomes(flat: tuple) -> list:
    """Inverse of :func:`pack_outcomes`."""
    group_counts, groups, sums, counts, tallies, seen_counts, seen = flat
    pairs = list(zip(seen[0::2], seen[1::2]))
    outcomes = []
    for names, group_sums, group_tallies, (real, fakes, failures), own in zip(
        _chunks(groups, group_counts),
        _chunks(sums, group_counts),
        _chunks(counts, group_counts),
        _chunks(tallies, [3] * len(group_counts)),
        _chunks(pairs, seen_counts),
    ):
        accumulator = Accumulator()
        accumulator.sums = dict(zip(names, group_sums))
        accumulator.counts = dict(zip(names, group_tallies))
        outcomes.append(
            AggregationOutcome(
                accumulator=accumulator,
                real_tuples=real,
                fake_tuples=fakes,
                integrity_failures=failures,
                seen_pds_sequences=set(own),
            )
        )
    return outcomes


def aggregate_shard(task: AggregateTask):
    """Decrypt and fold one run of partitions (worker processes only).

    The fleet is keyed once per task; each partition then goes through the
    same :meth:`TrustedAggregator.aggregate` an inline run calls — every
    tag check, integrity-failure count and replay skip included. Returns
    :func:`pack_outcomes` of the run, wrapped in a
    :class:`~repro.obs.telemetry.TracedResult` when the task's trace
    context asked this worker process to record its execution span.
    """
    with telemetry.remote_recording(
        task.trace, f"worker-{os.getpid()}"
    ) as recording:
        with obs.span(
            "globalq.aggregate.shard.exec",
            shard=task.shard_index,
            partitions=len(task.partition_sizes),
            blobs=len(task.blob_lengths),
        ):
            aggregator = TrustedAggregator(TokenFleet(task.fleet_seed))
            contributions = [
                EncryptedContribution(blob)
                for blob in _chunks(task.blobs, task.blob_lengths)
            ]
            result = pack_outcomes(
                [
                    aggregator.aggregate(partition)
                    for partition in _chunks(
                        contributions, task.partition_sizes
                    )
                ]
            )
    if recording is not None:
        return recording.wrap(result)
    return result


def aggregate_partitions(
    partitions, fleet_seed: int, shard_size: int, pool: WorkerPool
) -> list:
    """Phase 3 on ``pool``: one outcome per partition, in partition order."""
    outcomes = []
    for shard in run_shards(
        aggregate_shard,
        aggregate_tasks(partitions, fleet_seed, shard_size),
        "globalq.aggregate.shard",
        lambda task: {
            "partitions": len(task.partition_sizes),
            "blobs": len(task.blob_lengths),
        },
        pool.workers, pool,
    ):
        outcomes.extend(unpack_outcomes(shard))
    return outcomes


# ----------------------------------------------------------------------
# Homomorphic collection (Paillier secure sum)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SumShardTask:
    """One shard of a Paillier secure-sum collection (picklable)."""

    shard_index: int
    shard_seed: int
    n: int
    values: tuple
    stock_size: int
    subset_size: int
    #: Distributed trace context of the submitting span (or None).
    trace: object = None


@dataclass
class SumShardResult:
    """Partial homomorphic aggregate of one shard."""

    shard_index: int
    partial: int
    ciphertext_bytes: tuple
    modexps: int


def sum_shard(task: SumShardTask):
    """Encrypt one shard of sites batched and fold it homomorphically.

    Returns a :class:`SumShardResult`, wrapped in a
    :class:`~repro.obs.telemetry.TracedResult` when the task's trace
    context asked this worker process to record its execution span.
    """
    with telemetry.remote_recording(
        task.trace, f"worker-{os.getpid()}"
    ) as recording:
        with obs.span(
            "smc.secure_sum.shard.exec",
            shard=task.shard_index,
            sites=len(task.values),
        ):
            public = PaillierPublicKey(n=task.n, n_squared=task.n * task.n)
            pool = public.blinding_pool(
                seed=task.shard_seed,
                stock_size=task.stock_size,
                subset_size=task.subset_size,
            )
            ciphertexts = public.encrypt_batch(task.values, pool=pool)
            partial = 1
            sizes = []
            for ciphertext in ciphertexts:
                partial = public.add(partial, ciphertext)
                sizes.append((ciphertext.bit_length() + 7) // 8)
            # One pow for the pool generator plus one fixed-base eval per
            # stock entry is all the full-width exponentiation performed.
            result = SumShardResult(
                shard_index=task.shard_index,
                partial=partial,
                ciphertext_bytes=tuple(sizes),
                modexps=1 + task.stock_size,
            )
    if recording is not None:
        return recording.wrap(result)
    return result


def collect_encrypted_sum(
    values,
    public,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    base_seed: int = 0,
    stock_size: int = 32,
    subset_size: int = 8,
    pool: WorkerPool | None = None,
) -> list[SumShardResult]:
    """Sharded batched encryption of ``values``; partials in shard order.

    ``pool`` reuses a persistent :class:`WorkerPool` (the worker count then
    follows the pool); without one, ``workers > 1`` opens a pool for the
    call.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if pool is not None:
        workers = pool.workers
    trace = telemetry.propagated()
    tasks = [
        SumShardTask(
            shard_index=index,
            shard_seed=shard_seed(base_seed, index),
            n=public.n,
            values=tuple(values[start:stop]),
            stock_size=stock_size,
            subset_size=subset_size,
            trace=trace,
        )
        for index, (start, stop) in enumerate(
            shard_slices(len(values), shard_size)
        )
    ]
    # Workers count their exponentiations in their own process; mirror
    # them into this process's registry. An adopted exec span's counters
    # land in the shard span's child counts, cancelling the mirror out of
    # its self_counters.
    remote = pool is not None or workers > 1
    results: list[SumShardResult] = []
    for result in run_shards(
        sum_shard, tasks, "smc.secure_sum.shard",
        lambda task: {"sites": len(task.values)},
        workers, pool,
    ):
        if remote:
            count_modexp(result.modexps)
        results.append(result)
    return results
