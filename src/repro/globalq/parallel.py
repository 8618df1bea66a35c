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
  order (:func:`~repro.globalq.tokens.seal_shard`) — so the produced
  ciphertexts are bit-identical whether the shard runs in-process, in any
  worker, or in any order;
* workers rebuild the :class:`~repro.globalq.tokens.TokenFleet` from its
  key-derivation seed, so no key material crosses the process boundary
  inside live objects.

``workers=1`` runs the very same shard function inline (no pool, no
pickling), which is what makes ``parallel == serial`` an *exact* equality
the tests and bench E23 assert, not an approximation: ``workers`` and
``pool`` only choose *where* shards run, never what they produce.

**What crosses the process boundary.** Pickling an object graph costs a
reduce call and a class lookup per object, on both sides; at 10 000 PDSs
that cost about as much as the encryption it bought. So what goes to a
pool is flat data:

* *to a collection worker*: a :class:`CollectTask` whose columns are the
  shard's pds ids and, per PDS, its records as attribute dicts — no
  ``PdsNode``, no ``PersonRecord``; inline shards read the same columns;
* *from a collection worker*: the shard's
  :class:`~repro.net.messages.ContributionBag` as is — it is columns
  already, and the same object an inline shard returns, so the submitter
  rebuilds nothing;
* *to an aggregation worker*: an :class:`AggregateTask` — the fleet seed
  and the blob lists of a run of consecutive partitions;
* *from an aggregation worker*: per-partition group names, sums, counts,
  the three tallies and the seen ``(pds_id, sequence)`` pairs as flat
  arrays (:func:`pack_outcomes`), turned back into
  :class:`~repro.net.messages.AggregationOutcome` objects
  (:func:`unpack_outcomes`).

An inline run builds the same bag and aggregates each partition with the
caller's own keyed fleet.

The same drain drives the Paillier secure-sum collection
(:func:`collect_encrypted_sum`): each shard encrypts its sites through a
shard-seeded :class:`~repro.crypto.fastexp.BlindingPool` and returns one
partial homomorphic aggregate for the SSI to merge.
"""

from __future__ import annotations

import hashlib
import operator
import os
import random
import threading
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import chain

from repro import obs
from repro.crypto.fastexp import count_modexp
from repro.crypto.paillier import PaillierPublicKey
from repro.globalq.queries import AggregateQuery
from repro.globalq.tokens import TokenFleet, TrustedAggregator, seal_shard
from repro.net.messages import Accumulator, AggregationOutcome, ContributionBag
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


def run_shards(fn, tasks, span_name, describe, workers, pool):
    """Run ``fn`` over ``tasks``; yield each result inside its shard span.

    The one drain every sharded phase shares. Shards run inline when
    ``workers == 1`` and no pool was passed; otherwise on ``pool``, or on a
    :class:`WorkerPool` opened for this call. Results come back in shard
    order, each yielded while its ``span_name`` span (inline execution, or
    the wait for the worker's result) is still open, so whatever the
    consumer records per shard is charged to that span.

    A dead worker surfaces as ``BrokenProcessPool`` from this call; the
    pool is told to drop its executor first, so the next call respawns.
    """
    if pool is None and workers > 1:
        with WorkerPool(workers) as own:
            yield from run_shards(fn, tasks, span_name, describe, workers, own)
        return

    def shard_span(task):
        return obs.span(span_name, shard=task.shard_index, **describe(task))

    if pool is None:
        for task in tasks:
            with shard_span(task) as span:
                yield telemetry.adopt(fn(task), span)
        return
    try:
        futures = [pool.submit(fn, task) for task in tasks]
        for task, future in zip(tasks, futures):
            with shard_span(task) as span:
                yield telemetry.adopt(future.result(), span)
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
    #: The shard's PDSs in population order, as two columns: their ids,
    #: and their records' attribute dicts (a dict answers ``get``/``[]``/
    #: ``in`` like a record, at C speed).
    pds_ids: list
    records: list
    with_group_tag: bool = False
    bucketizer: object = None
    noise: object = None
    #: Distributed trace context of the submitting span (or None): lets a
    #: worker process record its shard span for adoption by the submitter.
    trace: object = None


def collect_shard(task: CollectTask):
    """Collect one shard: the unit of work both serial and pooled paths run.

    The fleet is keyed once per shard and
    :func:`~repro.globalq.tokens.seal_shard` does the rest: every PDS of
    the shard in order, one batch seal, one
    :class:`~repro.net.messages.ContributionBag`.

    When the task carries a sampled trace context and runs in a worker
    process, the shard's execution span is recorded locally and shipped
    back wrapped in a :class:`~repro.obs.telemetry.TracedResult` for the
    submitter to adopt; otherwise the bag itself returns.
    """
    with telemetry.remote_recording(
        task.trace, f"worker-{os.getpid()}"
    ) as recording:
        with obs.span(
            "globalq.collect.shard.exec",
            shard=task.shard_index,
            nodes=len(task.pds_ids),
        ):
            bag = seal_shard(
                task.pds_ids,
                task.records,
                task.query,
                TokenFleet(task.fleet_seed),
                random.Random(task.shard_seed),
                task.noise,
                task.with_group_tag,
                task.bucketizer,
            )
    if recording is not None:
        return recording.wrap(bag)
    return bag


_pds_id = operator.attrgetter("pds_id")
_records = operator.attrgetter("records")
_attributes = operator.attrgetter("attributes")


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
    ) -> ContributionBag:
        """Collect the whole population: one bag, in population order."""
        trace = telemetry.propagated()
        tasks = [
            CollectTask(
                shard_index=index,
                shard_seed=shard_seed(self.base_seed, index),
                fleet_seed=fleet.seed,
                query=query,
                pds_ids=list(map(_pds_id, nodes[start:stop])),
                records=[
                    list(map(_attributes, records))
                    for records in map(_records, nodes[start:stop])
                ],
                with_group_tag=with_group_tag,
                bucketizer=bucketizer,
                noise=noise,
                trace=trace,
            )
            for index, (start, stop) in enumerate(
                shard_slices(len(nodes), self.shard_size)
            )
        ]
        return ContributionBag.concat(
            list(
                run_shards(
                    collect_shard, tasks, "globalq.collect.shard",
                    lambda task: {"nodes": len(task.pds_ids)},
                    self.workers, self.pool,
                )
            )
        )


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
    #: Each partition's blobs, in partition order.
    partitions: list
    #: Distributed trace context of the submitting span (or None).
    trace: object = None


def _runs(partitions, shard_size: int):
    """Consecutive partitions grouped until a run holds ``shard_size`` blobs."""
    run, blobs = [], 0
    for partition in partitions:
        run.append(partition.blobs)
        blobs += len(partition.blobs)
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
        AggregateTask(index, fleet_seed, run, trace)
        for index, run in enumerate(_runs(partitions, shard_size))
    ]


def _chunks(sequence, sizes):
    """Consecutive slices of ``sequence``, ``sizes[i]`` items each."""
    end = 0
    for size in sizes:
        start, end = end, end + size
        yield sequence[start:end]


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
            partitions=len(task.partitions),
            blobs=sum(map(len, task.partitions)),
        ):
            aggregator = TrustedAggregator(TokenFleet(task.fleet_seed))
            result = pack_outcomes(
                [aggregator.aggregate(blobs) for blobs in task.partitions]
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
            "partitions": len(task.partitions),
            "blobs": sum(map(len, task.partitions)),
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
