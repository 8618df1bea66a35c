"""Sharded parallel execution of the [TNP14] collection phase.

The collection phase is embarrassingly parallel — every PDS encrypts its
own contributions with fleet-wide keys. This module is its one execution
path: every driver (synchronous, asynchronous, served) collects through
:class:`ShardedCollector`, which may fan shards out over a process pool
without giving up reproducibility:

* the population is cut into fixed-size **shards** (shard geometry never
  depends on the worker count);
* each shard derives its randomness from a **deterministic shard seed**
  (SHA-256 of ``base_seed || shard index``), and every PDS inside a shard
  draws its fake plan and cipher-nonce seed from the shard stream in node
  order — so the produced ciphertexts are bit-identical whether the shard
  runs in-process, in any worker, or in any order;
* workers rebuild the :class:`~repro.globalq.protocol.TokenFleet` from its
  key-derivation seed, so no key material crosses the process boundary
  inside live objects.

``workers=1`` runs the very same shard function inline (no pool, no
pickling), which is what makes ``parallel == serial`` an *exact* equality
the tests and bench E23 assert, not an approximation: ``workers`` and
``pool`` only choose *where* shards run, never what they produce.

The same machinery drives the Paillier secure-sum collection
(:func:`collect_encrypted_sum`): each shard encrypts its sites through a
shard-seeded :class:`~repro.crypto.fastexp.BlindingPool` and returns one
partial homomorphic aggregate for the SSI to merge.
"""

from __future__ import annotations

import hashlib
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro import obs
from repro.globalq.queries import AggregateQuery, local_contributions
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

    ``submit`` is thread-safe (it delegates to the executor), so
    concurrent queries of one service can share one pool.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor (workers spawn lazily on first use)."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def submit(self, fn, *args):
        return self.executor.submit(fn, *args)

    def close(self) -> None:
        """Shut the workers down; idempotent, and the pool stays closed."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_shards(fn, tasks, span_name, describe, workers, pool):
    """Run ``fn`` over ``tasks``; yield each result inside its shard span.

    The one drain both sharded phases share. Shards run inline when
    ``workers == 1`` and no pool was passed; otherwise on ``pool``, or on a
    :class:`WorkerPool` opened for this call. Results come back in shard
    order, each yielded while its ``span_name`` span (inline execution, or
    the wait for the worker's result) is still open, so whatever the
    consumer records per shard is charged to that span.
    """
    if pool is None and workers > 1:
        with WorkerPool(workers) as own:
            yield from run_shards(fn, tasks, span_name, describe, workers, own)
        return
    if pool is None:
        pending = ((task, None) for task in tasks)
    else:
        pending = [(task, pool.submit(fn, task)) for task in tasks]
    for task, future in pending:
        with obs.span(
            span_name, shard=task.shard_index, **describe(task)
        ) as shard_span:
            result = fn(task) if future is None else future.result()
            yield telemetry.adopt(result, shard_span)


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
    nodes: tuple
    with_group_tag: bool = False
    bucketizer: object = None
    noise: object = None
    #: Distributed trace context of the submitting span (or None): lets a
    #: worker process record its shard span for adoption by the submitter.
    trace: object = None


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
    # Imported here: the family modules import this module at top level.
    from repro.globalq.noise import plan_fakes
    from repro.globalq.protocol import TokenFleet, encrypt_contributions

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
                real = local_contributions(node.records, task.query)
                fakes = (
                    plan_fakes(real, task.noise, rng)
                    if task.noise is not None
                    else ()
                )
                contributions = encrypt_contributions(
                    node.pds_id,
                    real,
                    fakes,
                    fleet.payload_cipher(rng.getrandbits(64)),
                    tag_of,
                    task.bucketizer,
                )
                out.append(
                    NodeContributions(node.pds_id, contributions, len(fakes))
                )
    if recording is not None:
        return recording.wrap(out)
    return out


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
            self.workers, self.pool,
        ):
            results.extend(shard)
        return results


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
    # Local import keeps worker start-up (and pickling) minimal.
    from repro.crypto.paillier import PaillierPublicKey

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
    from repro.crypto.fastexp import count_modexp

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
