"""The one-shot batch driver the service's answers are measured against.

:func:`run_query` is *the* execution path: the service calls it from its
one execution thread, and the tests/bench call it again — standalone, later, in
another process if they like — with the recorded (descriptor, snapshot
nodes, seed) triple. Both calls build the same protocol object with the
same deterministic rng and the same sharded-collection seed, so the two
aggregates must be bit-identical; any divergence is a concurrency bug in
the service (wrong snapshot, stale cache, shared-rng contamination), which
is exactly what the equality assertions exist to catch.

Worker count is *not* part of the determinism contract on purpose: the E23
sharded executor guarantees ciphertexts do not depend on parallelism, so a
reference re-run with ``workers=1`` validates a service answer computed
over a process pool.
"""

from __future__ import annotations

import random
import threading

from repro.errors import QueryError
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import NoiseProtocol
from repro.globalq.parallel import DEFAULT_SHARD_SIZE, WorkerPool
from repro.globalq.protocol import ProtocolFamily, ProtocolReport
from repro.globalq.queries import NoisePlan
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.tokens import TokenFleet
from repro.hardware.flash import FlashGeometry
from repro.hardware.profiles import HardwareProfile, smart_usb_token
from repro.hardware.token import SecurePortableToken
from repro.relational.query import EmbeddedDatabase
from repro.service.descriptor import (
    FAMILY_EMBEDDED,
    FAMILY_HISTOGRAM,
    FAMILY_NOISE,
    FAMILY_SECURE_AGG,
    QueryDescriptor,
)
from repro.workloads import tpcd

#: Lineitem count of the hosted embedded database when a descriptor leaves
#: ``embedded_rows`` at 0.
DEFAULT_EMBEDDED_ROWS = 2000

#: Hosted Part II engines, one per lineitem count. An embedded database is
#: a single token's stateful object (page cache, RAM arena, staging
#: buffers), so executions serialize on the lock — the service runs one
#: query at a time anyway, but tests and benches call ``run_query`` from
#: threads of their own.
_EMBEDDED_DBS: dict[int, object] = {}
_EMBEDDED_LOCK = threading.Lock()


def _embedded_db(rows: int):
    """Get-or-build the hosted TPCD-like database (caller holds the lock)."""
    db = _EMBEDDED_DBS.get(rows)
    if db is None:
        base = smart_usb_token()
        profile = HardwareProfile(
            name="service-embedded",
            ram_bytes=64 * 1024,
            cpu_mhz=base.cpu_mhz,
            flash_geometry=FlashGeometry(
                page_size=1024, pages_per_block=32, num_blocks=4096
            ),
            flash_cost=base.flash_cost,
            tamper_resistant=True,
        )
        db = EmbeddedDatabase(
            SecurePortableToken(profile=profile),
            tpcd.tpcd_schema(),
            tpcd.ROOT_TABLE,
        )
        tpcd.load(db, tpcd.generate(rows, seed=31))
        db.create_tselect("CUSTOMER", "Mktsegment")
        db.create_tselect("SUPPLIER", "Name")
        _EMBEDDED_DBS[rows] = db
    return db


def _split_attr(name: str) -> tuple[str, str]:
    """Split an embedded-family ``TABLE.Column`` attribute name."""
    table, dot, column = name.partition(".")
    if not dot or not table or not column:
        raise QueryError(
            f"embedded-spj attributes are 'TABLE.Column' names, got {name!r}"
        )
    return table, column


def run_embedded(descriptor: QueryDescriptor) -> ProtocolReport:
    """Execute an embedded-spj descriptor on the hosted Part II engine
    (the engine's default executor: columnar batches)."""
    query = descriptor.query
    filters = []
    for condition in query.where:
        if len(condition) != 2:
            raise QueryError(
                "embedded-spj WHERE supports equality conditions only, "
                f"got {condition!r}"
            )
        table, column = _split_attr(condition[0])
        filters.append((table, column, condition[1]))
    group_by = _split_attr(query.group_by) if query.group_by else None
    if query.attribute is not None:
        agg_table, agg_column = _split_attr(query.attribute)
    else:
        agg_table, agg_column = tpcd.ROOT_TABLE, None
    rows = descriptor.embedded_rows or DEFAULT_EMBEDDED_ROWS
    with _EMBEDDED_LOCK:
        result, _stats = _embedded_db(rows).aggregate(
            filters, (query.aggregate, agg_table, agg_column), group_by
        )
    return ProtocolReport(
        result={str(group): value for group, value in result.items()},
        protocol=FAMILY_EMBEDDED,
        num_pds=1,
        tuples_sent=0,
        fake_tuples_sent=0,
        token_decryptions=0,
        token_invocations=1,
        comm_bytes=0,
        comm_messages=0,
        integrity_failures=0,
    )


#: Descriptor family -> (protocol class, its one family-specific option).
_PROTOCOLS = {
    FAMILY_SECURE_AGG: (
        SecureAggregationProtocol,
        lambda descriptor, domain: descriptor.partition_size,
    ),
    FAMILY_NOISE: (
        NoiseProtocol,
        lambda descriptor, domain: NoisePlan(
            descriptor.noise_mode, descriptor.noise_ratio, tuple(domain)
        ),
    ),
    FAMILY_HISTOGRAM: (
        HistogramProtocol,
        lambda descriptor, domain: EquiDepthBucketizer(
            {value: 1.0 for value in domain}, descriptor.num_buckets
        ),
    ),
}


def build_protocol(
    descriptor: QueryDescriptor,
    fleet: TokenFleet,
    seed: int,
    domain: tuple[str, ...],
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    pool: WorkerPool | None = None,
) -> ProtocolFamily:
    """The protocol-family driver for one execution of ``descriptor``.

    Every random draw — SSI partitioning, fake planning, cipher nonces —
    descends from ``seed``, so the answer is identical at any worker count.
    """
    family, option = _PROTOCOLS[descriptor.family]
    return family(
        fleet,
        option(descriptor, domain),
        rng=random.Random(seed),
        workers=workers,
        shard_size=shard_size,
        collection_seed=seed,
        pool=pool,
    )


def run_query(
    descriptor: QueryDescriptor,
    nodes,
    fleet: TokenFleet,
    seed: int,
    domain: tuple[str, ...],
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    pool: WorkerPool | None = None,
) -> ProtocolReport:
    """Run ``descriptor`` once over ``nodes`` — service path and reference.

    The embedded-spj family never touches the population: it answers from
    the service-hosted Part II engine, deterministically (no seed draw), so
    a reference re-run needs only the descriptor.
    """
    if descriptor.family == FAMILY_EMBEDDED:
        return run_embedded(descriptor)
    protocol = build_protocol(
        descriptor, fleet, seed, domain,
        workers=workers, shard_size=shard_size, pool=pool,
    )
    return protocol.run(list(nodes), descriptor.query)
