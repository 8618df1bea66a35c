"""One Tselect query + one tiny async census, end to end under the tracer.

This is the CI ``trace-smoke`` workload: it exercises every instrumented
layer in a few seconds — flash page IO through the page cache, the
Tselect/Tjoin probes of an SPJ query, and the [TNP14] collection/
partitioning/aggregation phases over the lossy asyncio network — then
writes both trace artifacts so ``python -m repro.obs.check`` can validate
the schema:

* ``TRACE_smoke.json``  — Chrome ``trace_event``, loadable in Perfetto;
* ``TRACE_smoke.jsonl`` — the line-delimited span log.

Run with:  PYTHONPATH=src python examples/trace_smoke.py [output_dir]
"""

import random
import sys

from repro import obs
from repro.globalq.async_protocol import AsyncGlobalQuery
from repro.globalq.noise import WHITE_NOISE, NoisePlan, NoiseProtocol
from repro.globalq.protocol import PdsNode, TokenFleet
from repro.globalq.queries import AggregateQuery
from repro.hardware.token import SecurePortableToken
from repro.net import LinkProfile
from repro.relational.query import EmbeddedDatabase
from repro.workloads import tpcd
from repro.workloads.people import CITIES, generate_population


def traced_tselect(token: SecurePortableToken) -> int:
    """Load a small TPC-D-like folder and run one indexed SPJ query."""
    with obs.span("smoke.tselect"):
        db = EmbeddedDatabase(token, tpcd.tpcd_schema(), tpcd.ROOT_TABLE)
        tpcd.load(db, tpcd.generate(80, seed=7))
        db.create_tselect("CUSTOMER", "Mktsegment")
        query = tpcd.household_supplier_query("HOUSEHOLD", "SUPPLIER-1")
        rows, _ = db.query(query)
    return len(rows)


def traced_census() -> int:
    """Run a 60-node noise-based census over a lossy simulated network."""
    with obs.span("smoke.census"):
        population = generate_population(60, seed=41, skew=1.1)
        nodes = [PdsNode(i, records) for i, records in enumerate(population)]
        query = AggregateQuery.count(
            group_by="city", where=(("kind", "profile"),)
        )
        driver = AsyncGlobalQuery(
            NoiseProtocol(
                TokenFleet(2),
                noise=NoisePlan(WHITE_NOISE, 1.0, tuple(CITIES)),
                rng=random.Random(1),
            ),
            link=LinkProfile(latency_ms=2.0, jitter_ms=1.0, loss=0.02),
            num_tokens=4,
        )
        report = driver.run_sync(nodes, query)
    return report.net_metrics.frames_sent


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    token = SecurePortableToken(cache_pages=16)
    with obs.profile(token=token) as prof:
        rows = traced_tselect(token)
        frames = traced_census()

    paths = prof.write(out_dir, stem="smoke")
    snapshot = prof.snapshot()
    print(f"tselect rows: {rows}; census frames: {frames}")
    print(
        f"spans: {len(prof.tracer.spans)}; "
        f"flash reads: {snapshot['flash.page_reads']}; "
        f"cache hits: {snapshot['cache.hits']}; "
        f"sim time: {prof.tracer.now_us() / 1000:.1f} ms"
    )
    print()
    print(prof.top(limit=12))
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
