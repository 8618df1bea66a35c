"""E21: exact flash-cost attribution on real query workloads.

The satellite invariant: a Tselect/Tjoin query over a *cached* index
attributes its page reads to probe child spans whose ``self_counters`` sum
exactly to the token's ``FlashStats`` delta — cache hits never masquerade
as reads, and no read is double-counted by the span nesting.

Plus the bench acceptance path: ``bench_e20_cache.py --profile`` embeds a
metrics snapshot in the experiment meta whose flash totals equal the sum of
per-span self reads, and its trace artifacts pass ``repro.obs.check``.
"""

import asyncio
import importlib.util
import json
import random
from pathlib import Path

from repro import obs
from repro.bench.harness import Experiment, write_json
from repro.crypto.paillier import generate_keypair
from repro.globalq.parallel import WorkerPool, collect_encrypted_sum
from repro.globalq.queries import AggregateQuery
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.hardware.flash import FlashGeometry
from repro.hardware.profiles import HardwareProfile, smart_usb_token
from repro.hardware.token import SecurePortableToken
from repro.net.bus import MessageBus
from repro.net.codec import KIND_QUERY, KIND_RESULT, Frame, encode_json_payload
from repro.obs import check, telemetry
from repro.obs.metrics import global_registry
from repro.obs.telemetry import Telemetry
from repro.relational.query import EmbeddedDatabase
from repro.service import (
    FAMILY_SECURE_AGG,
    QueryDescriptor,
    ServiceConfig,
    ServicePopulation,
    SsiQueryService,
)
from repro.workloads import tpcd
from repro.workloads.people import CITIES, PersonRecord


def make_db(cache_pages: int) -> EmbeddedDatabase:
    base = smart_usb_token()
    profile = HardwareProfile(
        name="obs-attr-token",
        ram_bytes=128 * 1024,
        cpu_mhz=base.cpu_mhz,
        flash_geometry=FlashGeometry(
            page_size=1024, pages_per_block=32, num_blocks=2048
        ),
        flash_cost=base.flash_cost,
        tamper_resistant=True,
    )
    token = SecurePortableToken(profile=profile, cache_pages=cache_pages)
    db = EmbeddedDatabase(token, tpcd.tpcd_schema(), tpcd.ROOT_TABLE)
    tpcd.load(db, tpcd.generate(150, seed=31))
    db.create_tselect("CUSTOMER", "Mktsegment")
    db.create_tselect("SUPPLIER", "Name")
    return db


def run_traced_queries(db: EmbeddedDatabase, repeats: int = 2):
    query = tpcd.household_supplier_query("HOUSEHOLD", "SUPPLIER-1")
    before = db.token.flash.stats.page_reads
    rows = None
    with obs.profile(token=db.token) as prof:
        for _ in range(repeats):
            rows, _ = db.query(query)
    delta = db.token.flash.stats.page_reads - before
    return prof.tracer, rows, delta


class TestTjoinAttribution:
    def test_cached_probe_spans_sum_exactly_to_flash_delta(self):
        db = make_db(cache_pages=16)
        tracer, rows, delta = run_traced_queries(db)
        assert rows  # the query actually joined something
        assert delta > 0  # cold cache: the first run had to hit flash
        # No double count, no leakage: self sums reproduce the delta ...
        assert tracer.totals("flash.page_reads") == delta
        # ... and so does the root-only inclusive view.
        assert tracer.totals("flash.page_reads", self_only=False) == delta

    def test_probe_spans_carry_the_reads_they_caused(self):
        db = make_db(cache_pages=16)
        tracer, _, _ = run_traced_queries(db)
        probes = [
            s for s in tracer.spans
            if s.name in ("tselect.probe", "tjoin.probe")
        ]
        assert probes
        # Every span's tagged page list matches its self read count: a page
        # served by the cache is never tagged, a flash read always is.
        for span in tracer.spans:
            tagged = len(span.pages) + span.pages_overflow
            assert tagged == span.self_counters.get("flash.page_reads", 0)

    def test_cache_hits_attributed_alongside_reads(self):
        db = make_db(cache_pages=16)
        query = tpcd.household_supplier_query("HOUSEHOLD", "SUPPLIER-1")
        db.query(query)  # warm the cache untraced
        hits_before = db.token.page_cache.stats.hits
        with obs.profile(token=db.token) as prof:
            db.query(query)
        hit_delta = db.token.page_cache.stats.hits - hits_before
        assert hit_delta > 0
        assert prof.tracer.totals("cache.hits") == hit_delta

    def test_uncached_token_attributes_identically(self):
        db = make_db(cache_pages=0)
        tracer, rows, delta = run_traced_queries(db, repeats=1)
        assert rows and delta > 0
        assert tracer.totals("flash.page_reads") == delta
        queries = tracer.spans_named("db.query")
        assert len(queries) == 1
        assert queries[0].counters["flash.page_reads"] == delta

    def test_query_span_tree_shape(self):
        db = make_db(cache_pages=16)
        tracer, _, _ = run_traced_queries(db, repeats=1)
        query_span = tracer.spans_named("db.query")[0]
        probes = [
            s for s in tracer.spans
            if s.name in ("tselect.probe", "tjoin.probe")
        ]
        by_id = {s.span_id: s for s in tracer.spans}
        for probe in probes:
            # Every probe sits somewhere under the db.query span.
            node = probe
            while node.parent_id is not None:
                node = by_id[node.parent_id]
            assert node.name == "profile"
        assert query_span.attrs["rows_out"] > 0


# ----------------------------------------------------------------------
# Bench acceptance: --profile artifacts and snapshot consistency
# ----------------------------------------------------------------------
def load_bench_e20():
    path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "bench_e20_cache.py"
    )
    spec = importlib.util.spec_from_file_location("bench_e20_cache", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profiled_bench_snapshot_sums_to_flash_totals(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_SMOKE", "1")
    monkeypatch.setenv("BENCH_JSON_DIR", str(tmp_path))
    bench = load_bench_e20()
    experiment = Experiment(
        experiment_id="e20", title="t", claim="c", columns=["x"]
    )
    bench.attach_tselect_profile(experiment)
    meta = experiment.meta["profile"]

    span_reads = sum(
        entry["self"].get("flash.page_reads", 0)
        for entry in meta["spans_by_name"].values()
    )
    # Trace, registry snapshot, and raw FlashStats all agree exactly.
    assert span_reads == meta["metrics"]["flash.page_reads"]
    assert span_reads == meta["flash_totals"]["page_reads"]
    assert span_reads > 0
    assert meta["dropped_spans"] == 0
    assert meta["sim_time_us"] > 0

    chrome = Path(meta["artifacts"]["chrome"])
    jsonl = Path(meta["artifacts"]["jsonl"])
    assert check.check_file(chrome) == []
    assert check.check_file(jsonl) == []

    # The snapshot survives the BENCH_<id>.json round trip.
    path = write_json(experiment, tmp_path)
    loaded = json.loads(path.read_text())
    assert (
        loaded["meta"]["profile"]["metrics"]["flash.page_reads"] == span_reads
    )


def test_tracer_fully_detached_after_profile():
    db = make_db(cache_pages=16)
    run_traced_queries(db, repeats=1)
    # Disabled again: the hot-path hook is gone and module spans are no-ops.
    assert db.token.flash.trace_read is None
    assert obs.get_tracer() is None
    assert obs.span("x") is obs.NULL_SPAN


# ----------------------------------------------------------------------
# E26 tentpole: one query, one coherent trace across wire and processes
# ----------------------------------------------------------------------


def make_service_nodes(count: int = 48) -> list[PdsNode]:
    rng = random.Random(17)
    return [
        PdsNode(
            i,
            [
                PersonRecord(
                    {
                        "city": CITIES[rng.randrange(len(CITIES))],
                        "salary": float(1000 + rng.randrange(2000)),
                    }
                )
            ],
        )
        for i in range(count)
    ]


class TestDistributedTraceAttribution:
    """The worker-pool hop preserves the E21 invariant to the page."""

    def test_pool_modexp_self_sums_reproduce_registry_delta(self):
        public, _ = generate_keypair(bits=256, rng=random.Random(7))
        counter = global_registry().counter("crypto.modexp_count")
        with Telemetry(sample_rate=1.0) as bundle:
            context = bundle.sampler.context_for("e26-pool")
            before = counter.value
            with telemetry.activate(context):
                with obs.span("test.root"):
                    with WorkerPool(workers=2) as pool:
                        partials = collect_encrypted_sum(
                            [3 * v for v in range(48)],
                            public,
                            shard_size=16,
                            pool=pool,
                        )
            delta = counter.value - before
        tracer = bundle.tracer
        assert partials and delta > 0
        # Exact attribution across the process boundary: per-span self
        # modexp counts sum to the submitting process's registry delta.
        assert tracer.totals("crypto.modexp_count") == delta
        execs = [
            s for s in tracer.spans if s.name == "smc.secure_sum.shard.exec"
        ]
        waits = {
            s.span_id: s
            for s in tracer.spans
            if s.name == "smc.secure_sum.shard"
        }
        assert execs
        for span in execs:
            assert span.process and span.process.startswith("worker-")
            assert span.parent_id in waits  # adopted under its wait span
        # Every span of the run belongs to the one derived trace.
        assert {s.trace_id for s in tracer.spans} == {context.trace_id}

    def test_sampling_rate_changes_no_ciphertext(self):
        public, _ = generate_keypair(bits=256, rng=random.Random(7))
        values = [2 * v for v in range(40)]

        def run(rate):
            with Telemetry(sample_rate=rate) as bundle:
                context = bundle.sampler.context_for("e26-equal")
                with telemetry.activate(context):
                    with WorkerPool(workers=2) as pool:
                        partials = collect_encrypted_sum(
                            values, public, shard_size=16, pool=pool
                        )
            traced = len(bundle.tracer.spans)
            return [
                (p.shard_index, p.partial, p.ciphertext_bytes)
                for p in partials
            ], traced

        sampled, spans_on = run(1.0)
        unsampled, spans_off = run(0.0)
        assert sampled == unsampled  # bit-identical partials
        assert spans_on > 0 and spans_off == 0

    def test_sampling_rate_changes_no_rows_and_no_flash_reads(self):
        def run(rate):
            db = make_db(cache_pages=16)
            query = tpcd.household_supplier_query("HOUSEHOLD", "SUPPLIER-1")
            before = db.token.flash.stats.page_reads
            if rate is None:  # tracing disabled entirely
                rows, _ = db.query(query)
            else:
                with Telemetry(sample_rate=rate) as bundle:
                    context = bundle.sampler.context_for("e26-flash")
                    with telemetry.activate(context):
                        rows, _ = db.query(query)
            return rows, db.token.flash.stats.page_reads - before

        disabled = run(None)
        assert disabled[1] > 0
        for rate in (0.0, 0.01, 1.0):
            assert run(rate) == disabled


class TestServiceWireTrace:
    """E24-style acceptance: querier frame -> admission -> execution ->
    shard child processes, one trace, ids resolving to the page."""

    def test_one_query_yields_one_cross_process_trace(self):
        asyncio.run(self._drive())

    async def _drive(self):
        population = ServicePopulation(make_service_nodes(), TokenFleet(0))
        descriptor = QueryDescriptor(
            FAMILY_SECURE_AGG, AggregateQuery.sum("salary")
        )
        with WorkerPool(workers=2) as pool:
            with Telemetry(sample_rate=1.0) as bundle:
                service = SsiQueryService(
                    population,
                    ServiceConfig(
                        cache_capacity=0,
                        workers=2,
                        shard_size=8,
                        pool=pool,
                    ),
                    telemetry=bundle,
                )
                service.start()
                bus = MessageBus(rng=random.Random(5))
                server = asyncio.ensure_future(
                    service.serve_endpoint(bus.register("ssi"))
                )
                querier = bus.register("querier-0")
                try:
                    with obs.span("querier.request") as querier_span:
                        context = bundle.sampler.context_for(
                            "e26-wire"
                        ).child(querier_span.span_id)
                        body = dict(
                            descriptor.to_dict(), request_id="querier-0/0"
                        )
                        await querier.send(
                            "ssi",
                            Frame(
                                KIND_QUERY,
                                "querier-0",
                                0,
                                encode_json_payload(body),
                                trace=context,
                            ),
                        )
                        reply = await querier.recv(timeout=60.0)
                finally:
                    server.cancel()
                    await service.stop()

        assert reply.kind == KIND_RESULT
        # The reply carries the same trace back to the querier.
        assert reply.trace is not None
        assert reply.trace.trace_id == context.trace_id

        tracer = bundle.tracer
        by_id = {s.span_id: s for s in tracer.spans}
        by_name: dict[str, list] = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)

        def ancestors(span):
            names = []
            node = span
            while node.parent_id is not None and node.parent_id in by_id:
                node = by_id[node.parent_id]
                names.append(node.name)
            return names

        # Wire hop: the service's frame span hangs off the querier span.
        (frame_span,) = by_name["service.frame"]
        assert frame_span.parent_id == querier_span.span_id
        # Admission/execution: service.query under the frame span.
        (query_span,) = by_name["service.query"]
        assert "service.frame" in ancestors(query_span)
        # Every shard ran in a pool child process and nests under the
        # query via its shard wait span.
        execs = by_name["globalq.collect.shard.exec"]
        assert execs
        processes = {s.process for s in execs}
        assert processes and all(
            p and p.startswith("worker-") for p in processes
        )
        for span in execs:
            chain = ancestors(span)
            assert chain[0] == "globalq.collect.shard"
            assert "service.query" in chain
            assert chain[-1] == "querier.request"
        # So did every aggregator token: phase 3 rides the same pool, and
        # its exec spans are adopted under their wait spans the same way.
        token_runs = by_name["globalq.aggregate.shard.exec"]
        waits = by_name["globalq.aggregate.shard"]
        assert len(token_runs) == len(waits) > 0
        assert sum(s.attrs["blobs"] for s in token_runs) == 48
        assert [s.attrs["blobs"] for s in waits] == [
            s.attrs["blobs"] for s in sorted(
                token_runs, key=lambda s: s.attrs["shard"]
            )
        ]
        for span in token_runs:
            assert span.process and span.process.startswith("worker-")
            chain = ancestors(span)
            assert chain[0] == "globalq.aggregate.shard"
            assert "service.query" in chain
            assert chain[-1] == "querier.request"
        # One trace id stamps the whole tree, wire to child process.
        assert {
            s.trace_id for s in tracer.spans if s.trace_id is not None
        } == {context.trace_id}
        # The E21 invariant holds for the full distributed run: watched
        # self-counters sum exactly to the submitting registry's delta
        # (secure-agg does no modexps, and the trace proves it).
        assert tracer.totals("crypto.modexp_count") == 0
