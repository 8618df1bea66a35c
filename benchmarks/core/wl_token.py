"""``token_engine``: the Part II embedded engine of one secure token.

Closed loop, single caller (a token has one user). The E25 token profile
hosts the TPCD-like schema; a seeded op sequence runs in rounds of ten
ops — six SPJ/aggregate queries behind the Tselect indexes (narrow
two-Tselect SPJ, wide one-Tselect projection, grouped AVG; two each), two
unindexed predicate scans of LINEITEM (the E1 summary-scan shape) and two
insert batches of lineitems followed by ``flush()`` — shuffled by the seed,
so writes run beside reads and the op mix is the same on every seed.

The E4 root-scan shape (a residual predicate with no Tselect) is left out
on purpose: at the defining commit, rows inserted after a flush that did
not end on a page boundary are mis-addressed by the fixed-size address and
ancestor logs, so a root scan after an insert batch raises ``StorageError``
(see README, "Known defect"). Tselect-driven plans only reach rows present
when the index was built, and the predicate scan walks data pages in
order, so every op of this workload is answered correctly.

Every result is checked against a plain-Python oracle over the generated
rows, and — for the seed the golden file was made from — results and
flash-IO counts are compared with ``golden/token_engine.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import random
import time
from dataclasses import dataclass

import adapter
import spans
from benchstats import Metrics, end_to_end, median, repeated_setup
from sizes import SETUP_REPEATS

GOLDEN = pathlib.Path(__file__).parent / "golden" / "token_engine.json"
ROUND = ("narrow", "narrow", "wide", "wide", "agg", "agg",
         "scan", "scan", "insert", "insert")
QUERIES = ("narrow", "wide", "agg")
#: Rounds of the live phase the traced run replays on a second engine.
REPLAY_ROUNDS = 2


@dataclass
class Op:
    kind: str
    args: tuple
    seconds: float = 0.0
    result: object = None
    reads: int = 0
    programs: int = 0
    sim_us: float = 0.0
    ram_high_water: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0


class Oracle:
    """The expected answers, from the generated rows alone.

    Mirrors two facts of the engine's contract: a Tselect index covers the
    root rows present when it was built, and rows come back in root-rowid
    order (which also fixes the float summation order of aggregates).
    """

    def __init__(self, data) -> None:
        self.suppliers = {row[0]: row for row in data.suppliers}
        self.customers = {row[0]: row for row in data.customers}
        self.orders = {row[0]: row for row in data.orders}
        self.partsupps = {row[0]: row for row in data.partsupps}
        self.lineitems = list(data.lineitems)
        self.indexed = len(self.lineitems)

    def _joined(self, segment: str, supplier: str | None = None):
        for linkey, ordkey, pskey, _qty, price in self.lineitems[: self.indexed]:
            customer = self.customers[self.orders[ordkey][1]]
            supplier_row = self.suppliers[self.partsupps[pskey][1]]
            if customer[2] != segment:
                continue
            if supplier is not None and supplier_row[1] != supplier:
                continue
            yield customer[1], ordkey, linkey, price, supplier_row[1]

    def answer(self, op: Op):
        if op.kind == "narrow":
            return list(self._joined(*op.args))
        if op.kind == "wide":
            return list(self._joined(*op.args))
        if op.kind == "agg":
            sums: dict = {}
            counts: dict = {}
            for _name, _ord, _lin, price, supplier in self._joined(*op.args):
                sums[supplier] = sums.get(supplier, 0.0) + float(price)
                counts[supplier] = counts.get(supplier, 0) + 1
            return {group: sums[group] / counts[group] for group in sums}
        if op.kind == "scan":
            (quantity,) = op.args
            return [
                rowid
                for rowid, row in enumerate(self.lineitems)
                if row[3] == quantity
            ]
        (rows,) = op.args
        self.lineitems.extend(rows)
        return len(rows)


def plan(rng: random.Random, data, cfg: dict, rounds: int) -> list[list[Op]]:
    """The seeded op sequence, round by round (a longer plan extends a
    shorter one, so golden rounds are a prefix of any run)."""
    suppliers = [row[1] for row in data.suppliers]
    next_key = len(data.lineitems)
    out = []
    for _ in range(rounds):
        ops = []
        for kind in rng.sample(ROUND, len(ROUND)):
            if kind == "narrow":
                args = (rng.choice(adapter.SEGMENTS), rng.choice(suppliers))
            elif kind in ("wide", "agg"):
                args = (rng.choice(adapter.SEGMENTS),)
            elif kind == "scan":
                args = (rng.randrange(1, 50),)
            else:
                rows = tuple(
                    (
                        next_key + i,
                        rng.randrange(len(data.orders)),
                        rng.randrange(len(data.partsupps)),
                        rng.randrange(1, 50),
                        round(rng.uniform(1.0, 1000.0), 2),
                    )
                    for i in range(cfg["insert_batch"])
                )
                next_key += len(rows)
                args = (rows,)
            ops.append(Op(kind, args))
        out.append(ops)
    return out


CALLS = {
    "narrow": "spj_narrow",
    "wide": "spj_wide",
    "agg": "aggregate",
    "scan": "scan",
    "insert": "insert_batch",
}


def execute(engine, op: Op) -> None:
    call = getattr(engine, CALLS[op.kind])
    reads, programs, sim_us = engine.flash_counters()
    started = time.perf_counter()
    op.result, stats = call(*op.args)
    op.seconds = time.perf_counter() - started
    reads_after, programs_after, sim_after = engine.flash_counters()
    op.reads = reads_after - reads
    op.programs = programs_after - programs
    op.sim_us = sim_after - sim_us
    if stats is not None:
        op.ram_high_water = stats.ram_high_water
        op.cache_hits = stats.cache.hits
        op.cache_lookups = stats.cache.lookups


def run_rounds(engine, rounds) -> list[float]:
    """Execute the plan; returns ops/s per round."""
    gc.collect()
    rates = []
    for ops in rounds:
        started = time.perf_counter()
        for op in ops:
            execute(engine, op)
        rates.append(len(ops) / (time.perf_counter() - started))
    return rates


def round_record(ops) -> list:
    """[digest of the round's results, flash reads, flash programs]."""
    digest = hashlib.sha256(
        json.dumps([op.result for op in ops], sort_keys=True).encode()
    ).hexdigest()
    return [
        digest,
        sum(op.reads for op in ops),
        sum(op.programs for op in ops),
    ]


def golden_key(seed: int, cfg: dict) -> str:
    """Everything the op plan and the hosted data depend on."""
    return json.dumps(
        {
            "seed": seed,
            "lineitems": cfg["lineitems"],
            "insert_batch": cfg["insert_batch"],
        },
        sort_keys=True,
    )


def verify(engine, rounds, seed: int, cfg: dict) -> tuple[int, list[str]]:
    oracle = Oracle(engine.data)
    failed = 0
    for ops in rounds:
        for op in ops:
            if op.result != oracle.answer(op):
                failed += 1
    notes = []
    golden = json.loads(GOLDEN.read_text()).get(golden_key(seed, cfg))
    if golden is not None:
        for index, (ops, expected) in enumerate(zip(rounds, golden)):
            if round_record(ops) != expected:
                failed += len(ops)
                notes.append(f"round {index} differs from the golden file")
    return failed, notes


def write_golden(seed: int, seconds: float, sizes: dict) -> None:
    """Record this commit's results and IO counts as the golden rounds."""
    cfg = sizes["token_engine"]
    engine = adapter.TokenEngine(cfg["lineitems"])
    rounds = plan(
        random.Random(seed), engine.data, cfg,
        max(1, round(cfg["rounds_per_second"] * seconds)),
    )
    run_rounds(engine, rounds)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[golden_key(seed, cfg)] = [round_record(ops) for ops in rounds]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


async def build(cfg: dict):
    """Load the database and build both Tselect indexes; billed to
    ``setup_s``."""
    return adapter.TokenEngine(cfg["lineitems"])


async def dispose(engine) -> None:
    del engine


def flat(rounds) -> list[Op]:
    return [op for ops in rounds for op in ops]


def add_flash_ios(metrics: Metrics, ops) -> None:
    metrics.add(
        "flash_ios_per_op",
        sum(op.reads + op.programs for op in ops) / len(ops), "count", len(ops),
    )


async def measure(name: str, seed: int, seconds: float, sizes: dict) -> dict:
    cfg = sizes[name]
    engine, setup_s = await repeated_setup(
        lambda: build(cfg), dispose, SETUP_REPEATS
    )
    rounds = plan(
        random.Random(seed), engine.data, cfg,
        max(1, round(cfg["rounds_per_second"] * seconds)),
    )
    rates = run_rounds(engine, rounds)
    failed, notes = verify(engine, rounds, seed, cfg)
    ops = flat(rounds)
    metrics = Metrics()
    end_to_end(
        metrics,
        setup_s,
        {kind: [op.seconds for op in ops if op.kind == kind] for kind in CALLS},
        rates,
    )
    add_flash_ios(metrics, ops)
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def replay_seconds(cfg, recorder, rounds) -> float:
    """The sampled ops again on a second, identically built engine."""
    engine = adapter.TokenEngine(cfg["lineitems"])
    gc.collect()
    started = time.perf_counter()
    for index, op in enumerate(flat(rounds)):
        with recorder.span("op", "bench", index):
            with recorder.span(op.kind, "relational", index):
                getattr(engine, CALLS[op.kind])(*op.args)
    return time.perf_counter() - started


async def trace(name: str, seed: int, seconds: float, sizes: dict, out) -> dict:
    cfg = sizes[name]
    engine = await build(cfg)
    rounds = plan(
        random.Random(seed), engine.data, cfg,
        max(REPLAY_ROUNDS, round(cfg["rounds_per_second"] * seconds / 2)),
    )
    run_rounds(engine, rounds)
    failed, notes = verify(engine, rounds, seed, cfg)

    sample = rounds[:REPLAY_ROUNDS]
    recorder = spans.Recorder()
    traced_s = replay_seconds(cfg, recorder, sample)
    plain_s = replay_seconds(cfg, spans.NullRecorder(), sample)
    recorder.write(out / f"trace_{name}.json")

    ops = flat(rounds)
    by_kind = {kind: [op for op in ops if op.kind == kind] for kind in CALLS}
    queries = [op for op in ops if op.kind in QUERIES]
    reading = queries + by_kind["scan"]
    metrics = Metrics()
    metrics.add(
        "relational.spj_ms",
        median(op.seconds for op in queries) * 1e3, "ms", len(queries),
    )
    metrics.add(
        "relational.scan_ms",
        median(op.seconds for op in by_kind["scan"]) * 1e3, "ms",
        len(by_kind["scan"]),
    )
    metrics.add(
        "relational.insert_batch_ms",
        median(op.seconds for op in by_kind["insert"]) * 1e3, "ms",
        len(by_kind["insert"]),
    )
    metrics.add(
        "relational.ram_high_water_bytes",
        max(op.ram_high_water for op in queries), "B", len(queries),
    )
    metrics.add(
        "storage.flash_reads_per_query",
        sum(op.reads for op in reading) / len(reading), "count", len(reading),
    )
    metrics.add(
        "storage.flash_programs_per_insert_batch",
        sum(op.programs for op in by_kind["insert"]) / len(by_kind["insert"]),
        "count", len(by_kind["insert"]),
    )
    lookups = sum(op.cache_lookups for op in queries)
    metrics.add(
        "storage.cache.hit_ratio",
        sum(op.cache_hits for op in queries) / lookups if lookups else 0.0,
        "ratio", lookups,
    )
    metrics.add(
        "hardware.sim_ms_per_query",
        sum(op.sim_us for op in reading) / len(reading) / 1e3, "ms",
        len(reading),
    )
    add_flash_ios(metrics, ops)
    live_s = sum(op.seconds for op in flat(sample))
    metrics.add(
        "unattributed_share",
        spans.unattributed_share(recorder, live_s), "ratio", len(flat(sample)),
    )
    metrics.add(
        "obs.bench_trace_overhead_share",
        (traced_s - plain_s) / plain_s, "ratio", len(flat(sample)),
    )
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }
