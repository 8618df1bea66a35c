"""E28 — High-throughput delta ingestion: the deltas/sec knee.

Claims under test:

* **exactness is free**: every ingest configuration — PDS-side pane
  coalescing (``DeltaBatcher``), batched folds of any chunk size, sharded
  folds on 1 or 2 workers — produces **bit-identical** pane-product
  ciphertexts at every sealed window boundary (same integers mod n², not
  merely the same plaintexts), and decrypting the folded state equals
  plaintext recollection over the tracked contribution state;
* **throughput is measured, not ratioed against a slow twin**: each cell
  reports SSI-side deltas/sec, with the first batched-serial cell as the
  1.00 row (the one-frame-one-fold path it used to be compared with is
  gone; its last measured ratios are kept in EXPERIMENTS.md);
* at the service layer, the bounded ingest queue **sheds instead of
  growing**: an open-loop burst past the queue depth raises ``Overloaded``
  per excess delta and every offered delta is accounted folded/shed/
  rejected — none silently vanish.

Three phases:

* **A — fold matrix**: one pre-encrypted delta timeline replayed through
  every (workers, batch) cell at the ``StandingRegistry`` layer, with
  the equality gate armed at every sealed boundary. SSI-side wall clock
  only — PDS-side coalescing cost is measured separately and reported in
  ``meta`` (it is distributed across data owners, not the SSI's bill).
* **B — open-loop knee**: ``OpenLoopDeltaStorm`` fires pre-encoded frames
  at a running ``SsiQueryService`` across an arrival-rate ladder;
  ``find_knee`` locates the highest rate where folds keep up. Frames are
  coalesced ``DELTA_BATCH`` frames, so the application-level knee is the
  wire knee times the coalescing factor.
* **C — overload probe**: a no-yield burst of one-entry ``DELTA_BATCH``
  frames into a tiny ingest queue must shed, and
  ``folded + shed + rejected == offered``.

The equality gate raises on the first mismatch, in smoke mode too — the
``continuous-smoke`` CI job runs this bench with workers=2 armed.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.bench.harness import (
    Experiment,
    record_wall_clock,
    run_and_print,
    smoke_mode,
)
from repro.crypto.paillier import generate_keypair
from repro.globalq.continuous import (
    DeltaBatcher,
    FoldShardTask,
    WindowSpec,
    fold_shard,
)
from repro.globalq.parallel import WorkerPool
from repro.globalq.queries import AggregateQuery
from repro.net.codec import KIND_DELTA_BATCH, Frame, encode_delta_batch
from repro.net.messages import EncryptedDelta
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    OpenLoopDeltaStorm,
    QueryDescriptor,
    ServiceConfig,
    SsiQueryService,
    find_knee,
    slim_population,
)
from repro.service.descriptor import FAMILY_SECURE_AGG
from repro.service.standing import StandingRegistry

QUERY = AggregateQuery.sum("salary")
DESCRIPTOR = QueryDescriptor(FAMILY_SECURE_AGG, QUERY)

WIDTH = 4
SLIDE = 2

#: Wire knee ladders are counted in *wire* deltas/s (what the SSI folds);
#: application rates multiply by each mode's coalescing factor.
KNEE_THRESHOLD = 0.9


def parameters() -> dict:
    if smoke_mode():
        return {
            "bits": 128,
            "pds_count": 32,
            "ticks": 6,
            "changes_per_pds_per_tick": 8,
            "workers": [1, 2],
            "batch_sizes": [16, 128],
            "fold_shard_size": 16,
            "knee_rates": [1000, 3000, 6000],
            "knee_seconds": 0.25,
            "knee_max_raw": 6000,
            "knee_frame_raw": 128,
            "burst_frames": 64,
        }
    return {
        "bits": 256,
        "pds_count": 128,
        "ticks": 10,
        "changes_per_pds_per_tick": 8,
        "workers": [1, 2],
        "batch_sizes": [64, 512],
        "fold_shard_size": 32,
        "knee_rates": [60000, 120000, 240000, 480000],
        "knee_seconds": 0.25,
        "knee_max_raw": 150000,
        "knee_frame_raw": 256,
        "burst_frames": 512,
    }


# ----------------------------------------------------------------------
# Phase A — the fold matrix
# ----------------------------------------------------------------------
def build_timeline(public, pds_count, ticks, changes_per_pds_per_tick, seed):
    """One pre-encrypted delta timeline plus its plaintext ledger.

    Every PDS changes ``changes_per_pds_per_tick`` times per tick (the hot
    write-storm shape coalescing targets: with pane width ``SLIDE`` that is
    ``changes * SLIDE`` raw deltas per (PDS, pane), coalescing to one wire
    delta). ``expected[b]`` is the plaintext ``(sum, count)`` a full
    recollection would produce at boundary ``b`` — the fold must decrypt to
    exactly it.
    """
    rng = random.Random(seed)
    pool = public.blinding_pool(seed=seed)
    by_tick: list[list[EncryptedDelta]] = []
    running = [0, 0]  # cumulative (value, count) of all deltas so far
    expected: dict[int, tuple[int, int]] = {}
    seqs = dict.fromkeys(range(pds_count), 0)
    counted = set()
    for t in range(ticks):
        if t % SLIDE == 0 and t > 0:
            expected[t] = (running[0], running[1])
        tick: list[EncryptedDelta] = []
        for pds in range(pds_count):
            for _ in range(changes_per_pds_per_tick):
                dv = rng.randrange(-50, 51)
                dc = 0
                if pds not in counted:
                    counted.add(pds)
                    dc = 1
                seqs[pds] += 1
                tick.append(
                    EncryptedDelta(
                        pds_id=pds,
                        seq=seqs[pds],
                        timestamp=t,
                        value_cipher=public.encrypt(dv, pool=pool),
                        count_cipher=public.encrypt(dc, pool=pool),
                    )
                )
                running[0] += dv
                running[1] += dc
        by_tick.append(tick)
    for b in range(SLIDE, ticks + 1, SLIDE):
        if b not in expected:
            expected[b] = (running[0], running[1])
    return by_tick, expected


def fresh_registry(public, pds_count, pool, shard_size):
    population = slim_population(pds_count)
    registry = StandingRegistry(
        population,
        registry=MetricsRegistry(),
        fold_pool=pool,
        fold_shard_size=shard_size,
    )
    sub = registry.subscribe(
        DESCRIPTOR, WindowSpec(WIDTH, SLIDE), public, local_source=False
    )
    return registry, sub


def run_cell(
    public,
    private,
    by_tick,
    expected,
    pds_count,
    mode: str,
    pool,
    shard_size,
    batch_size: int,
) -> dict:
    """Replay the timeline through one ingest configuration.

    Returns the SSI-side wall clock, the PDS-side (coalescing) wall clock,
    the published boundary ciphertexts (for the cross-cell bit-identity
    assertion), and the equality-gate verdict.
    """
    registry, sub = fresh_registry(public, pds_count, pool, shard_size)
    batcher = DeltaBatcher(public.n, sub.spec)
    ciphers: list[tuple] = []
    gate_ok = True
    raw = 0
    wire = 0
    ssi_s = 0.0
    pds_s = 0.0
    for t, tick in enumerate(by_tick):
        raw += len(tick)
        started = time.perf_counter()
        for delta in tick:
            batcher.add(sub.sub_id, delta)
        entries = batcher.flush()
        pds_s += time.perf_counter() - started
        wire += len(entries)
        started = time.perf_counter()
        for i in range(0, len(entries), batch_size):
            registry.ingest_many(entries[i : i + batch_size])
        updates = registry.advance(t + 1).get(sub.sub_id, [])
        ssi_s += time.perf_counter() - started
        for update in updates:
            ciphers.append(
                (
                    update.window_end,
                    update.live_value,
                    update.live_count,
                    update.window_value,
                    update.window_count,
                )
            )
            live = (
                private.decrypt_signed(update.live_value),
                private.decrypt_signed(update.live_count),
            )
            if live != expected[update.window_end]:
                gate_ok = False
                raise AssertionError(
                    f"equality gate [{mode}]: folded {live} != recollected "
                    f"{expected[update.window_end]} at {update.window_end}"
                )
    return {
        "raw": raw,
        "wire": wire,
        "ssi_s": ssi_s,
        "pds_s": pds_s,
        "ciphers": ciphers,
        "gate_ok": gate_ok,
        "duplicates": sub.standing.state.duplicates,
    }


def run_matrix(experiment: Experiment, params, public, private) -> dict:
    by_tick, expected = build_timeline(
        public,
        params["pds_count"],
        params["ticks"],
        params["changes_per_pds_per_tick"],
        seed=2028,
    )
    shard = params["fold_shard_size"]
    pool = WorkerPool(max(params["workers"]))
    # Warm the worker processes outside every timed region.
    pool.submit(fold_shard, FoldShardTask(0, 25, (3,), (4,))).result()

    cells = []
    reference = None  # the first batched-serial cell: the 1.00 row
    for workers in params["workers"]:
        for batch_size in params["batch_sizes"]:
            mode = "batched" if workers == 1 else "batched+sharded"
            cell = run_cell(
                public, private, by_tick, expected, params["pds_count"],
                mode, pool if workers > 1 else None, shard, batch_size,
            )
            rate = cell["raw"] / cell["ssi_s"]
            # Serial == parallel: the same integers mod n² at every sealed
            # boundary, for every (workers, batch) cell.
            if reference is None:
                reference, reference_rate = cell, rate
            elif cell["ciphers"] != reference["ciphers"]:
                raise AssertionError(
                    f"bit-identity broke at workers={workers} "
                    f"batch={batch_size}"
                )
            speedup = rate / reference_rate
            experiment.add_row(
                mode, workers, batch_size, cell["raw"], cell["wire"],
                round(cell["ssi_s"], 4), round(rate, 1),
                round(speedup, 2), cell["gate_ok"],
            )
            cells.append(
                {
                    "workers": workers,
                    "batch": batch_size,
                    "speedup": round(speedup, 2),
                    "pds_side_s": round(cell["pds_s"], 4),
                }
            )
    pool.close()
    return {
        "reference_deltas_per_s": round(reference_rate, 1),
        "coalesce_factor": round(
            reference["raw"] / max(1, coalesced_wire_count(by_tick)), 2
        ),
        "boundaries_checked": len(reference["ciphers"]),
        "cells": cells,
    }


def coalesced_wire_count(by_tick) -> int:
    """Wire deltas after coalescing: one per (PDS, pane) touched."""
    panes = set()
    for tick in by_tick:
        for delta in tick:
            panes.add((delta.pds_id, delta.timestamp // SLIDE))
    return len(panes)


# ----------------------------------------------------------------------
# Phase B — the open-loop knee
# ----------------------------------------------------------------------
def cipher_palette(public, seed: int, size: int = 48):
    """A small pool of pre-made ciphertexts storm streams sample from.

    Phase B measures the SSI's fold rate — the multiplications it performs
    are magnitude-identical whether the storm's ciphertexts are all fresh
    or drawn from a palette, and the palette keeps frame pre-encoding from
    dominating the bench's own wall clock at the top rates. (Phase A uses
    all-fresh ciphertexts; its equality gate needs real plaintext ledgers.)
    """
    rng = random.Random(seed)
    pool = public.blinding_pool(seed=seed)
    values = [
        public.encrypt(rng.randrange(-20, 21), pool=pool) for _ in range(size)
    ]
    zero_count = public.encrypt(0, pool=pool)
    return values, zero_count


def storm_frames(public, raw_count: int, frame_raw: int, seed):
    """Pre-encode one rate point's frames; returns (frames, wire_count).

    Raw deltas are chunked ``frame_raw`` at a time through a persistent
    ``DeltaBatcher`` (seqs stay monotone per PDS across frames) into
    ``DELTA_BATCH`` frames; ``frame_raw=1`` yields one-entry frames. All
    timestamps are 0 — the knee is about sustained fold rate, not window
    sealing, and Phase A already gates sealing exactness.
    """
    rng = random.Random(seed)
    values, zero_count = cipher_palette(public, seed)
    hot = 32
    seqs = dict.fromkeys(range(hot), 0)
    deltas = []
    for _ in range(raw_count):
        pds = rng.randrange(hot)
        seqs[pds] += 1
        deltas.append(
            EncryptedDelta(
                pds_id=pds,
                seq=seqs[pds],
                timestamp=0,
                value_cipher=rng.choice(values),
                count_cipher=zero_count,
            )
        )
    frames = []
    wire = 0
    batcher = DeltaBatcher(public.n, WindowSpec(WIDTH, SLIDE))
    for i in range(0, len(deltas), frame_raw):
        for delta in deltas[i : i + frame_raw]:
            batcher.add(1, delta)
        entries = batcher.flush()
        wire += len(entries)
        frames.append(
            (
                Frame(
                    KIND_DELTA_BATCH,
                    "pds",
                    len(frames) + 1,
                    encode_delta_batch(entries),
                ),
                len(entries),
            )
        )
    return frames, wire


def coalesce_probe(public, params) -> float:
    """Raw-per-wire ratio of the coalesced frame stream."""
    _frames, probe_wire = storm_frames(
        public, params["knee_frame_raw"], params["knee_frame_raw"], seed=1
    )
    return params["knee_frame_raw"] / max(1, probe_wire)


async def run_knee_point(
    public, params, mode: str, wire_rate: float, pool, factor: float
):
    """One (mode, rate) cell: fresh service, pre-encoded frames, storm."""
    # Offer the target *wire* rate: generate enough raw deltas that the
    # coalesced stream carries ~wire_rate × seconds wire deltas, capped so
    # frame pre-encoding stays bounded at the top of the ladder.
    raw_count = max(8, int(wire_rate * params["knee_seconds"] * factor))
    raw_count = min(raw_count, params["knee_max_raw"])
    frames, wire = storm_frames(
        public, raw_count, params["knee_frame_raw"], seed=int(wire_rate) + 2
    )
    config = ServiceConfig(
        pool=pool if mode == "batched+sharded" else None,
        fold_shard_size=params["fold_shard_size"],
    )
    service = SsiQueryService(
        slim_population(64), config=config, registry=MetricsRegistry()
    )
    service.start()
    try:
        service.standing.subscribe(
            DESCRIPTOR, WindowSpec(WIDTH, SLIDE), public, local_source=False
        )
        frame_rate = wire_rate * len(frames) / max(1, wire)
        report = await OpenLoopDeltaStorm(service, seed=7).run(
            frames, frame_rate, report_rate=wire_rate
        )
    finally:
        await service.stop()
    return report, raw_count


async def run_knee_sweep(params, public) -> dict:
    pool = WorkerPool(max(params["workers"]))
    pool.submit(fold_shard, FoldShardTask(0, 25, (3,), (4,))).result()
    sweep = {}
    try:
        for mode in ("batched", "batched+sharded"):
            reports = []
            raw_per_wire = coalesce_probe(public, params)
            for rate in params["knee_rates"]:
                report, raw_count = await run_knee_point(
                    public, params, mode, rate, pool, raw_per_wire
                )
                reports.append(report)
                if report.offered:
                    raw_per_wire = raw_count / report.offered
            knee = find_knee(reports, threshold=KNEE_THRESHOLD)
            # The nominal knee (find_knee over offered rates) only moves
            # when shedding starts; an open-loop generator that cannot
            # push frames faster than the service absorbs them saturates
            # *by duration* instead — the burst stretches past its nominal
            # length. "Sustained" is the honest number: deltas actually
            # through the pipe per second of wall clock.
            sustained = max(
                r.completed / r.duration_s
                for r in reports
                if r.duration_s > 0
            )
            sweep[mode] = {
                "knee_wire_deltas_per_s": knee["knee_rate_qps"],
                "knee_efficiency": round(knee["knee_efficiency"], 3),
                "coalesce_factor": round(raw_per_wire, 2),
                "sustained_wire_per_s": round(sustained, 1),
                "sustained_app_per_s": round(sustained * raw_per_wire, 1),
                "points": [
                    {
                        "wire_rate": r.rate,
                        "offered": r.offered,
                        "folded": r.completed,
                        "shed": r.shed,
                        "duration_s": round(r.duration_s, 3),
                        "achieved_wire_per_s": round(
                            r.completed / r.duration_s, 1
                        )
                        if r.duration_s > 0
                        else 0.0,
                    }
                    for r in reports
                ],
            }
    finally:
        pool.close()
    return sweep


# ----------------------------------------------------------------------
# Phase C — overload probe
# ----------------------------------------------------------------------
async def run_overload_probe(params, public) -> dict:
    """Burst past a tiny ingest queue with no yields: shedding must carry
    the overflow and the delta accounting must balance exactly."""
    config = ServiceConfig(ingest_queue_depth=8, ingest_batch_max=4)
    service = SsiQueryService(
        slim_population(64), config=config, registry=MetricsRegistry()
    )
    service.start()
    try:
        service.standing.subscribe(
            DESCRIPTOR, WindowSpec(WIDTH, SLIDE), public, local_source=False
        )
        frames, _ = storm_frames(public, params["burst_frames"], 1, seed=99)
        for frame, _count in frames:
            # no yield: the drain loop never runs in between
            service.ingest.offer(frame.payload)
        await service.ingest.drain()
    finally:
        counters = {
            name: service.registry.counter(name).value
            for name in (
                "globalq.ingest.folded",
                "globalq.ingest.shed",
                "globalq.ingest.rejected",
            )
        }
        await service.stop()
    offered = len(frames)
    accounted = sum(counters.values())
    return {
        "offered": offered,
        "folded": counters["globalq.ingest.folded"],
        "shed": counters["globalq.ingest.shed"],
        "rejected": counters["globalq.ingest.rejected"],
        "balanced": accounted == offered,
        "shed_engaged": counters["globalq.ingest.shed"] > 0,
    }


# ----------------------------------------------------------------------
def build_experiment() -> Experiment:
    params = parameters()
    experiment = Experiment(
        "e28",
        "High-throughput delta ingestion: batching, sharding, the knee",
        "every (workers, batch) cell folds bit-identical pane products "
        "and decrypts to recollection; the bounded ingest queue sheds "
        "instead of growing",
        [
            "mode", "workers", "batch", "raw_deltas", "wire_deltas",
            "ssi_s", "deltas_per_s", "speedup", "exact",
        ],
    )
    experiment.meta["smoke_mode"] = smoke_mode()
    experiment.meta["window"] = {"width": WIDTH, "slide": SLIDE}
    experiment.meta["paillier_bits"] = params["bits"]
    experiment.meta["fold_shard_size"] = params["fold_shard_size"]
    experiment.meta["throughput_model"] = (
        "deltas_per_s charges the SSI only: raw application deltas over "
        "SSI-side fold+advance wall clock. PDS-side coalescing cost is "
        "reported per cell as pds_side_s — it is distributed across data "
        "owners and overlaps SSI work in deployment"
    )
    experiment.meta["sharding_note"] = (
        "at these key sizes one fold is ~microseconds, so shipping shards "
        "to worker processes trades big-int time for IPC time; the "
        "workers=2 cells exist to pin bit-identity of the sharded path"
    )

    public, private = generate_keypair(params["bits"], random.Random(41))

    started = time.perf_counter()
    experiment.meta["matrix"] = run_matrix(experiment, params, public, private)
    record_wall_clock(experiment, "phase_a_matrix", time.perf_counter() - started)

    started = time.perf_counter()
    experiment.meta["knee"] = asyncio.run(run_knee_sweep(params, public))
    record_wall_clock(experiment, "phase_b_knee", time.perf_counter() - started)

    started = time.perf_counter()
    experiment.meta["overload"] = asyncio.run(
        run_overload_probe(params, public)
    )
    record_wall_clock(
        experiment, "phase_c_overload", time.perf_counter() - started
    )
    return experiment


def test_e28_ingest(benchmark):
    experiment = run_and_print(build_experiment)
    # Exactness at every cell — the gate already raised on any plaintext
    # mismatch; bit-identity across cells raised inside run_matrix.
    assert all(experiment.column("exact"))
    by_mode: dict[str, list[float]] = {}
    for mode, s in zip(
        experiment.column("mode"), experiment.column("speedup")
    ):
        by_mode.setdefault(mode, []).append(s)
    # The first batched-serial cell is the 1.00 row every other cell is
    # measured against; the sharded cells are gated on exactness only.
    assert by_mode["batched"][0] == 1.0
    assert by_mode.get("batched+sharded"), "matrix produced no sharded cells"
    overload = experiment.meta["overload"]
    assert overload["shed_engaged"] and overload["balanced"]
    knee = experiment.meta["knee"]
    assert knee["batched"]["sustained_app_per_s"] > 0

    # pytest-benchmark row: one coalesced batch fold at the registry layer.
    public, private = generate_keypair(128, random.Random(3))
    by_tick, _expected = build_timeline(public, 16, 2, 4, seed=5)
    registry, sub = fresh_registry(public, 16, None, 16)
    batcher = DeltaBatcher(public.n, sub.spec)
    for tick in by_tick:
        for delta in tick:
            batcher.add(sub.sub_id, delta)
    entries = batcher.flush()
    state = [0]

    def one_batch():
        # Refold the same coalesced batch against a fresh subscription —
        # steady-state ingest_many cost without advance/seal noise.
        reg, s = fresh_registry(public, 16, None, 16)
        reg.ingest_many([(s.sub_id, d) for _sid, d in entries])
        state[0] += 1

    benchmark(one_batch)
    assert state[0] > 0


if __name__ == "__main__":
    run_and_print(build_experiment)
