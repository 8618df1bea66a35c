"""``query_wire`` and ``scale_sharded``: wire QUERY frames against the live SSI.

Both send ``KIND_QUERY`` frames for the four ``standard_mix()`` classes from
one querier endpoint and time each op until its ``KIND_RESULT`` is decoded.

* ``query_wire`` is an **open loop**: requests are due on a schedule at a
  fixed rate whatever the service does, and latency runs from the instant a
  request was *due*, so a stall is billed to every request it delays.
  Collection runs inline (``workers=1``). The measured run paces arrivals
  evenly with a seeded jitter; the traced run offers the same rate as
  Poisson arrivals (see ``live_phase``).
* ``scale_sharded`` is a **closed loop** with one querier: the next request
  leaves when the previous answer arrived. Collection is sharded over a
  two-process ``WorkerPool``, so pickling, IPC and merge are on the path.

The class order is a balanced deck (every cycle of four holds each class
once, shuffled by the seed), so the op mix is the same on every seed.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from dataclasses import dataclass, field

import adapter
import spans
from benchstats import (
    Metrics,
    end_to_end,
    median,
    percentile,
    repeated_setup,
    seconds_per_call,
)
from sizes import SETUP_REPEATS

#: Traced run: ops per class sent one at a time for the unloaded latency,
#: then replayed stage by stage.
UNLOADED_PER_CLASS = 3
#: A generator whose median lateness exceeds this share of the median
#: latency did not offer the schedule it claims; the run is invalid.
MAX_LATENESS_SHARE = 0.05

TIMER_SLACK = 0.002

RUN_QUERY_NAMES = ("secure_agg_sum", "secure_agg_count", "noise", "histogram")


@dataclass
class Op:
    request_id: int
    query_class: int  # index into the mix
    request: dict
    due: float = 0.0
    lateness: float = 0.0
    done: float = 0.0
    ok: bool = False
    body: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.done - self.due


def deck(rng: random.Random, requests, cycles: int, first_id: int) -> list[Op]:
    ops = []
    for _ in range(cycles):
        for index in rng.sample(range(len(requests)), len(requests)):
            ops.append(Op(first_id + len(ops), index, requests[index]))
    return ops


def poisson_offsets(rng: random.Random, count: int, rate: float) -> list[float]:
    """Due times of ``count`` Poisson arrivals, first at 0, conditioned on
    the last falling at ``(count - 1) / rate`` — the offered rate is exact
    on every seed while the gaps stay exponential."""
    gaps = [rng.expovariate(1.0) for _ in range(count - 1)]
    scale = (count - 1) / rate / sum(gaps) if gaps else 0.0
    offsets = [0.0]
    for gap in gaps:
        offsets.append(offsets[-1] + gap * scale)
    return offsets


def paced_offsets(rng: random.Random, count: int, rate: float) -> list[float]:
    """Due times one gap apart, each moved later by a seeded jitter of up
    to a fifth of the gap, so sends do not lock to the timer's phase."""
    return [(i + rng.uniform(0.0, 0.2)) / rate for i in range(count)]


async def closed_loop(svc, ops) -> None:
    for op in ops:
        op.due = time.perf_counter()
        await svc.send(op.request_id, op.request)
        op.ok, op.body = await svc.recv()
        op.done = time.perf_counter()


async def open_loop(svc, ops, offsets) -> None:
    by_id = {op.request_id: op for op in ops}

    async def receive() -> None:
        for _ in ops:
            ok, body = await svc.recv()
            op = by_id[body["request_id"]]
            op.ok, op.body, op.done = ok, body, time.perf_counter()

    receiver = asyncio.ensure_future(receive())
    start = time.perf_counter()
    for op, offset in zip(ops, offsets):
        op.due = start + offset
        # Timers wake about a millisecond late; sleep short of the due
        # time and yield through the rest.
        delay = op.due - time.perf_counter() - TIMER_SLACK
        if delay > 0:
            await asyncio.sleep(delay)
        while time.perf_counter() < op.due:
            await asyncio.sleep(0)
        op.lateness = max(0.0, time.perf_counter() - op.due)
        await svc.send(op.request_id, op.request)
    await receiver


def verify(svc, ops) -> int:
    """Ops whose served answer is not ``run_query`` re-run on the recorded
    (snapshot, seed). Replays of one (request, version, seed) must equal
    its first serving, so each unique triple is re-run once."""
    snapshot = svc.snapshot()
    reference: dict[tuple[int, int], dict] = {}
    failed = 0
    for op in ops:
        if not op.ok or op.body.get("version") != snapshot.version:
            failed += 1
            continue
        key = (op.query_class, op.body["seed"])
        if key not in reference:
            reference[key] = svc.run_direct(
                adapter.descriptor_of(op.request), snapshot, op.body["seed"]
            )
        if op.body["result"] != reference[key]:
            failed += 1
    return failed


async def build(cfg, requests):
    """Population, service, pool spawn and one warm-up op per class: the
    lazy set-up (worker start, first task, per-class code paths) is forced
    here and billed to ``setup_s``."""
    svc = adapter.QueryService(cfg["population"], cfg["workers"])
    await svc.start()
    await closed_loop(svc, deck(random.Random(0), requests, 1, first_id=1))
    return svc


async def live_phase(name, svc, cfg, rng, requests, seconds, bursty=False):
    """The timed phase. Returns (ops, ops/s samples).

    The open loop's bounded end-to-end latency comes from paced arrivals.
    Under Poisson arrivals the service (four executor threads sharing one
    interpreter) runs about 40 % of ops alone and the rest overlapped, so
    the median of the 50 ops a run affords falls between the two modes and
    moved by 17 % of itself from seed to seed. ``bursty`` keeps the Poisson
    schedule for the traced run, whose queueing metrics carry no bound.
    """
    gc.collect()
    if name == "query_wire":
        count = max(len(requests), round(cfg["rate_qps"] * seconds))
        cycles = -(-count // len(requests))
        ops = deck(rng, requests, cycles, first_id=100)[:count]
        if bursty:
            offsets = poisson_offsets(
                random.Random(cfg["schedule_seed"]), count, cfg["rate_qps"]
            )
        else:
            offsets = paced_offsets(rng, count, cfg["rate_qps"])
        await open_loop(svc, ops, offsets)
        wall = max(op.done for op in ops) - ops[0].due
        return ops, [sum(op.ok for op in ops) / wall]
    cycles = max(1, round(cfg["cycles_per_second"] * seconds))
    ops = deck(rng, requests, cycles, first_id=100)
    await closed_loop(svc, ops)
    width = len(requests)
    rates = [
        width / (ops[i + width - 1].done - ops[i].due)
        for i in range(0, len(ops), width)
    ]
    return ops, rates


def latencies_by_class(ops) -> dict[int, list[float]]:
    out: dict[int, list[float]] = {}
    for op in ops:
        out.setdefault(op.query_class, []).append(op.latency)
    return out


def add_lateness(metrics: Metrics, ops) -> float:
    """How late each send fired against its schedule; returns the median."""
    late = [op.lateness * 1000.0 for op in ops]
    metrics.add("loadgen.lateness_p50_ms", median(late), "ms", len(ops))
    metrics.add("loadgen.lateness_max_ms", max(late), "ms", len(ops))
    return median(late)


async def measure(name: str, seed: int, seconds: float, sizes: dict) -> dict:
    cfg = sizes[name]
    requests = adapter.query_requests()
    rng = random.Random(seed)
    svc, setup_s = await repeated_setup(
        lambda: build(cfg, requests), adapter.QueryService.stop, SETUP_REPEATS
    )
    try:
        bytes_before = svc.wire_bytes
        ops, rates = await live_phase(name, svc, cfg, rng, requests, seconds)
        wire = svc.wire_bytes - bytes_before
    finally:
        await svc.stop()
    failed = verify(svc, ops)
    metrics = Metrics()
    children = cfg["workers"] if cfg["workers"] > 1 else 0
    end_to_end(metrics, setup_s, latencies_by_class(ops), rates, children)
    metrics.add("wire_bytes_per_op", wire / len(ops), "B", len(ops))
    notes = []
    if name == "query_wire":
        late_p50 = add_lateness(metrics, ops)
        limit = MAX_LATENESS_SHARE * metrics["latency_p50_ms"]["value"]
        if late_p50 > limit:
            notes.append(
                f"invalid: median generator lateness {late_p50:.2f} ms "
                f"exceeds {limit:.2f} ms"
            )
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "valid": not notes,
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def replay(svc, recorder, op: Op, sharded: bool) -> None:
    """One query, stage by stage through the public layer functions."""
    op_id = op.request_id
    with recorder.span("op", "bench", op_id):
        with recorder.span("encode_query", "net", op_id):
            data = adapter.frame_to_bytes(
                adapter.query_frame(op_id, op.request)
            )
        with recorder.span("decode_query", "net", op_id):
            body = adapter.frame_body(data)
        with recorder.span("descriptor", "service", op_id):
            descriptor = adapter.descriptor_of(body)
        with recorder.span("snapshot", "service", op_id):
            snapshot = svc.snapshot()
        with recorder.span("run_query", "globalq", op_id):
            result = svc.run_direct(
                descriptor, snapshot, op.body["seed"], sharded
            )
        with recorder.span("encode_result", "net", op_id):
            data = adapter.frame_to_bytes(
                adapter.result_frame(op_id, dict(op.body, result=result))
            )
        with recorder.span("decode_result", "net", op_id):
            adapter.frame_body(data)


def replay_seconds(svc, recorder, ops, sharded: bool) -> float:
    started = time.perf_counter()
    for op in ops:
        replay(svc, recorder, op, sharded)
    return time.perf_counter() - started


async def layer_probes(svc, metrics: Metrics, requests, sample: Op) -> None:
    """Time calls into each layer's public functions from outside."""
    us = 1e6
    request = sample.request
    query_bytes = adapter.frame_to_bytes(adapter.query_frame(1, request))
    result_bytes = adapter.frame_to_bytes(adapter.result_frame(1, sample.body))
    codec = {
        "query_encode": lambda: adapter.frame_to_bytes(
            adapter.query_frame(1, request)
        ),
        "query_decode": lambda: adapter.frame_body(query_bytes),
        "result_encode": lambda: adapter.frame_to_bytes(
            adapter.result_frame(1, sample.body)
        ),
        "result_decode": lambda: adapter.frame_body(result_bytes),
    }
    for name, call in codec.items():
        metrics.add(
            f"net.codec.{name}_us", seconds_per_call(call, 500) * us, "us", 5
        )
    hops = [await adapter.bus_hop_seconds(200) for _ in range(5)]
    metrics.add("net.bus.hop_us", median(hops) * us, "us", 5)

    submits = 1000
    controller = adapter.admission_controller(5 * submits)
    metrics.add(
        "service.admission.submit_us",
        seconds_per_call(lambda: controller.submit("probe", None), submits)
        * us, "us", 5,
    )
    metrics.add(
        "service.population.snapshot_us",
        seconds_per_call(svc.snapshot, 50) * us, "us", 5,
    )
    cache, descriptor, entry = svc.result_cache()
    metrics.add(
        "service.cache.put_us",
        seconds_per_call(lambda: cache.put(descriptor, entry), 500) * us,
        "us", 5,
    )
    metrics.add(
        "service.cache.get_us",
        seconds_per_call(lambda: cache.get(descriptor), 500) * us, "us", 5,
    )

    snapshot = svc.snapshot()
    for short, request in zip(RUN_QUERY_NAMES, requests):
        descriptor = adapter.descriptor_of(request)
        seconds = seconds_per_call(
            lambda: svc.run_direct(descriptor, snapshot, 1), 1, repeats=3
        )
        metrics.add(f"globalq.run_query_ms.{short}", seconds * 1e3, "ms", 3)
    collect_s = seconds_per_call(svc.collect_once, 1, repeats=3)
    metrics.add(
        "globalq.collect_ms_per_kpds",
        collect_s * 1e3 / (len(snapshot.nodes) / 1000.0), "ms", 3,
    )

    cipher = svc.symmetric_cipher()
    plaintext = bytes(range(48))
    blob = cipher.encrypt(plaintext)
    metrics.add(
        "crypto.symmetric.encrypt_us",
        seconds_per_call(lambda: cipher.encrypt(plaintext), 500) * us,
        "us", 5,
    )
    metrics.add(
        "crypto.symmetric.decrypt_us",
        seconds_per_call(lambda: cipher.decrypt(blob), 500) * us, "us", 5,
    )


def parallel_probe(svc, metrics: Metrics, request: dict) -> None:
    """The same job at workers=1 and over the pool."""
    snapshot = svc.snapshot()
    descriptor = adapter.descriptor_of(request)
    serial = seconds_per_call(
        lambda: svc.run_direct(descriptor, snapshot, 1), 1, repeats=3
    )
    sharded = seconds_per_call(
        lambda: svc.run_direct(descriptor, snapshot, 1, True), 1, repeats=3
    )
    metrics.add("globalq.parallel.serial_s", serial, "s", 3)
    metrics.add("globalq.parallel.sharded_s", sharded, "s", 3)
    metrics.add("globalq.parallel.speedup_vs_serial", serial / sharded, "ratio", 3)


async def trace(name: str, seed: int, seconds: float, sizes: dict, out) -> dict:
    cfg = sizes[name]
    requests = adapter.query_requests()
    rng = random.Random(seed)
    sharded = cfg["workers"] > 1
    svc = await build(cfg, requests)
    try:
        # Unloaded wire latency: one op in the system at a time.
        gc.collect()
        sample = deck(rng, requests, UNLOADED_PER_CLASS, first_id=10)
        await closed_loop(svc, sample)
        bytes_before = svc.wire_bytes
        ops, _rates = await live_phase(
            name, svc, cfg, rng, requests, seconds / 2, bursty=True
        )
        wire = svc.wire_bytes - bytes_before

        # The same sample, stage by stage, with and without recording.
        gc.collect()
        recorder = spans.Recorder()
        traced_s = replay_seconds(svc, recorder, sample, sharded)
        plain_s = replay_seconds(svc, spans.NullRecorder(), sample, sharded)

        metrics = Metrics()
        await layer_probes(svc, metrics, requests, sample[0])
        if sharded:
            parallel_probe(svc, metrics, requests[0])
    finally:
        await svc.stop()
    recorder.write(out / f"trace_{name}.json")

    failed = verify(svc, sample + ops)
    live_s = sum(op.latency for op in sample)
    unloaded_ms = median(op.latency for op in sample) * 1e3
    staged = recorder.self_times()
    staged_ms = (sum(staged.values()) - staged["bench"]) * 1e3 / len(sample)
    latencies_ms = [op.latency * 1e3 for op in ops]
    metrics.add(
        "service.dispatch_overhead_ms",
        live_s * 1e3 / len(sample) - staged_ms, "ms", len(sample),
    )
    metrics.add(
        "service.latency_p90_ms", percentile(latencies_ms, 0.9), "ms", len(ops)
    )
    if name == "query_wire":
        metrics.add(
            "service.queue_wait_ms",
            median(latencies_ms) - unloaded_ms, "ms", len(ops),
        )
        add_lateness(metrics, ops)
    metrics.add("wire_bytes_per_op", wire / len(ops), "B", len(ops))
    metrics.add(
        "unattributed_share",
        spans.unattributed_share(recorder, live_s), "ratio", len(sample),
    )
    metrics.add(
        "obs.bench_trace_overhead_share",
        (traced_s - plain_s) / plain_s, "ratio", len(sample),
    )
    return {
        "attempted": len(sample) + len(ops),
        "failed": failed,
        "metrics": metrics,
        "notes": [],
    }
