"""``delta_ingest``: DELTA_BATCH frames into a standing windowed SUM.

Closed loop with a bounded backlog. One PDS endpoint encodes a pane's
``DELTA_BATCH`` frames just in time and sends them; the generator then
seals the pane with ``publish_windows`` and the querier decodes and
decrypts the ``UPDATE``. A pane holds half of ``ingest_queue_depth``
deltas, so nothing is ever shed. The op is one wire delta; the op latency
is *freshness*: from the pane's last frame sent to its UPDATE decrypted.

Ciphertexts are drawn from a palette of (plaintext, ciphertext) pairs, so
every sealed window's plaintext is known and checked after the timed phase.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

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

#: Panes of the live phase the traced run replays stage by stage.
REPLAY_PANES = 2
PANE_WIDTH = 2  # simulated time units per pane (the window's slide)


@dataclass
class Pane:
    index: int
    frames: list  # rows per frame
    started: float = 0.0
    sent: float = 0.0
    seal_s: float = 0.0
    done: float = 0.0
    published: int = 0
    decrypted: tuple = ()

    @property
    def deltas(self) -> int:
        return sum(len(rows) for rows in self.frames)


class Generator:
    """Seeded delta rows plus the plaintext ledger they imply."""

    def __init__(self, svc, cfg: dict) -> None:
        self.svc = svc
        self.cfg = cfg
        self.seqs = [0] * cfg["pds"]
        self.frame_seq = 0
        self.next_pane = 0
        #: Net plaintext (value, count) per pane, in pane order.
        self.pane_sums: list[tuple[int, int]] = []

    def pane(self, rng: random.Random, frames: int) -> Pane:
        cfg, plain = self.cfg, self.svc.plaintexts
        timestamp = self.next_pane * PANE_WIDTH
        value_sum = count_sum = 0
        out = []
        for _ in range(frames):
            rows = []
            for pds in rng.sample(range(cfg["pds"]), cfg["frame_deltas"]):
                self.seqs[pds] += 1
                v = rng.randrange(len(plain))
                c = rng.randrange(len(plain))
                value_sum += plain[v]
                count_sum += plain[c]
                rows.append((pds, self.seqs[pds], timestamp, v, c))
            out.append(rows)
        self.pane_sums.append((value_sum, count_sum))
        pane = Pane(self.next_pane, out)
        self.next_pane += 1
        return pane

    def expected(self, pane: Pane) -> tuple[int, int, int, int]:
        """Running totals through ``pane`` and the net of its window."""
        through = self.pane_sums[: pane.index + 1]
        window = through[-adapter.WINDOW.panes_per_window :]
        return (
            sum(v for v, _ in through), sum(c for _, c in through),
            sum(v for v, _ in window), sum(c for _, c in window),
        )

    async def run(self, pane: Pane) -> None:
        svc = self.svc
        pane.started = time.perf_counter()
        for rows in pane.frames:
            self.frame_seq += 1
            await svc.send(svc.batch_frame(self.frame_seq, rows))
        pane.sent = time.perf_counter()
        await svc.received()
        pane.published = await svc.seal((pane.index + 1) * PANE_WIDTH)
        pane.seal_s = time.perf_counter() - pane.sent
        payload = await svc.recv_update()
        pane.decrypted = svc.decrypt(adapter.update_of(payload))
        pane.done = time.perf_counter()


async def build(cfg: dict, seed: int):
    """Key pair, blinding tables, palette, subscription, and one small
    warm-up pane through fold, seal and decrypt (ingest thread start, CRT
    constants): all lazy set-up happens here and is billed to ``setup_s``."""
    svc = adapter.DeltaService(
        cfg["key_bits"], cfg["key_seed"], seed, cfg["palette"]
    )
    await svc.start()
    generator = Generator(svc, cfg)
    warm = generator.pane(random.Random(0), frames=1)
    await generator.run(warm)
    generator.warm = warm
    return generator


async def dispose(generator) -> None:
    await generator.svc.stop()


async def live_phase(generator, cfg, rng, seconds) -> list[Pane]:
    count = max(1, round(cfg["panes_per_second"] * seconds))
    panes = [generator.pane(rng, cfg["frames_per_pane"]) for _ in range(count)]
    gc.collect()
    for pane in panes:
        await generator.run(pane)
    return panes


def verify(generator, panes) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes): each sealed window against the ledger,
    and the ingest accounting ``offered == folded + shed + rejected``."""
    notes = []
    failed = 0
    for pane in panes:
        if pane.published != 1 or pane.decrypted != generator.expected(pane):
            failed += pane.deltas
    offered = sum(pane.deltas for pane in panes)
    counts = generator.svc.ingest_counts()
    if sum(counts.values()) != offered:
        notes.append(f"ingest accounting does not balance: {counts} vs {offered}")
        failed = max(failed, offered - counts["folded"])
    failed += counts["shed"] + counts["rejected"]
    return offered, min(failed, offered), notes


async def measure(name: str, seed: int, seconds: float, sizes: dict) -> dict:
    cfg = sizes[name]
    rng = random.Random(seed)
    generator, setup_s = await repeated_setup(
        lambda: build(cfg, seed), dispose, SETUP_REPEATS
    )
    svc = generator.svc
    try:
        bytes_before = svc.wire_bytes
        panes = await live_phase(generator, cfg, rng, seconds)
        wire = svc.wire_bytes - bytes_before
        attempted, failed, notes = verify(generator, [generator.warm] + panes)
    finally:
        await svc.stop()
    metrics = Metrics()
    end_to_end(
        metrics,
        setup_s,
        {"pane": [pane.done - pane.sent for pane in panes]},
        [pane.deltas / (pane.done - pane.started) for pane in panes],
    )
    timed = sum(pane.deltas for pane in panes)
    metrics.add("wire_bytes_per_op", wire / timed, "B", timed)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def replay(svc, registry, recorder, pane: Pane) -> None:
    """One pane, stage by stage through the public layer functions."""
    op = pane.index
    with recorder.span("op", "bench", op):
        for seq, rows in enumerate(pane.frames):
            with recorder.span("encode_batch", "net", op):
                data = adapter.frame_to_bytes(svc.batch_frame(seq, rows))
            with recorder.span("decode_batch", "net", op):
                entries = adapter.batch_entries(adapter.frame_payload(data))
            with recorder.span("ingest_many", "globalq", op):
                registry.ingest_many(entries)
        with recorder.span("advance", "globalq", op):
            published = registry.advance((pane.index + 1) * PANE_WIDTH)
        (update,) = published[svc.sub_id]
        with recorder.span("encode_update", "net", op):
            data = adapter.frame_to_bytes(svc.update_frame(update))
        with recorder.span("decode_update", "net", op):
            update = adapter.update_of(adapter.frame_payload(data))
        with recorder.span("decrypt", "crypto", op):
            svc.decrypt(update)


def replay_seconds(svc, recorder, panes) -> float:
    registry = svc.standing_registry(start=panes[0].index * PANE_WIDTH)
    started = time.perf_counter()
    for pane in panes:
        replay(svc, registry, recorder, pane)
    return time.perf_counter() - started


def span_seconds(recorder, name: str) -> list[float]:
    return [
        s["end"] - s["start"] for s in recorder.spans if s["name"] == name
    ]


def layer_probes(svc, metrics: Metrics, cfg, rows) -> None:
    us = 1e6
    public, ciphers = svc.public, svc.ciphertexts
    metrics.add(
        "crypto.paillier.encrypt_pool_us",
        seconds_per_call(lambda: public.encrypt(7, pool=svc.blinding), 64)
        * us, "us", 5,
    )
    metrics.add(
        "crypto.paillier.mulmod_us",
        seconds_per_call(lambda: public.add(ciphers[0], ciphers[1]), 500)
        * us, "us", 5,
    )
    metrics.add(
        "crypto.paillier.negate_us",
        seconds_per_call(lambda: public.negate(ciphers[0]), 5) * us, "us", 5,
    )
    metrics.add(
        "crypto.fastexp.pool_next_us",
        seconds_per_call(svc.blinding.next, 64) * us, "us", 5,
    )
    entries = svc.deltas(rows)

    def batch_adds() -> None:
        batcher = svc.batcher()
        for sub_id, delta in entries:
            batcher.add(sub_id, delta)

    metrics.add(
        "globalq.batcher.add_us",
        seconds_per_call(batch_adds, 1) * us / len(entries), "us", 5,
    )


async def trace(name: str, seed: int, seconds: float, sizes: dict, out) -> dict:
    cfg = sizes[name]
    rng = random.Random(seed)
    generator = await build(cfg, seed)
    svc = generator.svc
    try:
        bytes_before = svc.wire_bytes
        panes = await live_phase(generator, cfg, rng, seconds / 2)
        wire = svc.wire_bytes - bytes_before
        attempted, failed, notes = verify(generator, [generator.warm] + panes)
        fold_ms_p50, queue_depth_max = svc.ingest_telemetry()
    finally:
        await svc.stop()

    sample = panes[-REPLAY_PANES:]
    gc.collect()
    recorder = spans.Recorder()
    traced_s = replay_seconds(svc, recorder, sample)
    plain_s = replay_seconds(svc, spans.NullRecorder(), sample)
    recorder.write(out / f"trace_{name}.json")

    metrics = Metrics()
    deltas = sum(pane.deltas for pane in sample)
    frames = sum(len(pane.frames) for pane in sample)
    for stage, metric in (
        ("encode_batch", "net.codec.delta_batch_encode_us_per_delta"),
        ("decode_batch", "net.codec.delta_batch_decode_us_per_delta"),
        ("ingest_many", "globalq.fold_us_per_delta"),
    ):
        total = sum(span_seconds(recorder, stage))
        metrics.add(metric, total * 1e6 / deltas, "us", frames)
    metrics.add(
        "net.codec.update_decode_us",
        median(span_seconds(recorder, "decode_update")) * 1e6, "us", len(sample),
    )
    metrics.add(
        "globalq.seal_ms",
        median(span_seconds(recorder, "advance")) * 1e3, "ms", len(sample),
    )
    # One UPDATE carries four ciphertexts; the querier decrypts each.
    metrics.add(
        "crypto.paillier.decrypt_crt_ms",
        median(span_seconds(recorder, "decrypt")) * 1e3 / 4, "ms", len(sample),
    )
    layer_probes(svc, metrics, cfg, sample[0].frames[0])

    freshness_ms = [(pane.done - pane.sent) * 1e3 for pane in panes]
    metrics.add(
        "service.latency_p90_ms", percentile(freshness_ms, 0.9), "ms", len(panes)
    )
    metrics.add("service.ingest.fold_batch_ms_p50", fold_ms_p50, "ms", len(panes))
    metrics.add("service.ingest.queue_depth_max", queue_depth_max, "count")
    metrics.add(
        "service.publish_windows_ms",
        median(pane.seal_s for pane in panes) * 1e3, "ms", len(panes),
    )
    timed = sum(pane.deltas for pane in panes)
    metrics.add("wire_bytes_per_op", wire / timed, "B", timed)
    live_s = sum(pane.done - pane.started for pane in sample)
    metrics.add(
        "unattributed_share",
        spans.unattributed_share(recorder, live_s), "ratio", len(sample),
    )
    metrics.add(
        "obs.bench_trace_overhead_share",
        (traced_s - plain_s) / plain_s, "ratio", len(sample),
    )
    if queue_depth_max > svc.ingest_queue_depth / 2:
        notes.append(
            f"backlog {queue_depth_max} exceeded half the ingest queue depth"
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }
