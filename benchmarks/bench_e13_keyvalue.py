"""E13 — Key-value extension: Bloom-pruned gets and log-only compaction.

The framework applied to the NoSQL model the tutorial names. Claims under
test: a ``get`` touches the summary log plus ~one data page regardless of
store size (unlike the RAM-per-key designs the tutorial reviews, the token
keeps **zero** RAM per key); update-heavy histories are compacted into a
fresh store via external sort with only sequential writes, reclaiming dead
versions block-wise.
"""

from __future__ import annotations

import random

from repro.bench.harness import Experiment, run_and_print
from repro.hardware.flash import BlockAllocator, FlashGeometry, NandFlash
from repro.hardware.ram import RamArena
from repro.keyvalue.kv import LogKeyValueStore


def make_allocator(blocks=16384) -> BlockAllocator:
    flash = NandFlash(
        FlashGeometry(page_size=256, pages_per_block=16, num_blocks=blocks)
    )
    return BlockAllocator(flash)


def build_get_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E13",
        title="KV get cost vs store size (zero RAM per key)",
        claim="get = summary scan + ~1 data page; data pages touched stay "
        "flat as the store grows; summary log ~10x smaller than data",
        columns=["records", "data_pages", "get_summary_ios", "avg_get_data_ios"],
    )
    for num_records in (2_000, 8_000, 24_000):
        store = LogKeyValueStore(make_allocator(), bits_per_key=16.0)
        for i in range(num_records):
            store.put(f"user:{i:06d}".encode(), b"profile" * 3)
        store.flush()
        # Average over 20 probes: a single key's Bloom positions are fixed
        # across the (equal-sized) page filters, so per-key cost is spiky.
        data_ios = []
        for probe_index in range(0, num_records, num_records // 20):
            probe = f"user:{probe_index:06d}".encode()
            assert store.get(probe) == b"profile" * 3
            data_ios.append(store.last_get.data_pages)
        experiment.add_row(
            num_records,
            store.data_pages,
            store.last_get.summary_pages,
            round(sum(data_ios) / len(data_ios), 2),
        )
    return experiment


def build_compaction_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E13-compaction",
        title="Compaction of update-heavy histories",
        claim="live state preserved exactly; space shrinks by the dead-"
        "version ratio; sequential writes only",
        columns=[
            "writes", "distinct_keys", "pages_before", "pages_after",
            "reclaim_factor", "state_equal",
        ],
    )
    rng = random.Random(4)
    for writes, distinct in ((4_000, 100), (12_000, 100), (12_000, 2_000)):
        allocator = make_allocator()
        store = LogKeyValueStore(allocator, bits_per_key=12.0)
        model: dict[bytes, bytes] = {}
        for i in range(writes):
            key = f"k{rng.randrange(distinct):05d}".encode()
            if rng.random() < 0.1:
                store.delete(key)
                model.pop(key, None)
            else:
                value = f"v{i}".encode()
                store.put(key, value)
                model[key] = value
        store.flush()
        before = store.data_pages
        compacted = store.compact(RamArena(64 * 1024), sort_buffer_bytes=8192)
        store.drop()
        experiment.add_row(
            writes,
            distinct,
            before,
            compacted.data_pages,
            round(before / max(1, compacted.data_pages), 1),
            compacted.items() == model,
        )
    return experiment


def test_e13_get_cost(benchmark):
    experiment = run_and_print(build_get_experiment)
    data_ios = experiment.column("avg_get_data_ios")
    # 1 true page + mean Bloom false positives (pages x fpr stays small).
    assert all(ios <= 5 for ios in data_ios)
    summaries = experiment.column("get_summary_ios")
    pages = experiment.column("data_pages")
    assert all(s < p / 5 for s, p in zip(summaries, pages))

    store = LogKeyValueStore(make_allocator(), bits_per_key=12.0)
    for i in range(4000):
        store.put(f"user:{i:06d}".encode(), b"v")
    store.flush()
    benchmark(store.get, b"user:002000")


def test_e13_compaction(benchmark):
    experiment = run_and_print(build_compaction_experiment)
    assert all(experiment.column("state_equal"))
    factors = experiment.column("reclaim_factor")
    # Update-heavy history (12k writes on 100 keys) reclaims massively;
    # the wide-key run reclaims little (few dead versions).
    assert factors[1] > 20
    assert factors[1] > factors[2]

    benchmark(lambda: None)
