"""E5 — Why log structures: random in-place updates vs sequential appends.

Claim under test (the "Severe hardware constraints" slide): NAND erases by
block and programs by page, so updating records in place forces one block
erase + block rewrite per touched page, while the log-structured layout
turns the same workload into pure sequential programs — an order of
magnitude less simulated time and no write amplification.
"""

from __future__ import annotations

import random

from repro.bench.harness import Experiment, run_and_print
from repro.hardware.flash import BlockAllocator, FlashGeometry, NandFlash
from repro.storage.log import RecordLog

GEOMETRY = FlashGeometry(page_size=512, pages_per_block=16, num_blocks=4096)


def in_place_updates(num_pages: int, num_updates: int, seed: int) -> NandFlash:
    """The naive layout: records at fixed pages, updates rewrite in place.

    An in-place page update on NAND requires erasing the whole enclosing
    block and reprogramming every page of it (no rewrite without erase).
    """
    flash = NandFlash(GEOMETRY)
    per_block = GEOMETRY.pages_per_block
    for page in range(num_pages):
        flash.program_page(page, b"v0")
    rng = random.Random(seed)
    content = {page: b"v0" for page in range(num_pages)}
    for update in range(num_updates):
        page = rng.randrange(num_pages)
        content[page] = b"v%d" % update
        block = GEOMETRY.block_of(page)
        start = GEOMETRY.first_page_of(block)
        # Save the sibling pages, erase the block, rewrite everything.
        block_pages = [
            content.get(p, None) for p in range(start, start + per_block)
        ]
        for p in range(start, start + per_block):
            if content.get(p) is not None:
                flash.read_page(p)
        flash.erase_block(block)
        for offset, value in enumerate(block_pages):
            if value is not None:
                flash.program_page(start + offset, value)
    return flash


def log_updates(num_pages: int, num_updates: int, seed: int) -> NandFlash:
    """The log layout: every update is an append (old versions obsolete)."""
    flash = NandFlash(GEOMETRY)
    log = RecordLog(BlockAllocator(flash), name="updates")
    rng = random.Random(seed)
    for page in range(num_pages):
        log.append(b"init|%d" % page)
    for update in range(num_updates):
        log.append(b"upd|%d|%d" % (rng.randrange(num_pages), update))
    log.flush()
    return flash


def build_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E5",
        title="Random in-place updates vs log-structured appends",
        claim="in-place pays ~1 erase + block rewrite per update; the log "
        "pays sequential programs only (orders of magnitude cheaper)",
        columns=[
            "updates", "inplace_erases", "inplace_programs", "inplace_ms",
            "log_erases", "log_programs", "log_ms", "speedup",
        ],
    )
    num_pages = 512
    for num_updates in (100, 400, 1600):
        naive = in_place_updates(num_pages, num_updates, seed=1)
        logged = log_updates(num_pages, num_updates, seed=1)
        naive_ms = naive.total_time_us() / 1000
        log_ms = logged.total_time_us() / 1000
        experiment.add_row(
            num_updates,
            naive.stats.block_erases,
            naive.stats.page_programs,
            round(naive_ms, 2),
            logged.stats.block_erases,
            logged.stats.page_programs,
            round(log_ms, 2),
            round(naive_ms / log_ms, 1),
        )
    return experiment


def test_e5_flash(benchmark):
    experiment = run_and_print(build_experiment)
    # One erase per update for the naive layout; none for the log.
    assert experiment.column("inplace_erases") == [100, 400, 1600]
    assert all(erases == 0 for erases in experiment.column("log_erases"))
    assert all(speedup > 10 for speedup in experiment.column("speedup"))
    # Write amplification: in-place programs a whole block per update.
    inplace = experiment.column("inplace_programs")
    log = experiment.column("log_programs")
    assert all(a > b * 10 for a, b in zip(inplace, log))

    benchmark(log_updates, 128, 200, 2)


def test_e5_wear(benchmark):
    """Wear: in-place concentrates erases; the log spreads allocation."""
    naive = in_place_updates(256, 800, seed=3)
    worst_wear = max(
        naive.erase_count(block) for block in range(GEOMETRY.num_blocks)
    )
    logged = log_updates(256, 800, seed=3)
    log_wear = max(
        logged.erase_count(block) for block in range(GEOMETRY.num_blocks)
    )
    print(f"\nE5-wear: worst block erases — in-place {worst_wear}, log {log_wear}")
    assert worst_wear > 10
    assert log_wear == 0
    benchmark(lambda: None)
