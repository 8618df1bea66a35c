"""Cache-correctness tests: no stale page after erase / reorg block reuse.

The page cache is only admissible if it is *invisible* to every reader:
whatever blocks get erased, recycled, and re-programmed by reorganization
churn, a cached token must return bit-identical results to an uncached one.
These tests exercise exactly the dangerous sequences — ``BlockAllocator.free``
followed by reuse of the same physical pages — and a property-style random
workload comparing cached vs uncached scans.
"""

import random

import pytest

from repro.hardware.cache import PageCache
from repro.hardware.flash import BlockAllocator, FlashGeometry, NandFlash
from repro.hardware.ram import RamArena
from repro.relational.keyindex import KeyIndex
from repro.relational.reorg import reorganize
from repro.storage.log import RecordLog

PAGE_SIZE = 256


def make_allocator(cache_pages: int = 0):
    flash = NandFlash(
        FlashGeometry(page_size=PAGE_SIZE, pages_per_block=8, num_blocks=128)
    )
    allocator = BlockAllocator(flash)
    cache = None
    if cache_pages:
        cache = PageCache(flash, cache_pages, ram=RamArena(64 * 1024))
        allocator.attach_cache(cache)
    return allocator, cache


class TestEraseRecycleNoStaleRead:
    def test_freed_block_reused_by_new_log(self):
        allocator, cache = make_allocator(cache_pages=16)
        old = RecordLog(allocator, name="old")
        for i in range(40):
            old.append(f"old-{i:04d}".encode())
        old.flush()
        stale = [record for _, record in old.scan()]  # warm the cache
        assert all(r.startswith(b"old-") for r in stale)
        cached_before_drop = cache.cached_pages
        assert cached_before_drop > 0

        old.drop()  # BlockAllocator.free + erase for every block
        new = RecordLog(allocator, name="new")
        for i in range(40):
            new.append(f"new-{i:04d}".encode())
        new.flush()
        # The new log recycles the least-worn blocks — the same physical
        # pages the cache held a moment ago. Every read must be fresh.
        assert [r for _, r in new.scan()] == [
            f"new-{i:04d}".encode() for i in range(40)
        ]
        assert cache.stats.invalidations >= cached_before_drop

    def test_reorg_swap_serves_only_new_index(self):
        """Build, reorganize, swap, drop — cached lookups stay correct."""
        allocator, cache = make_allocator(cache_pages=16)
        ram = RamArena(64 * 1024)
        index = KeyIndex("T.k", allocator)
        expected: dict[int, list[int]] = {}
        for rowid in range(600):
            key = rowid % 37
            index.insert(key, rowid)
            expected.setdefault(key, []).append(rowid)
        index.flush()
        # Warm the cache with lookups on the sequential index.
        for key in range(37):
            assert index.lookup(key) == expected[key]

        sorted_index = reorganize(index, allocator, ram, name="swap")
        index.drop()  # erases the old Keys/Bloom blocks under the cache
        for key in range(37):
            assert sorted_index.lookup(key) == expected[key]

    def test_repeated_churn_rounds(self):
        """Many build/reorg/drop cycles never leak a stale page."""
        allocator, cache = make_allocator(cache_pages=8)
        ram = RamArena(64 * 1024)
        for round_no in range(5):
            index = KeyIndex(f"T.k{round_no}", allocator)
            for rowid in range(200):
                index.insert((rowid * 7 + round_no) % 23, rowid)
            index.flush()
            index.lookup(round_no % 23)  # warm
            sorted_index = reorganize(
                index, allocator, ram, name=f"churn{round_no}"
            )
            index.drop()
            expected = sorted(
                rowid
                for rowid in range(200)
                if (rowid * 7 + round_no) % 23 == round_no % 23
            )
            assert sorted_index.lookup(round_no % 23) == expected
            sorted_index.drop()
        assert cache.stats.invalidations > 0


class TestCachedEqualsUncachedProperty:
    @pytest.mark.parametrize("seed", [7, 23, 101])
    @pytest.mark.parametrize("cache_pages", [1, 4, 32])
    def test_random_log_workload_scan_parity(self, seed, cache_pages):
        """Random append/flush/drop workloads: cached scans == uncached."""
        rng = random.Random(seed)
        cached_alloc, cache = make_allocator(cache_pages=cache_pages)
        plain_alloc, _ = make_allocator(cache_pages=0)

        cached_logs: dict[str, RecordLog] = {}
        plain_logs: dict[str, RecordLog] = {}
        for step in range(300):
            op = rng.random()
            name = f"log{rng.randrange(4)}"
            if name not in cached_logs:
                cached_logs[name] = RecordLog(cached_alloc, name=name)
                plain_logs[name] = RecordLog(plain_alloc, name=name)
            if op < 0.70:
                payload = bytes(
                    rng.getrandbits(8) for _ in range(rng.randrange(1, 40))
                )
                cached_logs[name].append(payload)
                plain_logs[name].append(payload)
            elif op < 0.85:
                cached_logs[name].flush()
                plain_logs[name].flush()
            elif op < 0.95:
                # Re-read everything (warms and re-warms the cache).
                assert [r for _, r in cached_logs[name].scan()] == [
                    r for _, r in plain_logs[name].scan()
                ]
            else:
                cached_logs.pop(name).drop()
                plain_logs.pop(name).drop()
        for name in sorted(cached_logs):
            assert [r for _, r in cached_logs[name].scan()] == [
                r for _, r in plain_logs[name].scan()
            ]
        if cache_pages and cache.stats.lookups:
            assert cache.stats.hits + cache.stats.misses == cache.stats.lookups

    @pytest.mark.parametrize("seed", [3, 91])
    def test_random_index_workload_lookup_parity(self, seed):
        """Random insert/lookup/reorg streams: cached index == uncached."""
        rng = random.Random(seed)
        cached_alloc, _ = make_allocator(cache_pages=8)
        plain_alloc, _ = make_allocator(cache_pages=0)
        ram_c, ram_p = RamArena(64 * 1024), RamArena(64 * 1024)

        cached: KeyIndex | object = KeyIndex("T.a", cached_alloc)
        plain: KeyIndex | object = KeyIndex("T.a", plain_alloc)
        rowid = 0
        for step in range(400):
            op = rng.random()
            if op < 0.75 and isinstance(cached, KeyIndex):
                key = rng.randrange(20)
                cached.insert(key, rowid)
                plain.insert(key, rowid)
                rowid += 1
            elif op < 0.95:
                key = rng.randrange(20)
                assert cached.lookup(key) == plain.lookup(key)
            elif isinstance(cached, KeyIndex) and rowid:
                cached.flush()
                plain.flush()
                new_cached = reorganize(cached, cached_alloc, ram_c, name="rc")
                new_plain = reorganize(plain, plain_alloc, ram_p, name="rp")
                cached.drop()
                plain.drop()
                cached, plain = new_cached, new_plain
        for key in range(20):
            assert sorted(cached.lookup(key)) == sorted(plain.lookup(key))
