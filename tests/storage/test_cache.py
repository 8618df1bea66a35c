"""Unit tests for the RAM-charged LRU page cache."""

import pytest

from repro.errors import RamBudgetExceeded, StorageError
from repro.hardware.cache import SLOT_OVERHEAD_BYTES, CacheStats, PageCache
from repro.hardware.flash import BlockAllocator, FlashGeometry, NandFlash
from repro.hardware.ram import RamArena
from repro.storage import pager
from repro.storage.log import PageLog, RecordLog

PAGE_SIZE = 64


@pytest.fixture
def flash() -> NandFlash:
    return NandFlash(
        FlashGeometry(page_size=PAGE_SIZE, pages_per_block=4, num_blocks=16)
    )


def program_pages(flash: NandFlash, count: int, block: int = 0) -> list[int]:
    """Program ``count`` distinct pages and return their page numbers."""
    pages = []
    for i in range(count):
        page_no = flash.geometry.first_page_of(block + i // 4) + i % 4
        flash.program_page(page_no, bytes([i]) * 8)
        pages.append(page_no)
    return pages


class TestHitsMissesEviction:
    def test_miss_then_hit(self, flash):
        (page,) = program_pages(flash, 1)
        cache = PageCache(flash, capacity_pages=4)
        reads_before = flash.stats.page_reads
        assert cache.read_page(page) == bytes([0]) * 8
        assert cache.read_page(page) == bytes([0]) * 8
        assert flash.stats.page_reads == reads_before + 1  # one real IO
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self, flash):
        pages = program_pages(flash, 3)
        cache = PageCache(flash, capacity_pages=2)
        cache.read_page(pages[0])
        cache.read_page(pages[1])
        cache.read_page(pages[0])  # refresh 0 -> LRU victim is 1
        cache.read_page(pages[2])
        assert pages[1] not in cache
        assert pages[0] in cache and pages[2] in cache
        assert cache.stats.evictions == 1

    def test_capacity_zero_is_pure_passthrough(self, flash):
        pages = program_pages(flash, 2)
        baseline = NandFlash(flash.geometry)
        for i, page_no in enumerate(pages):
            baseline.program_page(page_no, bytes([i]) * 8)
        cache = PageCache(flash, capacity_pages=0)
        for _ in range(3):
            for page_no in pages:
                assert cache.read_page(page_no) == baseline.read_page(page_no)
        # Every read reached the chip: FlashStats identical to uncached.
        assert flash.stats.page_reads == baseline.stats.page_reads
        assert cache.stats.hits == 0 and cache.stats.misses == 6
        assert cache.cached_pages == 0


class TestRamCharging:
    def test_capacity_charged_and_freed(self, flash):
        ram = RamArena(1024)
        cache = PageCache(flash, capacity_pages=4, ram=ram)
        assert ram.in_use == 4 * (PAGE_SIZE + SLOT_OVERHEAD_BYTES)
        cache.close()
        assert ram.in_use == 0

    def test_over_budget_rejected(self, flash):
        ram = RamArena(128)
        with pytest.raises(RamBudgetExceeded):
            PageCache(flash, capacity_pages=4, ram=ram)

    def test_zero_capacity_charges_nothing(self, flash):
        ram = RamArena(16)
        PageCache(flash, capacity_pages=0, ram=ram)
        assert ram.in_use == 0


class TestPinning:
    def test_pinned_pages_survive_eviction_pressure(self, flash):
        pages = program_pages(flash, 4)
        cache = PageCache(flash, capacity_pages=2)
        cache.pin(pages[0])
        cache.read_page(pages[1])
        cache.read_page(pages[2])
        cache.read_page(pages[3])
        assert pages[0] in cache
        cache.unpin(pages[0])
        assert cache.stats.pinned_high_water == 1

    def test_all_pinned_reads_through_without_caching(self, flash):
        pages = program_pages(flash, 3)
        cache = PageCache(flash, capacity_pages=2)
        cache.pin(pages[0])
        cache.pin(pages[1])
        assert cache.read_page(pages[2]) == bytes([2]) * 8
        assert pages[2] not in cache  # served, not cached, nothing evicted
        assert cache.stats.evictions == 0

    def test_unpin_without_pin_rejected(self, flash):
        (page,) = program_pages(flash, 1)
        cache = PageCache(flash, capacity_pages=2)
        cache.read_page(page)
        with pytest.raises(StorageError, match="not pinned"):
            cache.unpin(page)

    def test_pins_nest(self, flash):
        (page,) = program_pages(flash, 1)
        cache = PageCache(flash, capacity_pages=2)
        cache.pin(page)
        cache.pin(page)
        cache.unpin(page)
        assert cache.pinned_pages == 1
        cache.unpin(page)
        assert cache.pinned_pages == 0


class TestInvalidation:
    def test_erase_invalidates_cached_pages(self, flash):
        pages = program_pages(flash, 2)
        cache = PageCache(flash, capacity_pages=4)
        for page_no in pages:
            cache.read_page(page_no)
        flash.erase_block(0)
        assert all(page_no not in cache for page_no in pages)
        assert cache.stats.invalidations == 2
        # Reprogram the recycled pages: reads serve the NEW content.
        flash.program_page(pages[0], b"fresh!")
        assert cache.read_page(pages[0]) == b"fresh!"

    def test_program_invalidates_cached_erased_read(self, flash):
        cache = PageCache(flash, capacity_pages=4)
        assert cache.read_page(0) == b""  # erased page cached as empty
        flash.program_page(0, b"written")
        assert cache.read_page(0) == b"written"

    def test_invalidating_pinned_page_is_loud(self, flash):
        program_pages(flash, 1)
        cache = PageCache(flash, capacity_pages=4)
        cache.pin(0)
        with pytest.raises(StorageError, match="while pinned"):
            flash.erase_block(0)

    def test_clear_drops_unpinned_only(self, flash):
        pages = program_pages(flash, 2)
        cache = PageCache(flash, capacity_pages=4)
        cache.read_page(pages[0])
        cache.pin(pages[1])
        cache.clear()
        assert pages[0] not in cache and pages[1] in cache
        cache.unpin(pages[1])

    def test_close_detaches_from_flash(self, flash):
        program_pages(flash, 1)
        cache = PageCache(flash, capacity_pages=4)
        cache.read_page(0)
        cache.close()
        flash.erase_block(0)  # must not raise / touch the closed cache
        assert cache.stats.invalidations == 0


class TestDecodedReads:
    def test_read_records_decodes_once_per_residency(self, flash, monkeypatch):
        allocator = BlockAllocator(flash)
        log = RecordLog(allocator)
        for i in range(3):
            log.append(f"r{i}".encode())
        log.flush()
        cache = PageCache(flash, capacity_pages=4)
        allocator.attach_cache(cache)

        calls = {"n": 0}
        real_unpack = pager.unpack_records

        def counting_unpack(page):
            calls["n"] += 1
            return real_unpack(page)

        monkeypatch.setattr(pager, "unpack_records", counting_unpack)
        for _ in range(5):
            assert log.read(_addr(0, 1)) == b"r1"
        assert calls["n"] == 1  # hot page decoded exactly once

    def test_stats_delta(self):
        before = CacheStats(hits=2, misses=3, evictions=1, invalidations=0)
        after = CacheStats(
            hits=10, misses=5, evictions=2, invalidations=4, pinned_high_water=3
        )
        delta = after.delta(before)
        assert (delta.hits, delta.misses, delta.evictions) == (8, 2, 1)
        assert delta.invalidations == 4
        assert delta.pinned_high_water == 3  # level, not counter


def _addr(position: int, slot: int):
    from repro.storage.log import RecordAddress

    return RecordAddress(position, slot)


class TestPageLogIntegration:
    def test_log_reads_served_from_cache(self, flash):
        allocator = BlockAllocator(flash)
        cache = PageCache(flash, capacity_pages=8)
        allocator.attach_cache(cache)
        log = PageLog(allocator)
        for i in range(6):
            log.append_page(bytes([i]) * 8)
        reads_before = flash.stats.page_reads
        for _ in range(4):
            for position in range(6):
                assert log.read_page(position) == bytes([position]) * 8
        assert flash.stats.page_reads == reads_before + 6  # 18 hits, 6 misses
        assert cache.stats.hits == 18

    def test_drop_invalidates_via_block_erase(self, flash):
        allocator = BlockAllocator(flash)
        cache = PageCache(flash, capacity_pages=8)
        allocator.attach_cache(cache)
        log = PageLog(allocator, name="victim")
        for i in range(4):
            log.append_page(bytes([i]) * 8)
        for position in range(4):
            log.read_page(position)
        assert cache.cached_pages == 4
        log.drop()
        assert cache.cached_pages == 0
        # A new log recycling the same physical block reads its own data.
        fresh = PageLog(allocator, name="fresh")
        fresh.append_page(b"new content")
        assert fresh.read_page(0) == b"new content"
