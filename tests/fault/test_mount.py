"""Crash-recovery unit tests: power_cycle, mount scan, and structure remounts."""

import pytest

from repro.errors import PowerLossError, RecoveryError, StorageError
from repro.fault import FaultPlan
from repro.hardware.cache import PageCache
from repro.hardware.flash import BlockAllocator, FlashGeometry, NandFlash
from repro.hardware.ram import RamArena
from repro.pds.audit import AuditLog
from repro.relational import KeyIndex, reorganize_durably, remount_index
from repro.storage.hashbucket import ChainedBucketLog
from repro.storage.log import PageLog, RecordLog
from repro.storage.recovery import Manifest, mount

GEOM = FlashGeometry(page_size=128, pages_per_block=4, num_blocks=64, spare_size=64)


def fresh() -> tuple[NandFlash, BlockAllocator]:
    flash = NandFlash(GEOM)
    return flash, BlockAllocator(flash)


class TestPowerCycle:
    def test_silicon_survives_volatile_state_dies(self):
        flash, allocator = fresh()
        log = PageLog(allocator, "keep")
        for i in range(5):
            log.append_page(bytes([i]) * 16)
        allocator.free(log._blocks[0])  # wear one block
        fired = []
        flash.subscribe(on_program=fired.append, on_erase=fired.append)
        stats_before = flash.stats.snapshot()
        erase_counts = [flash.erase_count(b) for b in range(GEOM.num_blocks)]

        flash.power_cycle()

        assert [flash.erase_count(b) for b in range(GEOM.num_blocks)] == erase_counts
        assert flash.stats.snapshot() == stats_before  # the meter is hardware
        # Observers are RAM: reprogramming after the cycle fires nothing.
        flash.program_page(GEOM.first_page_of(10), b"post" * 4)
        assert fired == []

    def test_write_cursor_recomputed_from_pages(self):
        flash, allocator = fresh()
        log = PageLog(allocator, "cursor")
        log.append_page(b"a" * 8)
        log.append_page(b"b" * 8)
        block = log._blocks[0]
        flash.power_cycle()
        assert flash.next_free_page(block) == 2

    def test_programmed_empty_page_is_not_erased(self):
        """Regression: erased and programmed-empty pages both read b""."""
        flash, allocator = fresh()
        log = PageLog(allocator, "empties")
        log.append_page(b"")  # legitimate empty log page
        log.append_page(b"tail")
        page_no = log._page_numbers[0]
        flash.power_cycle()
        assert not flash.is_erased(page_no)
        assert flash.read_page(page_no) == b""
        # The cursor must land *after* both pages, not on the empty one.
        assert flash.next_free_page(GEOM.block_of(page_no)) == 2

    def test_programmed_empty_page_survives_remount(self):
        flash, allocator = fresh()
        log = PageLog(allocator, "empties")
        log.append_page(b"")
        log.append_page(b"tail")
        flash.power_cycle()
        session = mount(flash)
        recovered = session.claim_page_log("empties")
        assert len(recovered) == 2
        assert recovered.read_page(0) == b""
        assert recovered.read_page(1) == b"tail"
        recovered.append_page(b"more")  # continues in the same block
        assert recovered.read_page(2) == b"more"
        assert recovered.num_blocks == 1


class TestMountScan:
    def test_page_log_roundtrip_with_meta(self):
        flash, allocator = fresh()
        log = PageLog(allocator, "pages")
        for i in range(6):  # spans two blocks
            log.append_page(bytes([i]) * 20, meta=i * 3)
        flash.power_cycle()
        session = mount(flash)
        recovered = session.claim_page_log("pages")
        assert len(recovered) == 6
        assert [recovered.read_page(i)[0] for i in range(6)] == list(range(6))
        assert [recovered.page_meta(i) for i in range(6)] == [i * 3 for i in range(6)]

    def test_mount_costs_one_read_per_programmed_page(self):
        flash, allocator = fresh()
        log = PageLog(allocator, "cost")
        for i in range(7):
            log.append_page(bytes([i]) * 8)
        flash.power_cycle()
        before = flash.stats.page_reads
        session = mount(flash)
        assert flash.stats.page_reads - before == 7
        assert session.report.flash_reads == 7
        assert session.report.pages_scanned == 7

    def test_record_log_remount_drops_buffered_tail(self):
        flash, allocator = fresh()
        log = RecordLog(allocator, "records")
        addresses = [log.append(b"r%02d" % i) for i in range(30)]
        log.flush()
        log.append(b"never-durable")  # stays in the RAM write buffer
        flash.power_cycle()
        session = mount(flash)
        recovered = session.claim_record_log("records")
        assert len(recovered) == 30
        # Addresses are stable across the crash: position i is position i.
        for i, address in enumerate(addresses):
            assert recovered.read(address) == b"r%02d" % i
        assert sum(
            recovered.records_on_page(p) for p in range(recovered.page_count)
        ) == 30

    def test_torn_tail_is_truncated_and_append_continues(self):
        flash, allocator = fresh()
        log = RecordLog(allocator, "torn")
        for i in range(10):
            log.append(b"keep%02d" % i)
        log.flush()
        durable_pages = log.page_count
        FaultPlan(kill_at=0, seed=11).attach(flash)
        log.append(b"doomed-record-that-fills-enough-bytes" * 2)
        with pytest.raises(PowerLossError):
            log.flush()
        flash.power_cycle()
        session = mount(flash)
        assert session.report.torn_pages == 1
        recovered = session.claim_record_log("torn")
        assert recovered.page_count == durable_pages
        assert [r for _, r in recovered.scan()] == [
            b"keep%02d" % i for i in range(10)
        ]
        # Appends skip the junk slot the torn page occupies.
        recovered.append(b"after-crash")
        recovered.flush()
        assert [r for _, r in recovered.scan()][-1] == b"after-crash"

    def test_corrupt_page_truncates_to_durable_prefix(self):
        flash, allocator = fresh()
        log = PageLog(allocator, "crc")
        for i in range(4):
            log.append_page(bytes([65 + i]) * 12)
        victim = log._page_numbers[2]
        flash.power_cycle()
        # Silent corruption of page 2's payload: CRC must catch it.
        flash._pages[victim] = bytes([0xFF]) + flash._pages[victim][1:]
        session = mount(flash)
        assert session.report.corrupt_pages == 1
        assert session.report.truncated_pages == 1  # valid page 3 is gapped
        recovered = session.claim_page_log("crc")
        assert len(recovered) == 2
        assert recovered.read_page(1) == b"B" * 12

    def test_bit_flips_are_detected_by_mount(self):
        flash, allocator = fresh()
        FaultPlan(bit_flip_rate=1.0, seed=21).attach(flash)
        log = PageLog(allocator, "flips")
        for i in range(3):
            log.append_page(bytes(range(30)))
        flash.power_cycle()
        session = mount(flash)
        assert session.report.corrupt_pages == 3
        assert session.claim_page_log("flips").num_blocks == 0

    def test_next_seq_resumes_above_truncated_pages(self):
        flash, allocator = fresh()
        log = PageLog(allocator, "seq")
        for i in range(3):
            log.append_page(bytes([i]) * 8)
        victim = log._page_numbers[1]
        flash.power_cycle()
        flash._pages[victim] = b"\x00" + flash._pages[victim][1:]
        session = mount(flash)
        recovered = session.claim_page_log("seq")
        assert len(recovered) == 1
        # Re-appended pages must not collide with the stranded seq-2 page.
        assert recovered._next_seq == 3

    def test_finish_reclaims_unclaimed_blocks(self):
        flash, allocator = fresh()
        keep = RecordLog(allocator, "keep")
        debris = RecordLog(allocator, "debris")
        for i in range(6):
            keep.append(b"k%d" % i)
            debris.append(b"d%d" % i)
        keep.flush()
        debris.flush()
        flash.power_cycle()
        session = mount(flash)
        session.claim_record_log("keep")
        free_before = session.allocator.free_blocks
        report = session.finish()
        assert report.reclaimed_blocks == 1
        assert session.allocator.free_blocks == free_before + 1
        assert session.allocator.allocated_blocks == 1
        with pytest.raises(RecoveryError):
            session.claim("late")

    def test_second_mount_sees_only_claimed_logs(self):
        flash, allocator = fresh()
        keep = RecordLog(allocator, "keep")
        debris = RecordLog(allocator, "debris")
        keep.append(b"k")
        debris.append(b"d")
        keep.flush()
        debris.flush()
        flash.power_cycle()
        session = mount(flash)
        session.claim_record_log("keep")
        session.finish()
        again = mount(flash)
        assert again.epochs_of("keep") == [0]
        assert again.epochs_of("debris") == []


class TestRecordLogDrop:
    def test_drop_resets_per_page_tallies(self):
        """Regression: drop() used to leave the per-page tallies populated."""
        flash, allocator = fresh()
        log = RecordLog(allocator, "reuse")
        stale = [log.append(b"x%02d" % i) for i in range(30)]
        log.flush()
        assert log.page_count >= 2
        log.drop()
        assert log._page_ends == []
        with pytest.raises(StorageError):
            log.records_on_page(0)
        with pytest.raises(StorageError):
            log.read(stale[0])

    def test_drop_then_reuse_name_remounts_cleanly(self):
        flash, allocator = fresh()
        log = RecordLog(allocator, "cycle")
        for i in range(20):
            log.append(b"old%02d" % i)
        log.flush()
        log.drop()
        log = RecordLog(allocator, "cycle")
        log.append(b"new")
        log.flush()
        flash.power_cycle()
        session = mount(flash)
        recovered = session.claim_record_log("cycle")
        assert [r for _, r in recovered.scan()] == [b"new"]
        assert recovered.records_on_page(0) == 1


class TestWearLevelling:
    def test_allocator_seeds_priorities_from_real_wear(self):
        flash = NandFlash(FlashGeometry(page_size=64, pages_per_block=2, num_blocks=8))
        for _ in range(3):
            flash.erase_block(0)
        allocator = BlockAllocator(flash)
        order = [allocator.allocate() for _ in range(8)]
        assert order[-1] == 0  # the worn block is handed out last

    def test_lazy_refresh_requeues_stale_priorities(self):
        """Regression: a block worn while sitting in the free heap must not
        be allocated at its stale (lower) priority."""
        flash = NandFlash(FlashGeometry(page_size=64, pages_per_block=2, num_blocks=8))
        allocator = BlockAllocator(flash)
        for _ in range(4):
            flash.erase_block(5)  # wears behind the allocator's back
        order = [allocator.allocate() for _ in range(8)]
        assert order[-1] == 5

    def test_churn_keeps_wear_spread_tight(self):
        flash = NandFlash(FlashGeometry(page_size=64, pages_per_block=2, num_blocks=8))
        allocator = BlockAllocator(flash)
        for _ in range(5 * 8):
            block = allocator.allocate()
            flash.program_page(flash.geometry.first_page_of(block), b"w")
            allocator.free(block)
        low, high = allocator.wear_spread()
        assert high - low <= 1


class TestCacheAcrossPowerCycle:
    def test_cache_never_serves_stale_after_power_cycle(self):
        flash, allocator = fresh()
        ram = RamArena(64 * 1024)
        cache = PageCache(flash, 4, ram=ram)
        allocator.attach_cache(cache)
        log = PageLog(allocator, "hot")
        log.append_page(b"old-bytes")
        page_no = log._page_numbers[0]
        assert cache.read_page(page_no) == b"old-bytes"
        assert cache.cached_pages == 1
        ram_before = ram.in_use

        flash.power_cycle()

        assert cache.cached_pages == 0
        assert not cache.enabled  # no invalidation feed -> self-disabled
        assert ram.in_use < ram_before  # frames returned to the arena
        # The same physical page now holds different bytes; a read through
        # the dead cache must reach the chip, never RAM.
        flash.erase_block(GEOM.block_of(page_no))
        flash.program_page(page_no, b"new-bytes")
        assert cache.read_page(page_no) == b"new-bytes"

    def test_pins_evaporate_with_power(self):
        flash, _ = fresh()
        cache = PageCache(flash, 4)
        flash.program_page(0, b"pinned")
        cache.pin(0)
        assert cache.pinned_pages == 1
        flash.power_cycle()
        assert cache.pinned_pages == 0
        with pytest.raises(StorageError):
            cache.unpin(0)


class TestManifest:
    def test_records_survive_crash(self):
        flash, allocator = fresh()
        manifest = Manifest.create(allocator)
        manifest.append("reorg-commit", name="age", epoch=1)
        manifest.append("search-checkpoint", docs=12)
        flash.power_cycle()
        session = mount(flash)
        recovered = Manifest.remount(session)
        assert recovered.committed_epoch("age") == 1
        assert recovered.last("search-checkpoint") == {
            "docs": 12,
            "kind": "search-checkpoint",
        }
        recovered.append("reorg-commit", name="age", epoch=2)
        assert recovered.committed_epoch("age") == 2

    def test_torn_commit_record_is_invisible(self):
        flash, allocator = fresh()
        manifest = Manifest.create(allocator)
        manifest.append("search-checkpoint", docs=5)
        FaultPlan(kill_at=0, seed=13).attach(flash)
        with pytest.raises(PowerLossError):
            manifest.append("reorg-commit", name="age", epoch=1)
        flash.power_cycle()
        session = mount(flash)
        recovered = Manifest.remount(session)
        assert recovered.committed_epoch("age") == 0
        assert [r["kind"] for r in recovered.records()] == ["search-checkpoint"]
        # The manifest stays appendable past the torn slot.
        recovered.append("reorg-commit", name="age", epoch=1)
        assert recovered.committed_epoch("age") == 1


class TestChainedBucketRemount:
    def test_chains_and_counts_survive(self):
        flash, allocator = fresh()
        buckets = ChainedBucketLog(allocator, 4, name="chains")
        entries = {b: [b"e-%d-%d" % (b, i) for i in range(9)] for b in range(4)}
        for b, items in entries.items():
            for item in items:
                buckets.append(b, item)
        buckets.flush_all()
        expected = {b: list(buckets.iter_bucket(b)) for b in range(4)}
        flash.power_cycle()
        session = mount(flash)
        recovered = ChainedBucketLog.remount(session, 4, name="chains")
        assert recovered.entry_count == buckets.entry_count
        for b in range(4):
            assert list(recovered.iter_bucket(b)) == expected[b]

    def test_oversized_bucket_meta_rejected(self):
        flash, allocator = fresh()
        buckets = ChainedBucketLog(allocator, 8, name="chains")
        buckets.append(7, b"entry")
        buckets.flush_all()
        flash.power_cycle()
        session = mount(flash)
        with pytest.raises(RecoveryError, match="claims bucket"):
            ChainedBucketLog.remount(session, 4, name="chains")


class TestKeyIndexRemount:
    def test_lost_summaries_are_recomputed(self):
        """Keys pages durable, their Bloom summaries still in RAM: the
        remount must re-derive the summaries, not lose the pages."""
        flash, allocator = fresh()
        index = KeyIndex("age", allocator, bits_per_key=8.0)
        for i in range(30):
            index.insert(i % 5, i)
        index.keys.flush()  # summaries stay staged: crash before their flush
        expected = {v: index.lookup(v) for v in range(5)}
        flash.power_cycle()
        session = mount(flash)
        recovered = KeyIndex.remount(session, "age", bits_per_key=8.0)
        session.finish()
        assert {v: recovered.lookup(v) for v in range(5)} == expected

    def test_stale_summary_never_probes_past_durable_keys(self):
        """A flushed summary can outlive its (corrupted) keys page; the
        lookup must skip it instead of probing a truncated position."""
        flash, allocator = fresh()
        index = KeyIndex("age", allocator, bits_per_key=8.0)
        for i in range(30):
            index.insert(i % 5, i)
        index.flush()
        victim = index.keys.pages._page_numbers[-1]
        flash.power_cycle()
        flash._pages[victim] = b"\x00" + flash._pages[victim][1:]
        session = mount(flash)
        assert session.report.corrupt_pages == 1
        recovered = KeyIndex.remount(session, "age", bits_per_key=8.0)
        session.finish()
        durable = recovered.entry_count
        assert durable < 30  # the corrupted tail page really lost entries
        for v in range(5):
            assert recovered.lookup(v) == [
                r for r in range(durable) if r % 5 == v
            ]


class TestDurableReorganization:
    def test_commit_then_crash_mid_drop_lands_on_new_epoch(self):
        flash, allocator = fresh()
        ram = RamArena(1 << 20)
        manifest = Manifest.create(allocator)
        index = KeyIndex("age", allocator, bits_per_key=8.0)
        for i in range(40):
            index.insert(i % 7, i)
        index.flush()
        expected = {v: index.lookup(v) for v in range(7)}

        # First find out how many IOs the reorganization performs.
        probe_flash = NandFlash(GEOM)
        probe_alloc = BlockAllocator(probe_flash)
        probe_manifest = Manifest.create(probe_alloc)
        probe = KeyIndex("age", probe_alloc, bits_per_key=8.0)
        for i in range(40):
            probe.insert(i % 7, i)
        probe.flush()
        before = probe_flash.stats.page_programs + probe_flash.stats.block_erases
        reorganize_durably(probe, probe_alloc, RamArena(1 << 20), probe_manifest,
                           sort_buffer_bytes=256)
        total = (probe_flash.stats.page_programs + probe_flash.stats.block_erases
                 - before)

        # Kill on the very last erase: the commit is durable, the source
        # drop is interrupted halfway.
        FaultPlan(kill_at=total - 1, seed=3).attach(flash)
        with pytest.raises(PowerLossError):
            reorganize_durably(index, allocator, ram, manifest,
                               sort_buffer_bytes=256)

        flash.power_cycle()
        session = mount(flash)
        manifest2 = Manifest.remount(session)
        assert manifest2.committed_epoch("age") == 1
        sorted_index, delta = remount_index(session, manifest2, "age",
                                            bits_per_key=8.0)
        session.finish()
        assert sorted_index is not None and sorted_index.epoch == 1
        assert delta.epoch == 1
        got = {v: sorted(sorted_index.lookup(v) + delta.lookup(v))
               for v in range(7)}
        assert got == expected
        # Exactly one incarnation of the keys log survives the cleanup.
        again = mount(flash)
        assert again.epochs_of("age:keys") == []  # fresh delta never flushed
        assert again.epochs_of("age:sorted") == [1]

    def test_crash_before_commit_keeps_old_epoch(self):
        flash, allocator = fresh()
        manifest = Manifest.create(allocator)
        index = KeyIndex("age", allocator, bits_per_key=8.0)
        for i in range(40):
            index.insert(i % 7, i)
        index.flush()
        expected = {v: index.lookup(v) for v in range(7)}
        FaultPlan(kill_at=4, seed=3).attach(flash)
        with pytest.raises(PowerLossError):
            reorganize_durably(index, allocator, RamArena(1 << 20), manifest,
                               sort_buffer_bytes=256)
        flash.power_cycle()
        session = mount(flash)
        manifest2 = Manifest.remount(session)
        assert manifest2.committed_epoch("age") == 0
        sorted_index, delta = remount_index(session, manifest2, "age",
                                            bits_per_key=8.0)
        report = session.finish()
        assert sorted_index is None
        assert {v: delta.lookup(v) for v in range(7)} == expected
        assert report.reclaimed_blocks >= 1  # the half-built run logs


class TestAuditLogRemount:
    def test_chain_survives_and_extends(self):
        flash, allocator = fresh()
        audit = AuditLog(allocator)
        for i in range(12):
            audit.record("alice", "owner", "read", f"doc:{i}", True)
        audit.flush()
        audit.record("alice", "owner", "read", "doc:lost", True)  # buffered
        head = audit.head_digest
        flash.power_cycle()
        session = mount(flash)
        recovered = AuditLog.remount(session)
        session.finish()
        assert recovered.count == 12
        assert recovered.head_digest != head  # the buffered entry is gone
        assert recovered.verify_chain(expected_count=12)
        recovered.record("alice", "owner", "read", "doc:new", True)
        recovered.flush()
        assert recovered.verify_chain(expected_count=13)
