"""Tests pinning the analytic RAM models to the simulator's behaviour."""

from repro.codesign.advisor import (
    evaluate_profile,
    recommend,
    smallest_fitting_profile,
)
from repro.codesign.models import (
    HEAP_ENTRY_BYTES,
    WorkloadSpec,
    reorg_min_single_pass_buffer,
    reorg_passes,
    reorg_runs,
    required_ram,
    search_ram,
    spj_ram,
)
from repro.hardware.flash import BlockAllocator, FlashGeometry, NandFlash
from repro.hardware.profiles import flash_sensor, smart_usb_token
from repro.hardware.ram import RamArena
from repro.relational.keyindex import KeyIndex
from repro.relational.reorg import ReorganizationTask


class TestSearchModel:
    def test_matches_engine_measurement(self):
        """The model must equal the RAM the engine actually reserves."""
        from repro.hardware.profiles import HardwareProfile
        from repro.hardware.token import SecurePortableToken
        from repro.search.engine import EmbeddedSearchEngine

        base = smart_usb_token()
        profile = HardwareProfile(
            name="calib",
            ram_bytes=64 * 1024,
            cpu_mhz=base.cpu_mhz,
            flash_geometry=FlashGeometry(2048, 32, 512),
            flash_cost=base.flash_cost,
            tamper_resistant=True,
        )
        engine = EmbeddedSearchEngine(SecurePortableToken(profile=profile), 64)
        for text in ("doctor invoice", "doctor meeting", "invoice energy"):
            engine.add_document(text)
        engine.flush()
        ram = engine.token.mcu.ram
        resident = ram.in_use
        ram.reset_high_water()
        engine.search("doctor invoice meeting", n=10)
        measured = ram.high_water - resident
        spec = WorkloadSpec(page_size=2048, max_query_keywords=3, top_n=10)
        assert measured == search_ram(spec)

    def test_scales_with_keywords_and_n(self):
        spec1 = WorkloadSpec(max_query_keywords=1, top_n=10)
        spec4 = WorkloadSpec(max_query_keywords=4, top_n=10)
        assert search_ram(spec4) - search_ram(spec1) == 3 * 2048
        spec_wide = WorkloadSpec(max_query_keywords=1, top_n=50)
        assert search_ram(spec_wide) - search_ram(spec1) == 40 * HEAP_ENTRY_BYTES


class TestSpjModel:
    def test_matches_database_measurement(self):
        from repro.hardware.profiles import HardwareProfile
        from repro.hardware.token import SecurePortableToken
        from repro.relational.query import EmbeddedDatabase
        from repro.workloads import tpcd

        base = smart_usb_token()
        profile = HardwareProfile(
            name="calib",
            ram_bytes=64 * 1024,
            cpu_mhz=base.cpu_mhz,
            flash_geometry=FlashGeometry(1024, 32, 2048),
            flash_cost=base.flash_cost,
            tamper_resistant=True,
        )
        db = EmbeddedDatabase(
            SecurePortableToken(profile=profile), tpcd.tpcd_schema(), tpcd.ROOT_TABLE
        )
        tpcd.load(db, tpcd.generate(150, seed=2))
        db.create_tselect("CUSTOMER", "Mktsegment")
        db.create_tselect("SUPPLIER", "Name")
        _, stats = db.query(tpcd.household_supplier_query())
        spec = WorkloadSpec(page_size=1024, max_tselect_streams=2)
        assert stats.ram_high_water == spj_ram(spec)


class TestReorgModel:
    def build_index(self, entries: int):
        flash = NandFlash(FlashGeometry(512, 16, 8192))
        allocator = BlockAllocator(flash)
        index = KeyIndex("calib", allocator)
        for row in range(entries):
            index.insert(f"key-{row % 97:04d}", row)
        index.flush()
        return allocator, index

    def test_run_count_matches_task(self):
        entries = 5000
        spec = WorkloadSpec(
            page_size=512, index_entries=entries, index_entry_bytes=15
        )
        allocator, index = self.build_index(entries)
        buffer = 2048
        task = ReorganizationTask(
            index, allocator, RamArena(64 * 1024), sort_buffer_bytes=buffer
        )
        task.run()
        # completed_steps counts runs + merge/finish steps; the run phase
        # yields once per run, so steps >= predicted runs.
        predicted = reorg_runs(spec, buffer)
        assert task.completed_steps >= predicted
        # entry_bytes model: key 'key-XXXX' is 9 B + tag 1 + rowid 4 + 6.
        assert abs(predicted - entries * 15 / buffer) <= 1

    def test_single_pass_buffer_law(self):
        spec = WorkloadSpec(
            page_size=512, index_entries=50_000, index_entry_bytes=16
        )
        buffer = reorg_min_single_pass_buffer(spec)
        assert reorg_passes(spec, buffer) == 0
        assert reorg_passes(spec, buffer // 2) >= 1

    def test_passes_monotone_in_buffer(self):
        spec = WorkloadSpec(index_entries=200_000)
        passes = [
            reorg_passes(spec, buffer)
            for buffer in (4096, 16384, 65536, 262144)
        ]
        assert passes == sorted(passes, reverse=True)


class TestAdvisor:
    def test_all_profiles_evaluated_sorted_by_ram(self):
        recommendations = recommend(WorkloadSpec())
        rams = [r.ram_bytes for r in recommendations]
        assert rams == sorted(rams)
        assert len(recommendations) == 5

    def test_big_profiles_fit_clean(self):
        spec = WorkloadSpec(max_query_keywords=3, index_entries=50_000)
        best = smallest_fitting_profile(spec)
        assert best is not None
        assert best.fits and not best.notes

    def test_sensor_degrades_not_fails(self):
        """16 KB sensor: multi-pass reorg + capped keywords, still usable."""
        spec = WorkloadSpec(
            page_size=2048, max_query_keywords=8, index_entries=500_000
        )
        sensor = evaluate_profile(spec, flash_sensor())
        assert not sensor.fits
        assert sensor.reorg_passes >= 1
        assert 0 < sensor.max_keywords_supported < 8
        assert sensor.notes  # the degradations are reported

    def test_required_ram_covers_every_operation(self):
        spec = WorkloadSpec()
        assert required_ram(spec) >= search_ram(spec)
        assert required_ram(spec) >= spj_ram(spec)
