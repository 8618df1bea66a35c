"""Integration tests: EmbeddedDatabase with Tselect/Tjoin on TPCD-like data."""

import pytest

from repro.errors import QueryError
from repro.hardware.flash import FlashGeometry
from repro.hardware.profiles import HardwareProfile, smart_usb_token
from repro.hardware.ram import RamArena
from repro.hardware.token import SecurePortableToken
from repro.relational.baseline import HashJoinExecutor
from repro.relational.planner import Query
from repro.relational.query import EmbeddedDatabase
from repro.workloads import tpcd


def make_token(ram_bytes=64 * 1024, page_size=512, blocks=2048) -> SecurePortableToken:
    base = smart_usb_token()
    profile = HardwareProfile(
        name="test-token",
        ram_bytes=ram_bytes,
        cpu_mhz=base.cpu_mhz,
        flash_geometry=FlashGeometry(
            page_size=page_size, pages_per_block=16, num_blocks=blocks
        ),
        flash_cost=base.flash_cost,
        tamper_resistant=True,
    )
    return SecurePortableToken(profile=profile)


@pytest.fixture(scope="module")
def loaded_db() -> tuple[EmbeddedDatabase, tpcd.TpcdData]:
    db = EmbeddedDatabase(make_token(), tpcd.tpcd_schema(), tpcd.ROOT_TABLE)
    data = tpcd.generate(num_lineitems=400, seed=9)
    tpcd.load(db, data)
    db.create_tselect("CUSTOMER", "Mktsegment")
    db.create_tselect("SUPPLIER", "Name")
    return db, data


def reference_answer(data: tpcd.TpcdData, segment: str, supplier: str):
    """Plain-Python evaluation of the tutorial query for cross-checking."""
    seg_customers = {c[0] for c in data.customers if c[2] == segment}
    sup_keys = {s[0] for s in data.suppliers if s[1] == supplier}
    orders = {o[0]: o for o in data.orders}
    partsupps = {p[0]: p for p in data.partsupps}
    customers = {c[0]: c for c in data.customers}
    out = []
    for line in data.lineitems:
        order = orders[line[1]]
        ps = partsupps[line[2]]
        if order[1] in seg_customers and ps[1] in sup_keys:
            out.append(
                (
                    customers[order[1]][1],
                    order[0],
                    line[0],
                    line[4],
                    f"{supplier}",
                )
            )
    return sorted(out)


class TestInsertAndIntegrity:
    def test_referential_integrity_enforced(self):
        db = EmbeddedDatabase(make_token(), tpcd.tpcd_schema(), tpcd.ROOT_TABLE)
        with pytest.raises(QueryError, match="referential integrity"):
            db.insert("ORDER", (0, 999, 19940101))  # no such customer

    def test_fk_must_reference_primary_key(self):
        from repro.relational.schema import (
            Column,
            ForeignKey,
            SchemaGraph,
            TableSchema,
        )

        parent = TableSchema(
            "P", [Column("id", "int"), Column("other", "int")], primary_key="id"
        )
        child = TableSchema(
            "C",
            [Column("id", "int"), Column("pother", "int")],
            primary_key="id",
            foreign_keys=[ForeignKey("pother", "P", "other")],
        )
        with pytest.raises(QueryError, match="must reference the"):
            EmbeddedDatabase(make_token(), SchemaGraph([parent, child]), "C")

    def test_tjoin_maintained_incrementally(self, loaded_db):
        db, data = loaded_db
        # Every lineitem's ancestors must match the raw data's FK chain.
        for rowid in (0, 57, 399):
            line = data.lineitems[rowid]
            joined = db.tjoin.joined_rowids(rowid)
            assert joined["LINEITEM"] == rowid
            assert joined["ORDER"] == line[1]  # ORDkey == order rowid here
            order = data.orders[line[1]]
            assert joined["CUSTOMER"] == order[1]
            ps = data.partsupps[line[2]]
            assert joined["PARTSUPP"] == line[2]
            assert joined["SUPPLIER"] == ps[1]

    @pytest.mark.parametrize("batch_size", [0, None], ids=["tuple", "batch"])
    def test_rowids_survive_partial_page_flushes(self, batch_size):
        """Regression: ``rowid // per_page`` assumed every address-log and
        ancestor-log page was full, so a row inserted after a flush that
        closed a page early was unreadable (or read as a different row)."""
        db = EmbeddedDatabase(
            make_token(), tpcd.tpcd_schema(), tpcd.ROOT_TABLE,
            batch_size=batch_size,
        )
        data = tpcd.generate(num_lineitems=55, seed=9)
        early, late = data.lineitems[:50], data.lineitems[50:]
        tpcd.load(db, tpcd.TpcdData(
            data.suppliers, data.customers, data.orders, data.partsupps, early
        ))
        for row in late:
            db.insert("LINEITEM", row)
        db.flush()
        lineitems = db.storages["LINEITEM"]
        flash = db.token.flash.stats
        before = flash.page_reads
        assert lineitems.read(50) == late[0]
        assert flash.page_reads == before + 2  # address page + data page
        assert lineitems.read_batch([49, 50, 54], ["LINkey"]) == {
            "LINkey": [49, 50, 54]
        }
        for rowid in (49, 50, 54):
            joined = db.tjoin.joined_rowids(rowid)
            assert joined["ORDER"] == data.lineitems[rowid][1]
        scan = Query.build(
            filters=[("LINEITEM", "Quantity", late[0][3])],
            projection=[("LINEITEM", "LINkey"), ("ORDER", "ORDkey")],
        )
        rows, stats = db.query(scan)
        assert stats.explain.root_scan
        assert sorted(rows) == sorted(
            (line[0], line[1])
            for line in data.lineitems
            if line[3] == late[0][3]
        )

    def test_lookup_by_pk_and_scan(self, loaded_db):
        db, data = loaded_db
        assert db.lookup("CUSTOMER", "CUSkey", 3) == [3]
        segment = data.customers[0][2]
        scan_hits = db.lookup("CUSTOMER", "Mktsegment", segment)
        assert 0 in scan_hits


class TestQueryExecution:
    def test_tutorial_query_matches_reference(self, loaded_db):
        db, data = loaded_db
        query = tpcd.household_supplier_query("HOUSEHOLD", "SUPPLIER-1")
        rows, stats = db.query(query)
        assert sorted(rows) == reference_answer(data, "HOUSEHOLD", "SUPPLIER-1")
        assert stats.rows_out == len(rows)
        assert len(stats.explain.indexed_predicates) == 2
        assert not stats.explain.root_scan

    def test_every_segment_supplier_combination(self, loaded_db):
        db, data = loaded_db
        for segment in ("AUTOMOBILE", "BUILDING"):
            for supplier in ("SUPPLIER-0", "SUPPLIER-2"):
                query = tpcd.household_supplier_query(segment, supplier)
                rows, _ = db.query(query)
                assert sorted(rows) == reference_answer(data, segment, supplier)

    def test_residual_predicate_without_index(self, loaded_db):
        db, data = loaded_db
        query = Query.build(
            filters=[
                ("CUSTOMER", "Mktsegment", "HOUSEHOLD"),
                ("LINEITEM", "Quantity", 10),
            ],
            projection=[("LINEITEM", "LINkey")],
        )
        rows, stats = db.query(query)
        assert [("LINEITEM", "Quantity", 10)] == stats.explain.residual_predicates
        expected = {
            line[0]
            for line in data.lineitems
            if line[3] == 10
            and data.customers[data.orders[line[1]][1]][2] == "HOUSEHOLD"
        }
        assert {row[0] for row in rows} == expected

    def test_no_indexed_predicate_falls_back_to_scan(self, loaded_db):
        db, _ = loaded_db
        query = Query.build(
            filters=[("LINEITEM", "Quantity", 7)],
            projection=[("LINEITEM", "LINkey")],
        )
        _, stats = db.query(query)
        assert stats.explain.root_scan

    def test_unknown_column_rejected(self, loaded_db):
        db, _ = loaded_db
        with pytest.raises(QueryError, match="no column"):
            db.query(
                Query.build(
                    filters=[("CUSTOMER", "Ghost", 1)],
                    projection=[("LINEITEM", "LINkey")],
                )
            )

    def test_empty_projection_rejected(self, loaded_db):
        db, _ = loaded_db
        with pytest.raises(QueryError, match="projection"):
            db.query(Query.build(filters=[], projection=[]))

    def test_query_ram_stays_within_token_budget(self, loaded_db):
        db, _ = loaded_db
        _, stats = db.query(tpcd.household_supplier_query())
        assert stats.ram_high_water <= db.token.profile.ram_bytes


class TestAgainstHashJoinBaseline:
    def test_baseline_matches_pipelined_plan(self, loaded_db):
        db, _ = loaded_db
        baseline = HashJoinExecutor(
            db.schema, db.storages, tpcd.ROOT_TABLE, RamArena(10**9)
        )
        query = tpcd.household_supplier_query("MACHINERY", "SUPPLIER-0")
        fast, _ = db.query(query)
        slow = baseline.execute(query)
        assert sorted(fast) == sorted(slow)

    def test_baseline_ram_grows_with_data_pipelined_does_not(self):
        """E4's shape, in miniature."""
        peaks = {}
        for num_lines in (100, 400):
            db = EmbeddedDatabase(
                make_token(), tpcd.tpcd_schema(), tpcd.ROOT_TABLE
            )
            tpcd.load(db, tpcd.generate(num_lines, seed=4))
            db.create_tselect("CUSTOMER", "Mktsegment")
            db.create_tselect("SUPPLIER", "Name")
            _, stats = db.query(tpcd.household_supplier_query())
            baseline_ram = RamArena(10**9)
            HashJoinExecutor(
                db.schema, db.storages, tpcd.ROOT_TABLE, baseline_ram
            ).execute(tpcd.household_supplier_query())
            peaks[num_lines] = (stats.ram_high_water, baseline_ram.high_water)
        assert peaks[400][0] == peaks[100][0]  # pipelined: flat
        assert peaks[400][1] > peaks[100][1] * 2  # baseline: grows

    def test_create_key_index_backfills(self, loaded_db):
        db, data = loaded_db
        if ("LINEITEM", "Quantity") not in db.attr_indexes:
            db.create_key_index("LINEITEM", "Quantity")
        expected = [i for i, line in enumerate(data.lineitems) if line[3] == 5]
        assert db.lookup("LINEITEM", "Quantity", 5) == expected

    def test_duplicate_index_rejected(self, loaded_db):
        db, _ = loaded_db
        if ("LINEITEM", "Quantity") not in db.attr_indexes:
            db.create_key_index("LINEITEM", "Quantity")
        with pytest.raises(QueryError, match="already exists"):
            db.create_key_index("LINEITEM", "Quantity")


class TestEmbeddedAggregates:
    def test_count_by_segment(self, loaded_db):
        db, data = loaded_db
        result, stats = db.aggregate(
            filters=[("SUPPLIER", "Name", "SUPPLIER-1")],
            aggregate=("COUNT", "LINEITEM", None),
            group_by=("CUSTOMER", "Mktsegment"),
        )
        # Reference: count lineitems of SUPPLIER-1 per customer segment.
        expected: dict = {}
        for line in data.lineitems:
            ps = data.partsupps[line[2]]
            if data.suppliers[ps[1]][1] != "SUPPLIER-1":
                continue
            segment = data.customers[data.orders[line[1]][1]][2]
            expected[segment] = expected.get(segment, 0.0) + 1.0
        assert result == expected
        assert stats.rows_out == len(expected)

    def test_sum_and_avg_consistent(self, loaded_db):
        db, _ = loaded_db
        filters = [("CUSTOMER", "Mktsegment", "HOUSEHOLD")]
        total, _ = db.aggregate(
            filters, ("SUM", "LINEITEM", "Price"), group_by=None
        )
        count, _ = db.aggregate(
            filters, ("COUNT", "LINEITEM", None), group_by=None
        )
        average, _ = db.aggregate(
            filters, ("AVG", "LINEITEM", "Price"), group_by=None
        )
        if count.get("*"):
            assert average["*"] == pytest.approx(total["*"] / count["*"])

    def test_ram_grows_with_groups_not_rows(self, loaded_db):
        db, _ = loaded_db
        _, grouped = db.aggregate(
            filters=[],
            aggregate=("COUNT", "LINEITEM", None),
            group_by=("CUSTOMER", "Mktsegment"),
        )
        _, global_only = db.aggregate(
            filters=[],
            aggregate=("COUNT", "LINEITEM", None),
            group_by=None,
        )
        # 5 segments vs 1 global group: tiny, bounded difference.
        assert grouped.ram_high_water - global_only.ram_high_water <= 5 * 32
        assert grouped.ram_high_water <= db.token.profile.ram_bytes

    def test_invalid_aggregates_rejected(self, loaded_db):
        db, _ = loaded_db
        with pytest.raises(QueryError, match="unsupported aggregate"):
            db.aggregate([], ("MEDIAN", "LINEITEM", "Price"))
        with pytest.raises(QueryError, match="needs a column"):
            db.aggregate([], ("SUM", "LINEITEM", None))


class TestPageCachedExecution:
    """The RAM-charged page cache must be invisible except in the stats."""

    def make_cached_db(self):
        db = EmbeddedDatabase(make_token(), tpcd.tpcd_schema(), tpcd.ROOT_TABLE)
        tpcd.load(db, tpcd.generate(num_lineitems=300, seed=5))
        db.create_tselect("CUSTOMER", "Mktsegment")
        return db

    def test_stats_cache_empty_without_cache(self, loaded_db):
        db, _ = loaded_db
        _, stats = db.query(tpcd.household_supplier_query())
        # No cache attached: stats.cache is an all-zero CacheStats, so
        # callers read hits/misses without a None guard.
        assert stats.cache.lookups == 0
        assert stats.cache.hits == 0

    def test_repeated_query_hits_cache(self):
        db = self.make_cached_db()
        query = tpcd.household_supplier_query()
        cold_rows, cold = db.query(query)
        db.token.enable_page_cache(16)
        warm1_rows, warm1 = db.query(query)
        warm2_rows, warm2 = db.query(query)
        assert warm1_rows == cold_rows == warm2_rows
        assert warm1.cache is not None and warm1.cache.misses > 0
        assert warm2.cache.hits > 0
        # The repeat run re-reads everything from RAM: strictly fewer IOs.
        assert warm2.flash_page_reads < cold.flash_page_reads
        # Cache RAM is charged to the arena and visible in high water.
        assert db.token.mcu.ram.in_use >= db.token.page_cache.ram_bytes

    def test_cache_size_zero_reproduces_uncached_io_counts(self):
        db_plain = self.make_cached_db()
        db_zero = self.make_cached_db()
        db_zero.token.enable_page_cache(0)
        query = tpcd.household_supplier_query()
        rows_plain, stats_plain = db_plain.query(query)
        rows_zero, stats_zero = db_zero.query(query)
        assert rows_plain == rows_zero
        assert stats_plain.flash_page_reads == stats_zero.flash_page_reads
        assert stats_zero.cache.hits == 0

    def test_insert_after_cached_query_stays_correct(self):
        db = self.make_cached_db()
        db.token.enable_page_cache(16)
        query = tpcd.household_supplier_query()
        db.query(query)
        # New inserts append pages; cached reads must still match a fresh
        # uncached evaluation of the same database state.
        baseline_ram = RamArena(10**9)
        rows, _ = db.query(query)
        baseline = HashJoinExecutor(
            db.schema, db.storages, tpcd.ROOT_TABLE, baseline_ram
        ).execute(query)
        assert sorted(rows) == sorted(baseline)
