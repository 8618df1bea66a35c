"""The embedded relational database: public API of Part II's second engine.

:class:`EmbeddedDatabase` assembles everything on one secure token:

* table storage in sequential logs, rowid-addressed;
* primary-key indexes (Keys + Bloom summaries), maintained at insertion and
  used to resolve foreign keys;
* ancestor logs filled incrementally at insertion — the **Tjoin** index;
* on-demand **Tselect** indexes, bulk-built and log-reorganized;
* a pipelined select-project-join executor with RAM/IO accounting.

Example::

    db = EmbeddedDatabase(token, schema, root_table="LINEITEM")
    db.insert("CUSTOMER", (1, "Ana", "HOUSEHOLD"))
    ...
    db.create_tselect("CUSTOMER", "Mktsegment")
    rows, stats = db.query(Query.build(
        filters=[("CUSTOMER", "Mktsegment", "HOUSEHOLD")],
        projection=[("CUSTOMER", "Name"), ("LINEITEM", "Price")],
    ))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from repro import obs
from repro.errors import QueryError
from repro.hardware.cache import CacheStats
from repro.hardware.token import SecurePortableToken
from repro.relational.batch import DEFAULT_BATCH_ROWS, build_batch_plan
from repro.relational.keyindex import KeyIndex
from repro.relational.planner import PlanExplain, Query, plan
from repro.relational.schema import SchemaGraph
from repro.relational.table import TableStorage
from repro.relational.tjoin import AncestorLog, TjoinIndex
from repro.relational.tselect import TselectIndex


@dataclass
class ExecutionStats:
    """Observed cost of one query execution.

    ``flash_page_reads`` counts real chip IOs only — reads served by the
    token's page cache never reach the flash simulator. ``cache`` is the
    per-query :class:`CacheStats` delta when a cache is attached, and an
    all-zero :class:`CacheStats` otherwise — callers read
    ``stats.cache.hits`` unconditionally instead of guarding on None.
    """

    rows_out: int
    flash_page_reads: int
    ram_high_water: int
    explain: PlanExplain
    cache: CacheStats = field(default_factory=CacheStats)


class EmbeddedDatabase:
    """A relational database living entirely inside one secure token."""

    def __init__(
        self,
        token: SecurePortableToken,
        schema: SchemaGraph,
        root_table: str,
        batch_size: int | None = DEFAULT_BATCH_ROWS,
    ) -> None:
        self.token = token
        self.schema = schema
        #: Rows per columnar batch; ``None``/``0`` selects the legacy
        #: tuple-at-a-time reference path (kept for differential testing).
        self.batch_size = batch_size or None
        self.root_table = schema.table(root_table).name
        ram = token.mcu.ram
        self.storages: dict[str, TableStorage] = {
            name: TableStorage(table, token.allocator, ram=None)
            for name, table in schema.tables.items()
        }
        # Primary-key indexes: required on every table that is referenced.
        self.pk_indexes: dict[str, KeyIndex] = {}
        for name, table in schema.tables.items():
            if table.primary_key is not None:
                self.pk_indexes[name] = KeyIndex(
                    f"{name}.{table.primary_key}", token.allocator
                )
        for name, table in schema.tables.items():
            for fk in table.foreign_keys:
                parent = schema.table(fk.parent_table)
                if parent.primary_key != fk.parent_column:
                    raise QueryError(
                        f"foreign key {name}.{fk.column} must reference the "
                        f"primary key of {fk.parent_table!r}"
                    )
        # Ancestor logs for every table that has ancestors.
        self.ancestor_logs: dict[str, AncestorLog] = {}
        for name in schema.tables:
            ancestors = [t for t in schema.ancestry_paths(name) if t != name]
            if ancestors:
                self.ancestor_logs[name] = AncestorLog(
                    name, ancestors, token.allocator
                )
        root_ancestors = self.ancestor_logs.get(self.root_table)
        if root_ancestors is None:
            root_ancestors = AncestorLog(self.root_table, [], token.allocator)
        self.tjoin = TjoinIndex(self.root_table, root_ancestors)
        self.tselects: dict[tuple[str, str], TselectIndex] = {}
        self.attr_indexes: dict[tuple[str, str], KeyIndex] = {}
        self._ram = ram

    # ------------------------------------------------------------------
    # Data definition / load
    # ------------------------------------------------------------------
    def insert(self, table_name: str, values: tuple) -> int:
        """Insert one row, maintaining PK/attribute indexes and Tjoin."""
        self.token.require_trusted()
        table = self.schema.table(table_name)
        storage = self.storages[table.name]
        ancestors = self._resolve_ancestors(table, values)
        rowid = storage.insert(values)
        if table.primary_key is not None:
            pk_value = values[table.column_index(table.primary_key)]
            self.pk_indexes[table.name].insert(pk_value, rowid)
        for (index_table, column), index in self.attr_indexes.items():
            if index_table == table.name:
                index.insert(values[table.column_index(column)], rowid)
        log = self.ancestor_logs.get(table.name)
        if log is not None:
            log.append(ancestors)
        return rowid

    def _resolve_ancestors(self, table, values) -> dict[str, int]:
        """Follow each foreign key up through parent PK indexes."""
        ancestors: dict[str, int] = {}
        for fk in table.foreign_keys:
            value = values[table.column_index(fk.column)]
            matches = self.pk_indexes[fk.parent_table].lookup(value)
            if len(matches) != 1:
                raise QueryError(
                    f"referential integrity: {table.name}.{fk.column}={value!r} "
                    f"matches {len(matches)} rows of {fk.parent_table!r}"
                )
            parent_rowid = matches[0]
            ancestors[fk.parent_table] = parent_rowid
            parent_log = self.ancestor_logs.get(fk.parent_table)
            if parent_log is not None:
                ancestors.update(parent_log.get(parent_rowid))
        return ancestors

    def flush(self) -> None:
        """Flush every write buffer to flash."""
        for storage in self.storages.values():
            storage.flush()
        for index in self.pk_indexes.values():
            index.flush()
        for index in self.attr_indexes.values():
            index.flush()
        for log in self.ancestor_logs.values():
            log.flush()

    def create_key_index(self, table_name: str, column: str) -> None:
        """Add a plain attribute index (indexes future *and* past rows)."""
        table = self.schema.table(table_name)
        key = (table.name, column)
        if key in self.attr_indexes:
            raise QueryError(f"index on {table.name}.{column} already exists")
        index = KeyIndex(f"{table.name}.{column}", self.token.allocator)
        position = table.column_index(column)
        for rowid, row in self.storages[table.name].scan():
            index.insert(row[position], rowid)
        self.attr_indexes[key] = index

    def create_tselect(self, via_table: str, column: str) -> TselectIndex:
        """Bulk-build a Tselect index for root-anchored predicates."""
        table = self.schema.table(via_table)
        table.column_index(column)
        self.flush()
        tselect = TselectIndex.build(
            table.name,
            column,
            self.tjoin,
            self.storages,
            self.token.allocator,
            self._ram,
        )
        self.tselects[(table.name, column)] = tselect
        return tselect

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, query: Query) -> tuple[list[tuple], ExecutionStats]:
        """Execute a select-project-join query; returns rows + cost stats."""
        self.token.require_trusted()
        self.flush()
        flash = self.token.flash
        page_size = flash.geometry.page_size
        reads_before = flash.stats.page_reads
        cache = self.token.allocator.page_cache
        cache_before = cache.stats.snapshot() if cache is not None else None
        self._ram.reset_high_water()
        # One page buffer per Tselect stream + one joined-row buffer; in
        # batch mode the joined-row buffer becomes the output batch (8 B
        # per row slot, never charged below one page).
        num_streams = sum(
            1 for t, c, _ in query.filters if (t, c) in self.tselects
        )
        batch_rows = self.batch_size
        pipeline_bytes = self._pipeline_bytes(num_streams, page_size)
        with obs.span(
            "db.query", filters=len(query.filters)
        ) as span, self._ram.reservation(pipeline_bytes, tag="query:pipeline"):
            if batch_rows:
                batches, explain = build_batch_plan(
                    query, self.tjoin, self.storages, self.tselects, batch_rows
                )
                rows: list[tuple] = []
                num_batches = 0
                for chunk in batches:
                    rows.extend(chunk)
                    num_batches += 1
                span.set(
                    rows_out=len(rows),
                    root_scan=explain.root_scan,
                    batches=num_batches,
                    batch_rows=batch_rows,
                )
            else:
                iterator, explain = plan(
                    query, self.tjoin, self.storages, self.tselects
                )
                rows = list(iterator)
                span.set(rows_out=len(rows), root_scan=explain.root_scan)
        stats = ExecutionStats(
            rows_out=len(rows),
            flash_page_reads=flash.stats.page_reads - reads_before,
            ram_high_water=self._ram.high_water,
            explain=explain,
            cache=(
                cache.stats.delta(cache_before)
                if cache is not None
                else CacheStats()
            ),
        )
        return rows, stats

    def _pipeline_bytes(self, num_streams: int, page_size: int) -> int:
        """RAM reservation for the query pipeline's working buffers.

        Legacy: one page buffer per Tselect stream + one joined-row page.
        Batch: the per-stream pages plus the output batch (8 bytes per
        buffered row slot), charged at least one page so the default batch
        size reserves exactly what the legacy pipeline does.
        """
        if self.batch_size:
            return num_streams * page_size + max(
                page_size, self.batch_size * 8
            )
        return (num_streams + 1) * page_size

    def aggregate(
        self,
        filters,
        aggregate: tuple[str, str, str | None],
        group_by: tuple[str, str] | None = None,
    ) -> tuple[dict, ExecutionStats]:
        """Grouped aggregate over the joined pipeline (PicoDBMS-style).

        ``aggregate`` is ``(function, table, column)`` with function in
        COUNT/SUM/AVG (column ignored for COUNT); ``group_by`` an optional
        ``(table, column)``. Rows stream through the same Tselect/Tjoin
        plan; RAM grows only with the number of *groups* (charged to the
        arena), never with the number of rows — aggregation is the last
        pipeline stage, as in the embedded literature.
        """
        function, agg_table, agg_column = aggregate
        if function not in ("COUNT", "SUM", "AVG"):
            raise QueryError(f"unsupported aggregate {function!r}")
        if function != "COUNT" and agg_column is None:
            raise QueryError(f"{function} needs a column")
        projection = []
        if group_by is not None:
            projection.append(group_by)
        projection.append(
            (agg_table, agg_column)
            if agg_column is not None
            else (agg_table, self.schema.table(agg_table).columns[0].name)
        )
        query = Query.build(filters=filters, projection=projection)
        self.token.require_trusted()
        self.flush()
        flash = self.token.flash
        reads_before = flash.stats.page_reads
        cache = self.token.allocator.page_cache
        cache_before = cache.stats.snapshot() if cache is not None else None
        self._ram.reset_high_water()
        num_streams = sum(
            1 for t, c, _ in query.filters if (t, c) in self.tselects
        )
        sums: dict = {}
        counts: dict = {}
        batch_rows = self.batch_size
        pipeline_bytes = self._pipeline_bytes(
            num_streams, flash.geometry.page_size
        )
        with obs.span(
            "db.aggregate", function=function, grouped=group_by is not None
        ), self._ram.reservation(pipeline_bytes, tag="agg:pipeline"):
            groups_handle = self._ram.allocate(0, tag="agg:groups")
            try:
                if batch_rows:
                    batches, explain = build_batch_plan(
                        query,
                        self.tjoin,
                        self.storages,
                        self.tselects,
                        batch_rows,
                    )
                    iterator = (row for chunk in batches for row in chunk)
                else:
                    iterator, explain = plan(
                        query, self.tjoin, self.storages, self.tselects
                    )
                for row in iterator:
                    group = row[0] if group_by is not None else "*"
                    value = row[-1]
                    if group not in sums:
                        sums[group] = 0.0
                        counts[group] = 0
                        self._ram.resize(groups_handle, len(sums) * 32)
                    if function != "COUNT":
                        sums[group] += float(value)
                    counts[group] += 1
            finally:
                self._ram.free(groups_handle)
        if function == "COUNT":
            result = {group: float(count) for group, count in counts.items()}
        elif function == "SUM":
            result = dict(sums)
        else:
            result = {
                group: sums[group] / counts[group] for group in sums
            }
        stats = ExecutionStats(
            rows_out=len(result),
            flash_page_reads=flash.stats.page_reads - reads_before,
            ram_high_water=self._ram.high_water,
            explain=explain,
            cache=(
                cache.stats.delta(cache_before)
                if cache is not None
                else CacheStats()
            ),
        )
        return result, stats

    def lookup(self, table_name: str, column: str, value) -> list[int]:
        """Rowids of ``table`` where ``column == value`` (index or scan)."""
        table = self.schema.table(table_name)
        key = (table.name, column)
        if key in self.attr_indexes:
            self.attr_indexes[key].flush()
            return self.attr_indexes[key].lookup(value)
        if table.primary_key == column:
            index = self.pk_indexes[table.name]
            index.flush()
            return index.lookup(value)
        # Fallback scan: flush first, like the indexed paths above, so the
        # visibility contract doesn't depend on the write buffer's scan
        # behavior.
        position = table.column_index(column)
        storage = self.storages[table.name]
        storage.flush()
        if self.batch_size:
            rowids: list[int] = []
            for first, mask in storage.scan_mask(column, value):
                rowids.extend(compress(range(first, first + len(mask)), mask))
            return rowids
        return [
            rowid for rowid, row in storage.scan() if row[position] == value
        ]
