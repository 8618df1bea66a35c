"""Columnar batch execution for select-project-join plans.

The legacy pipeline in :mod:`repro.relational.operators` is tuple-at-a-time:
every surviving root rowid allocates a ``JoinedRow``, every predicate or
projected column re-resolves ``column_index`` and re-deserializes the whole
row with one ``struct.unpack_from`` per value. Now that flash reads are
cached and attributed, that Python-per-row cost dominates query wall-clock.

This module keeps the *plan* — Tselect probes, sorted-rowid intersection,
Tjoin expansion, residual filters, projection — but runs it over **decoded
page batches**:

* Tselect posting lists come back as int lists (:meth:`SortedKeyIndex.
  lookup_batch`) and are intersected with set operations instead of a
  generator merge;
* every page the plan touches is decoded **once per query** into typed
  column vectors (:func:`repro.relational.tuples.make_column_decoder`,
  ancestor-log tuples, address pairs) and memoized in per-query dicts;
* rows are emitted in batches of ``batch_rows`` projected tuples.

The simulated cost model is untouched by construction: the executor replays
the legacy page-access sequence row-major — ancestor probe first (eager,
even for rows a residual later drops), then residual reads in predicate
order with short-circuit, then projection reads in projection order, first
touch per (row, table) — and every access still goes through
``PageLog.read_decoded(..., memo=...)``, which pays the same cache-lookup or
flash-read as the legacy reader before consulting the memo. Batches form
only over pages the plan already reads; ``flash_page_reads``, cache
hit/miss counts and obs spans are identical to the legacy path, and so are
the result rows.
"""

from __future__ import annotations

from typing import Iterator

from repro.relational.planner import PlanExplain, Query, validate_query
from repro.relational.table import TableGather, TableStorage
from repro.relational.tjoin import TjoinIndex
from repro.relational.tselect import TselectIndex

#: Default rows per output batch. At 8 bytes per buffered row slot this is
#: 512 B — no larger than one flash page, so the batch pipeline reservation
#: equals the legacy ``(streams + 1) * page_size`` charge by default.
DEFAULT_BATCH_ROWS = 64

def intersect_sorted(postings: list[list[int]]) -> list[int]:
    """Intersection of ascending duplicate-free rowid lists, ascending.

    Set-based replacement for :func:`operators.merge_intersect`: on sorted
    unique posting lists the results are identical, without advancing one
    head at a time through Python generator machinery.
    """
    if not postings:
        return []
    smallest = min(postings, key=len)
    survivors = set(smallest)
    for posting in postings:
        if posting is not smallest:
            survivors.intersection_update(posting)
            if not survivors:
                return []
    return sorted(survivors)


def union_sorted(postings: list[list[int]]) -> list[int]:
    """Deduplicated union of ascending rowid lists, ascending.

    Set-based replacement for :func:`operators.merge_union` (OR streams).
    """
    out: set[int] = set()
    for posting in postings:
        out.update(posting)
    return sorted(out)


def build_batch_plan(
    query: Query,
    tjoin: TjoinIndex,
    storages: dict[str, TableStorage],
    tselects: dict[tuple[str, str], TselectIndex],
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> tuple[Iterator[list[tuple]], PlanExplain]:
    """Columnar counterpart of :func:`repro.relational.planner.plan`.

    Returns an iterator of **batches** (lists of at most ``batch_rows``
    projected tuples) plus the same :class:`PlanExplain` the legacy planner
    would produce (with ``batch_rows`` recorded). Differential harnesses
    run both and compare rows and IO counters.
    """
    if batch_rows <= 0:
        raise ValueError(f"batch_rows must be positive, got {batch_rows}")
    validate_query(query, tjoin, storages)
    explain = PlanExplain(batch_rows=batch_rows)
    postings: list[list[int]] = []
    for table, column, value in query.filters:
        tselect = tselects.get((table, column))
        if tselect is not None:
            explain.indexed_predicates.append((table, column, value))
            postings.append(tselect.lookup_batch(value))
        else:
            explain.residual_predicates.append((table, column, value))

    if postings:
        root_rowids: list[int] | range = intersect_sorted(postings)
    else:
        explain.root_scan = True
        root_rowids = range(storages[tjoin.root_table].row_count)

    batches = _execute(
        root_rowids,
        tjoin,
        storages,
        explain.residual_predicates,
        list(query.projection),
        batch_rows,
    )
    return batches, explain


def _execute(
    root_rowids,
    tjoin: TjoinIndex,
    storages: dict[str, TableStorage],
    residuals: list[tuple[str, str, object]],
    projection: list[tuple[str, str]],
    batch_rows: int,
) -> Iterator[list[tuple]]:
    """Row-major batch executor (see module docstring for the IO contract)."""
    root_table = tjoin.root_table
    ancestors = tjoin.ancestors
    has_ancestors = bool(ancestors.ancestor_tables)
    ancestor_slot = {name: i for i, name in enumerate(ancestors.ancestor_tables)}

    # Union of columns each table contributes, one gather per table.
    needed: dict[str, set[int]] = {}
    for table, column, _ in residuals:
        position = storages[table].schema.column_index(column)
        needed.setdefault(table, set()).add(position)
    for table, column in projection:
        position = storages[table].schema.column_index(column)
        needed.setdefault(table, set()).add(position)
    gathers = {
        table: TableGather(storages[table], sorted(positions))
        for table, positions in needed.items()
    }
    resolved_residuals = [
        (table, storages[table].schema.column_index(column), value)
        for table, column, value in residuals
    ]
    resolved_projection = [
        (table, storages[table].schema.column_index(column))
        for table, column in projection
    ]

    ancestor_memo: dict = {}
    batch: list[tuple] = []
    for root_rowid in root_rowids:
        # Eager Tjoin expansion, like operators.tjoin_materialize.
        if has_ancestors:
            joined = ancestors.get_tuple(root_rowid, ancestor_memo)
        else:
            joined = ()
        # First touch per (row, table), like JoinedRow's per-row cache.
        row_pages: dict[str, tuple[dict[int, list], int]] = {}

        keep = True
        for table, position, value in resolved_residuals:
            entry = row_pages.get(table)
            if entry is None:
                rowid = (
                    root_rowid
                    if table == root_table
                    else joined[ancestor_slot[table]]
                )
                entry = row_pages[table] = gathers[table].fetch(rowid)
            columns, slot = entry
            if columns[position][slot] != value:
                keep = False
                break
        if not keep:
            continue

        out_row = []
        for table, position in resolved_projection:
            entry = row_pages.get(table)
            if entry is None:
                rowid = (
                    root_rowid
                    if table == root_table
                    else joined[ancestor_slot[table]]
                )
                entry = row_pages[table] = gathers[table].fetch(rowid)
            columns, slot = entry
            out_row.append(columns[position][slot])
        batch.append(tuple(out_row))
        if len(batch) >= batch_rows:
            yield batch
            batch = []
    if batch:
        yield batch
