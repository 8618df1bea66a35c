"""Planning of select-project-join queries over Tselect/Tjoin indexes.

The plan shape is fixed by the tutorial's execution-plan slide:

1. probe one **Tselect** per indexed predicate → ascending root-rowid streams;
2. **merge-intersect** the streams (pipelined, sorted rowids);
3. expand survivors through the **Tjoin** index;
4. apply residual (un-indexed) predicates, then project.

Predicates with no Tselect simply fall into step 4; with no indexed
predicate at all, step 1-2 degrade to a root-table rowid scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import QueryError
from repro.relational import operators
from repro.relational.table import TableStorage
from repro.relational.tjoin import TjoinIndex
from repro.relational.tselect import TselectIndex


@dataclass(frozen=True)
class Query:
    """A conjunctive select-project-join query anchored at the root table.

    ``filters`` are equality predicates ``(table, column, value)``;
    ``projection`` lists output columns ``(table, column)``.
    """

    filters: tuple[tuple[str, str, object], ...]
    projection: tuple[tuple[str, str], ...]

    @classmethod
    def build(cls, filters, projection) -> "Query":
        return cls(
            tuple((t, c, v) for t, c, v in filters),
            tuple((t, c) for t, c in projection),
        )


@dataclass
class PlanExplain:
    """What the planner decided — inspectable by tests and benches."""

    indexed_predicates: list[tuple[str, str, object]] = field(default_factory=list)
    residual_predicates: list[tuple[str, str, object]] = field(default_factory=list)
    root_scan: bool = False
    #: Rows per output batch under columnar execution; None = legacy path.
    batch_rows: int | None = None


def validate_query(
    query: Query,
    tjoin: TjoinIndex,
    storages: dict[str, TableStorage],
) -> None:
    """Reject queries referencing unknown/unreachable tables or columns."""
    reachable = set(tjoin.tables)
    for table, column, _ in query.filters:
        if table not in reachable:
            raise QueryError(
                f"filter table {table!r} is not joined to root "
                f"{tjoin.root_table!r}"
            )
        storages[table].schema.column_index(column)
    if not query.projection:
        raise QueryError("projection must name at least one column")
    for table, column in query.projection:
        if table not in reachable:
            raise QueryError(
                f"projected table {table!r} is not joined to root "
                f"{tjoin.root_table!r}"
            )
        storages[table].schema.column_index(column)


def plan(
    query: Query,
    tjoin: TjoinIndex,
    storages: dict[str, TableStorage],
    tselects: dict[tuple[str, str], TselectIndex],
) -> tuple[Iterator[tuple], PlanExplain]:
    """Build the pipelined iterator for ``query`` plus its explain record."""
    validate_query(query, tjoin, storages)
    explain = PlanExplain()
    streams = []
    for table, column, value in query.filters:
        tselect = tselects.get((table, column))
        if tselect is not None:
            explain.indexed_predicates.append((table, column, value))
            streams.append(tselect.stream(value))
        else:
            explain.residual_predicates.append((table, column, value))

    if streams:
        root_rowids: Iterator[int] = operators.merge_intersect(streams)
    else:
        explain.root_scan = True
        root_rowids = iter(range(storages[tjoin.root_table].row_count))

    rows = operators.tjoin_materialize(root_rowids, tjoin, storages)
    if explain.residual_predicates:
        rows = operators.filter_rows(
            rows, explain.residual_predicates, storages
        )
    return operators.project(rows, list(query.projection), storages), explain
