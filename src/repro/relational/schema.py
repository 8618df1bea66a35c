"""Relational schema definitions for the embedded database.

Schemas are declared once and shared by storage, indexes and the planner.
Foreign keys form the *schema tree* that Part II's Tselect/Tjoin generalized
indexes are defined over: a designated **root table** (e.g. LINEITEM in the
tutorial's TPCD-like example) references its ancestors through chains of
many-to-one foreign keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError

#: Supported column kinds and their Python types.
KINDS = {"int": int, "float": float, "str": str}


@dataclass(frozen=True)
class Column:
    """One typed column."""

    name: str
    kind: str  # 'int' | 'float' | 'str'

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise QueryError(
                f"column {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {sorted(KINDS)})"
            )

    def check_value(self, value):
        """Validate/coerce one value for this column."""
        expected = KINDS[self.kind]
        if self.kind == "float" and isinstance(value, int):
            return float(value)
        if not isinstance(value, expected):
            raise QueryError(
                f"column {self.name!r} expects {self.kind}, got "
                f"{type(value).__name__} ({value!r})"
            )
        return value


@dataclass(frozen=True)
class ForeignKey:
    """``column`` of this table references ``parent_table.parent_column``."""

    column: str
    parent_table: str
    parent_column: str


@dataclass
class TableSchema:
    """Schema of one table: ordered columns, optional PK, foreign keys."""

    name: str
    columns: list[Column]
    primary_key: str | None = None
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise QueryError(f"table {self.name!r}: duplicate column names")
        if self.primary_key is not None and self.primary_key not in names:
            raise QueryError(
                f"table {self.name!r}: primary key {self.primary_key!r} "
                "is not a column"
            )
        for fk in self.foreign_keys:
            if fk.column not in names:
                raise QueryError(
                    f"table {self.name!r}: foreign key column "
                    f"{fk.column!r} is not a column"
                )

    def column_index(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise QueryError(f"table {self.name!r} has no column {name!r}")

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]


class SchemaGraph:
    """All tables of a database plus the foreign-key graph between them."""

    def __init__(self, tables: list[TableSchema]) -> None:
        self.tables: dict[str, TableSchema] = {}
        for table in tables:
            if table.name in self.tables:
                raise QueryError(f"duplicate table {table.name!r}")
            self.tables[table.name] = table
        for table in tables:
            for fk in table.foreign_keys:
                parent = self.tables.get(fk.parent_table)
                if parent is None:
                    raise QueryError(
                        f"table {table.name!r}: foreign key references "
                        f"unknown table {fk.parent_table!r}"
                    )
                parent.column_index(fk.parent_column)  # validates

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name]
        except KeyError:
            raise QueryError(f"unknown table {name!r}") from None

    def ancestry_paths(self, root: str) -> dict[str, list[ForeignKey]]:
        """FK path from ``root`` to every reachable ancestor table.

        Returns ``{ancestor_table: [fk, fk, ...]}`` where the list walks from
        the root upward. The root maps to the empty path. Used by Tselect and
        Tjoin construction, which need to resolve, for each root tuple, the
        unique ancestor tuple it (transitively) references.
        """
        paths: dict[str, list[ForeignKey]] = {root: []}
        frontier = [root]
        while frontier:
            current = frontier.pop()
            for fk in self.table(current).foreign_keys:
                if fk.parent_table not in paths:
                    paths[fk.parent_table] = paths[current] + [fk]
                    frontier.append(fk.parent_table)
        return paths
