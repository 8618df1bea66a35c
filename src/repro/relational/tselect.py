"""Tselect: selection indexes that return *root-table* rowids.

    *"Each key of the index contains the rowids of the schema query root
    table referring to that key"*

A Tselect on ``CUSTOMER.Mktsegment`` for root table ``LINEITEM`` maps each
segment value to the sorted list of LINEITEM rowids whose (transitive)
CUSTOMER ancestor carries that value. Because rowid lists come back sorted,
several Tselect streams can be intersected by a pipelined merge — the
"sorted row ids!" remark on the execution-plan slide.

Construction is a bulk pass: scan the root table's ancestor log in rowid
order, fetch the indexed column of the referenced ancestor tuple, feed
``(value, root_rowid)`` into a sequential key index, and reorganize it into
a :class:`SortedKeyIndex` (log-only, as always). Entries inserted in root
rowid order guarantee each key's posting list is ascending.
"""

from __future__ import annotations

from typing import Iterator

from repro import obs
from repro.errors import QueryError
from repro.hardware.flash import BlockAllocator
from repro.hardware.ram import RamArena
from repro.relational.keyindex import KeyIndex
from repro.relational.reorg import reorganize
from repro.relational.sortedindex import SortedKeyIndex
from repro.relational.table import TableStorage
from repro.relational.tjoin import TjoinIndex


class TselectIndex:
    """Selection index on ``via_table.column``, keyed to root rowids."""

    def __init__(
        self,
        root_table: str,
        via_table: str,
        column: str,
        index: SortedKeyIndex,
    ) -> None:
        self.root_table = root_table
        self.via_table = via_table
        self.column = column
        self._index = index

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        via_table: str,
        column: str,
        tjoin: TjoinIndex,
        storages: dict[str, TableStorage],
        allocator: BlockAllocator,
        ram: RamArena,
        sort_buffer_bytes: int = 8 * 1024,
    ) -> "TselectIndex":
        """Bulk-build over the current contents of the root table."""
        root_table = tjoin.root_table
        if via_table not in tjoin.tables:
            raise QueryError(
                f"table {via_table!r} is not reachable from root "
                f"{root_table!r}"
            )
        storage = storages[via_table]
        column_index = storage.schema.column_index(column)

        staging = KeyIndex(
            f"tselect:{via_table}.{column}:staging", allocator, ram=None
        )
        root_rows = storages[root_table].row_count
        for root_rowid in range(root_rows):
            if via_table == root_table:
                via_rowid = root_rowid
            else:
                via_rowid = tjoin.joined_rowids(root_rowid)[via_table]
            value = storage.read(via_rowid)[column_index]
            staging.insert(value, root_rowid)
        staging.flush()
        index = reorganize(
            staging,
            allocator,
            ram,
            sort_buffer_bytes=sort_buffer_bytes,
            name=f"tselect:{via_table}.{column}",
        )
        staging.drop()
        return cls(root_table, via_table, column, index)

    # ------------------------------------------------------------------
    def lookup(self, value) -> list[int]:
        """Sorted root rowids whose ``via_table.column`` equals ``value``."""
        with obs.span(
            "tselect.probe",
            index=f"{self.via_table}.{self.column}",
            value=str(value),
        ) as span:
            rowids = self._index.lookup(value)
            span.set(
                rowids=len(rowids),
                tree_pages=self._index.last_lookup.tree_pages,
                sorted_pages=self._index.last_lookup.sorted_pages,
            )
        return rowids

    def lookup_batch(self, value) -> list[int]:
        """Batch-path :meth:`lookup`: same span, tags and page reads.

        Delegates to :meth:`SortedKeyIndex.lookup_batch`, whose bisect-based
        run extraction replaces per-record entry decoding; the posting list,
        probe span and IO accounting are identical to the legacy path.
        """
        with obs.span(
            "tselect.probe",
            index=f"{self.via_table}.{self.column}",
            value=str(value),
        ) as span:
            rowids = self._index.lookup_batch(value)
            span.set(
                rowids=len(rowids),
                tree_pages=self._index.last_lookup.tree_pages,
                sorted_pages=self._index.last_lookup.sorted_pages,
            )
        return rowids

    def stream(self, value) -> Iterator[int]:
        """Streaming variant of :meth:`lookup` for pipelined intersection."""
        return iter(self.lookup(value))

    @property
    def entry_count(self) -> int:
        return self._index.entry_count

    def drop(self) -> None:
        self._index.drop()
