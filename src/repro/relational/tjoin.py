"""Tjoin: the generalized join index of Part II's SQL illustration.

    *"each rowid of the root table contains the rowids of the tuples it
    refers to in the subtree"*

For every table with foreign keys we keep an **ancestor log**: a sequential
log with one fixed-size record per rowid, holding the rowids of the unique
tuple this row (transitively) references in each ancestor table. The log is
filled *incrementally at insertion time* — resolving each direct foreign key
through the parent's primary-key index and inheriting the parent's own
ancestor record — so maintaining it costs one key lookup per foreign key per
insert and never requires a RAM-resident join.

The Tjoin index of the query root table is exactly its ancestor log: given a
root rowid, one page read returns the rowids of every joined tuple, which is
what lets select-project-join plans run in pipeline over sorted root rowids.
"""

from __future__ import annotations

import struct

from repro import obs
from repro.errors import StorageError
from repro.hardware.flash import BlockAllocator
from repro.hardware.ram import RamArena
from repro.storage.log import RecordAddress, RecordLog

_ROWID = struct.Struct("<I")


class AncestorLog:
    """rowid -> {ancestor table: ancestor rowid}, as fixed-size records."""

    def __init__(
        self,
        table: str,
        ancestor_tables: list[str],
        allocator: BlockAllocator,
        ram: RamArena | None = None,
    ) -> None:
        self.table = table
        #: Ancestor tables in a fixed, sorted order defining record layout.
        self.ancestor_tables = sorted(ancestor_tables)
        self.log = RecordLog(allocator, name=f"{table}:ancestors", ram=ram)
        self._record = struct.Struct("<%dI" % len(self.ancestor_tables))
        self._row_count = 0

    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return self._row_count

    def append(self, ancestors: dict[str, int]) -> None:
        """Record the ancestors of the next rowid (in insertion order)."""
        if set(ancestors) != set(self.ancestor_tables):
            raise StorageError(
                f"table {self.table!r}: ancestor record must cover exactly "
                f"{self.ancestor_tables}, got {sorted(ancestors)}"
            )
        record = b"".join(
            _ROWID.pack(ancestors[name]) for name in self.ancestor_tables
        )
        self.log.append(record)
        self._row_count += 1

    def get(self, rowid: int) -> dict[str, int]:
        """Ancestor rowids of ``rowid`` (one address computation, one read)."""
        if not 0 <= rowid < self._row_count:
            raise StorageError(
                f"table {self.table!r}: no ancestor record for rowid {rowid}"
            )
        with obs.span("tjoin.probe", table=self.table, rowid=rowid):
            record = self.log.read(RecordAddress(*self.log.locate(rowid)))
        return {
            name: _ROWID.unpack_from(record, i * _ROWID.size)[0]
            for i, name in enumerate(self.ancestor_tables)
        }

    def _decode_page(self, page: bytes) -> list[tuple[int, ...]]:
        """Decode one log page into ancestor-rowid tuples, slot order."""
        from repro.storage import pager

        unpack = self._record.unpack
        return [unpack(record) for record in pager.unpack_records(page)]

    def get_tuple(self, rowid: int, memo: dict) -> tuple[int, ...]:
        """Batch-path :meth:`get`: ancestor rowids in ``ancestor_tables`` order.

        Issues the exact page access :meth:`get` would (same address
        computation, same ``tjoin.probe`` span per row), but memoizes the
        decoded page in the caller-owned ``memo`` so repeated probes into
        one page decode it once per query instead of once per row.
        """
        if not 0 <= rowid < self._row_count:
            raise StorageError(
                f"table {self.table!r}: no ancestor record for rowid {rowid}"
            )
        position, slot = self.log.locate(rowid)
        with obs.span("tjoin.probe", table=self.table, rowid=rowid):
            if position == self.log.page_count:
                # Record still in the RAM write buffer: no page access,
                # exactly like RecordLog.read on the buffered position.
                key = ("buffer", position)
                try:
                    decoded = memo[key]
                except KeyError:
                    unpack = self._record.unpack
                    decoded = memo[key] = [
                        unpack(record)
                        for record in self.log.buffered_records()
                    ]
            else:
                decoded = self.log.pages.read_decoded(
                    position, self._decode_page, memo=memo
                )
        if slot >= len(decoded):
            raise StorageError(
                f"log {self.log.name!r}: slot {slot} out of range on page "
                f"{position}"
            )
        return decoded[slot]

    def flush(self) -> None:
        self.log.flush()


class TjoinIndex:
    """Root-table view of the ancestor log — the paper's Tjoin.

    Thin façade so plans read ``tjoin.joined_rowids(root_rowid)`` and get
    every table of the subtree, root included.
    """

    def __init__(self, root_table: str, ancestors: AncestorLog) -> None:
        self.root_table = root_table
        self.ancestors = ancestors

    @property
    def tables(self) -> list[str]:
        """All tables a joined row covers (root first, then ancestors)."""
        return [self.root_table] + self.ancestors.ancestor_tables

    def joined_rowids(self, root_rowid: int) -> dict[str, int]:
        """rowids of the full joined tuple anchored at ``root_rowid``."""
        joined = {self.root_table: root_rowid}
        if self.ancestors.ancestor_tables:
            joined.update(self.ancestors.get(root_rowid))
        return joined
