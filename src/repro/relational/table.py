"""Table storage: tuples in a sequential data log with rowid addressing.

Tuples are appended to a :class:`~repro.storage.log.RecordLog` (the data is
itself a log — "Log1" of the tutorial's vertical-partition picture). Rows are
variable length, so a parallel *address log* with fixed 8-byte entries maps
``rowid -> (page position, slot)``; fetching a row by rowid costs at most two
page reads (address page + data page), with no per-row RAM.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import StorageError
from repro.hardware.flash import BlockAllocator
from repro.hardware.ram import RamArena
from repro.relational.schema import TableSchema
from repro.relational.tuples import deserialize_row, serialize_row
from repro.storage import pager
from repro.storage.log import RecordAddress, RecordLog

_ADDRESS = struct.Struct("<IH")  # page position, slot


class TableStorage:
    """One table's data log + rowid address log on a token's flash."""

    def __init__(
        self,
        schema: TableSchema,
        allocator: BlockAllocator,
        ram: RamArena | None = None,
    ) -> None:
        self.schema = schema
        self.data = RecordLog(allocator, name=f"{schema.name}:data", ram=ram)
        self.addresses = RecordLog(allocator, name=f"{schema.name}:addr", ram=ram)
        self._row_count = 0

    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def data_pages(self) -> int:
        """Flushed data pages (the page count a full scan reads)."""
        return self.data.page_count

    def insert(self, values: tuple) -> int:
        """Append one row; returns its rowid (dense, append-ordered)."""
        address = self.data.append(serialize_row(self.schema, values))
        self.addresses.append(_ADDRESS.pack(address.position, address.slot))
        rowid = self._row_count
        self._row_count += 1
        return rowid

    def flush(self) -> None:
        self.data.flush()
        self.addresses.flush()

    # ------------------------------------------------------------------
    def read(self, rowid: int) -> tuple:
        """Fetch one row by rowid."""
        if not 0 <= rowid < self._row_count:
            raise StorageError(
                f"table {self.schema.name!r}: rowid {rowid} out of range "
                f"[0, {self._row_count})"
            )
        # The rowid is the entry's ordinal in the address log; the log's
        # RAM page tallies turn it into a page/slot without any IO.
        raw = self.addresses.read(
            RecordAddress(*self.addresses.locate(rowid))
        )
        position, slot = _ADDRESS.unpack(raw)
        return deserialize_row(
            self.schema, self.data.read(RecordAddress(position, slot))
        )

    def value(self, rowid: int, column: str) -> object:
        """Fetch one column of one row."""
        return self.read(rowid)[self.schema.column_index(column)]

    def read_batch(
        self, rowids, columns: list[str] | None = None
    ) -> dict[str, list]:
        """Columnar fetch: ``{column: [values...]}`` aligned to ``rowids``.

        Issues exactly the page accesses :meth:`read` would — one address
        page plus one data page per rowid, in rowid-list order — but decodes
        each touched page once into column vectors instead of once per row.
        ``columns`` defaults to the full schema.
        """
        from repro.relational.batch import TableGather

        names = (
            list(columns)
            if columns is not None
            else [column.name for column in self.schema.columns]
        )
        positions = [self.schema.column_index(name) for name in names]
        gather = TableGather(self, positions)
        out: dict[str, list] = {name: [] for name in names}
        for rowid in rowids:
            page_columns, slot = gather.fetch(rowid)
            for name, position in zip(names, positions):
                out[name].append(page_columns[position][slot])
        return out

    def scan_mask(
        self, column: str, value
    ) -> Iterator[tuple[int, list[bool]]]:
        """Columnar predicate scan: ``(first_rowid, match mask)`` per page.

        Same page reads as :meth:`scan` (buffer included), but each page is
        reduced to an equality mask by :func:`repro.relational.tuples.
        make_predicate_mask` — comparing encoded bytes where possible, so
        a summary-scan style ``count`` never materializes row values.
        """
        from repro.relational.tuples import make_predicate_mask

        mask = make_predicate_mask(
            self.schema, self.schema.column_index(column), value
        )
        # Encoded-value masks expose the bytes a matching row must contain;
        # pages without them (the vast majority under a selective
        # predicate) yield an all-False mask with no record unpacking —
        # only the count header is read. Never a false negative: records
        # are verbatim slices of the page.
        needle = getattr(mask, "needle", None)
        rowid = 0
        for position in range(len(self.data.pages)):
            page = self.data.pages.read_page(position)
            if needle is not None and needle not in page:
                count = pager.unpack_u16(page, 0) if page else 0
                yield rowid, [False] * count
                rowid += count
                continue
            records = pager.unpack_records(page)
            yield rowid, mask(records)
            rowid += len(records)
        buffered = self.data.buffered_records()
        if buffered:
            yield rowid, mask(buffered)

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield ``(rowid, row)`` in rowid order (a full sequential scan)."""
        for rowid, (_, record) in enumerate(self.data.scan()):
            yield rowid, deserialize_row(self.schema, record)
