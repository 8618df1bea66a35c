"""Sequentially Written Logs (SWL): the only write pattern the token uses.

The tutorial's "general (implicit) framework" states the rule every Part II
structure obeys:

    *Organize all index structures into sequential logs. Pages are written
    sequentially (and never updated nor moved); allocation and de-allocation
    are made on a Flash-block basis.*

:class:`PageLog` is that primitive — an append-only sequence of flash pages
spanning dynamically allocated blocks. :class:`RecordLog` layers a
record-per-append interface on top with a single-page RAM write buffer,
which is the entire RAM cost of maintaining a log.

Every page a :class:`PageLog` programs carries a
:class:`~repro.storage.pager.PageHeader` in the flash spare area naming
its log, epoch and in-log sequence number. That makes logs *remountable*:
after power loss, :mod:`repro.storage.recovery` rebuilds them from a
sequential flash scan via :meth:`PageLog.remount` /
:meth:`RecordLog.remount`, with torn or corrupt tail pages truncated away.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.errors import LogSealedError, StorageError
from repro.hardware.flash import BlockAllocator
from repro.hardware.ram import RamArena
from repro.storage import pager


@dataclass(frozen=True, order=True)
class RecordAddress:
    """Stable address of a record inside a :class:`RecordLog`.

    ``position`` is the log-order index of the page (not the physical page
    number, which depends on block allocation) and ``slot`` the record's
    index within that page. Addresses order exactly like append order.
    """

    position: int
    slot: int


class PageLog:
    """Append-only sequence of pages over block-granular flash allocation.

    ``epoch`` identifies the log's incarnation: reorganizations build the
    successor structure under a fresh epoch so crash recovery can tell the
    old and new instances of a log name apart and keep exactly one.
    """

    def __init__(
        self,
        allocator: BlockAllocator,
        name: str = "log",
        epoch: int = 0,
    ) -> None:
        self.allocator = allocator
        self.flash = allocator.flash
        self.name = name
        self.epoch = epoch
        self.log_id = pager.log_id_of(name)
        self._blocks: list[int] = []
        self._page_numbers: list[int] = []  # physical page of each log position
        self._page_metas: list[int] = []  # per-page u16 from the page header
        self._next_seq = 0
        self._sealed = False
        self._dropped = False

    @classmethod
    def remount(
        cls,
        allocator: BlockAllocator,
        name: str,
        recovered,
    ) -> "PageLog":
        """Rebuild a log from a :class:`~repro.storage.recovery.RecoveredLog`.

        The recovered pages are already CRC-checked and ordered by sequence
        number, so position ``i`` here is exactly position ``i`` of the
        pre-crash log (truncation only ever drops a suffix). ``next_seq``
        resumes above every sequence number seen on flash — including
        truncated ones — so re-appended pages can never collide with
        leftovers from before the crash.
        """
        log = cls(allocator, name, epoch=recovered.epoch)
        if recovered.log_id != log.log_id:
            raise StorageError(
                f"recovered pages belong to log id {recovered.log_id:#x}, "
                f"not to {name!r} ({log.log_id:#x})"
            )
        for page in recovered.pages:
            block = log.flash.geometry.block_of(page.page_no)
            if not log._blocks or log._blocks[-1] != block:
                log._blocks.append(block)
            log._page_numbers.append(page.page_no)
            log._page_metas.append(page.header.meta)
        log._next_seq = recovered.next_seq
        return log

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of pages appended so far."""
        return len(self._page_numbers)

    @property
    def page_size(self) -> int:
        return self.flash.geometry.page_size

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def sealed(self) -> bool:
        return self._sealed

    def append_page(self, data: bytes, meta: int = 0) -> int:
        """Program ``data`` as the next page; returns its log position.

        ``meta`` is stored in the page's header for the owning structure
        (tree level, bucket id, ...) and recovered verbatim on remount.

        The next free slot is asked of the chip's write cursor rather than
        derived from ``len(log) % pages_per_block``: after a crash the tail
        block may contain a torn page that occupies a slot but belongs to
        no log, and appends must continue *past* it.
        """
        self._check_writable()
        if (
            not self._blocks
            or self.flash.next_free_page(self._blocks[-1]) is None
        ):
            self._blocks.append(self.allocator.allocate())
        block = self._blocks[-1]
        in_block = self.flash.next_free_page(block)
        page_no = self.flash.geometry.first_page_of(block) + in_block
        header = pager.PageHeader.for_payload(
            self.log_id, self.epoch, self._next_seq, data, meta=meta
        )
        self.flash.program_page(page_no, data, spare=header.pack())
        self._next_seq += 1
        self._page_numbers.append(page_no)
        self._page_metas.append(meta)
        return len(self._page_numbers) - 1

    def page_meta(self, position: int) -> int:
        """The header ``meta`` value the page at ``position`` was written with."""
        self._physical_page(position)  # bounds + liveness check
        return self._page_metas[position]

    def read_page(self, position: int) -> bytes:
        """Read the page at log ``position`` (0-based append order).

        Served from the allocator's :class:`~repro.hardware.cache.PageCache`
        when one is attached; only cache misses cost flash IO.
        """
        page_no = self._physical_page(position)
        cache = self.allocator.page_cache
        if cache is not None:
            return cache.read_page(page_no)
        return self.flash.read_page(page_no)

    def read_records(self, position: int) -> list[bytes]:
        """Read + unpack the page at ``position`` as a record list.

        With a cache attached the decode is memoized per cached residency,
        so hot pages are unpacked once instead of once per read. Callers
        must not mutate the returned list.
        """
        cache = self.allocator.page_cache
        if cache is not None:
            return cache.read_decoded(
                self._physical_page(position), pager.unpack_records
            )
        return pager.unpack_records(self.read_page(position))

    def read_decoded(self, position: int, decode, memo: dict | None = None):
        """Read the page at ``position`` through ``decode``, memoized.

        Like :meth:`read_records` but for logs with their own page layout
        (e.g. chained bucket pages); ``decode(data)`` runs once per cached
        residency when a cache is attached, every read otherwise.

        With a caller-owned ``memo`` dict (the batch executor's per-query
        decode memo), the page access is **always** paid first — a cache
        lookup or a real flash read, exactly like the record-at-a-time
        path — and only the *decode* is memoized, keyed by log position.
        This keeps simulated IO counts byte-identical while letting one
        query decode each touched page a single time, and it never touches
        the cache's own single decode slot (which may belong to a
        different decoder for the same page).
        """
        if memo is not None:
            data = self.read_page(position)  # IO accounting, cache or flash
            try:
                return memo[position]
            except KeyError:
                decoded = memo[position] = decode(data)
                return decoded
        cache = self.allocator.page_cache
        if cache is not None:
            return cache.read_decoded(self._physical_page(position), decode)
        return decode(self.read_page(position))

    def _physical_page(self, position: int) -> int:
        self._check_alive()
        if not 0 <= position < len(self._page_numbers):
            raise StorageError(
                f"log {self.name!r}: position {position} out of range "
                f"[0, {len(self._page_numbers)})"
            )
        return self._page_numbers[position]

    def iter_pages(self) -> Iterator[bytes]:
        """Yield pages in append order."""
        for position in range(len(self._page_numbers)):
            yield self.read_page(position)

    def seal(self) -> None:
        """Make the log immutable (reorganized structures are sealed)."""
        self._sealed = True

    def drop(self) -> None:
        """Erase and free every block of the log (whole-log reclamation).

        This is the framework's answer to garbage collection: logs are
        reclaimed in bulk after a reorganization swap, never page by page.
        """
        self._check_alive()
        for block in self._blocks:
            self.allocator.free(block)
        self._blocks.clear()
        self._page_numbers.clear()
        self._page_metas.clear()
        self._dropped = True

    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self._dropped:
            raise StorageError(f"log {self.name!r} has been dropped")

    def _check_writable(self) -> None:
        self._check_alive()
        if self._sealed:
            raise LogSealedError(f"log {self.name!r} is sealed")


class RecordLog:
    """Record-oriented append-only log with a one-page RAM write buffer.

    Records are packed into pages with :mod:`repro.storage.pager`; a record
    must fit in one page. While the log is open for writing it holds exactly
    one page buffer in the (optional) :class:`RamArena` — the "pipeline
    friendly" RAM footprint the tutorial's framework promises.
    """

    def __init__(
        self,
        allocator: BlockAllocator,
        name: str = "records",
        ram: RamArena | None = None,
        epoch: int = 0,
    ) -> None:
        self.pages = PageLog(allocator, name, epoch=epoch)
        self.name = name
        #: Optional hook called as ``on_page_flush(position, records)`` right
        #: after a page hits flash — used by indexes that summarize pages
        #: (e.g. one Bloom filter per Keys page).
        self.on_page_flush = None
        self._ram = ram
        self._buffer: list[bytes] = []
        self._buffer_size = 2  # packed size of an empty page (count field)
        self._record_count = 0
        #: Running record total at the end of each flushed page — the RAM
        #: map from an append ordinal to its (page, slot), whatever mix of
        #: full and partially filled pages the flushes produced.
        self._page_ends: list[int] = []
        self._ram_handle = (
            ram.allocate(self.pages.page_size, tag=f"log:{name}:writebuf")
            if ram is not None
            else None
        )

    @classmethod
    def remount(
        cls,
        allocator: BlockAllocator,
        name: str,
        recovered,
        ram: RamArena | None = None,
    ) -> "RecordLog":
        """Rebuild a record log from a crash-recovery scan.

        Record counts per page come from the recovered payloads already in
        RAM — re-deriving ``_page_ends`` costs zero flash reads.
        Anything that was only in the write buffer at the crash is gone,
        which is the contract: a record is durable once its page flushed.
        """
        log = cls(allocator, name, ram, epoch=recovered.epoch)
        log.pages = PageLog.remount(allocator, name, recovered)
        for page in recovered.pages:
            log._record_count += len(pager.unpack_records(page.payload))
            log._page_ends.append(log._record_count)
        return log

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total records appended (buffered ones included)."""
        return self._record_count

    @property
    def page_count(self) -> int:
        """Pages already on flash (the write buffer is not counted)."""
        return len(self.pages)

    def append(self, record: bytes) -> RecordAddress:
        """Append one record, flushing the page buffer when it fills up."""
        max_payload = self.pages.page_size
        if pager.records_size([record]) > max_payload:
            raise StorageError(
                f"record of {len(record)} B cannot fit in a "
                f"{self.pages.page_size} B page"
            )
        if not pager.record_fits(self._buffer_size, record, max_payload):
            self.flush()
        slot = len(self._buffer)
        self._buffer.append(record)
        self._buffer_size += 2 + len(record)
        self._record_count += 1
        return RecordAddress(position=len(self.pages), slot=slot)

    def flush(self) -> None:
        """Write the buffered records to flash as one page."""
        if not self._buffer:
            return
        position = self.pages.append_page(pager.pack_records(self._buffer))
        self._page_ends.append(self._record_count)
        flushed, self._buffer = self._buffer, []
        self._buffer_size = 2
        if self.on_page_flush is not None:
            self.on_page_flush(position, flushed)

    def read(self, address: RecordAddress) -> bytes:
        """Fetch one record by address (reads its page, or the RAM buffer)."""
        if address.position < 0 or address.slot < 0:
            # A negative index would silently address from the end of the
            # page — never a valid record address, so reject it outright.
            raise StorageError(
                f"log {self.name!r}: negative record address {address}"
            )
        if address.position == len(self.pages):
            if address.slot >= len(self._buffer):
                raise StorageError(f"no record at {address}")
            return self._buffer[address.slot]
        if address.slot >= self.records_on_page(address.position):
            # The per-page record tally rejects a dangling slot before any
            # flash read is spent fetching the page it cannot be on.
            raise StorageError(f"no record at {address}")
        records = self.pages.read_records(address.position)
        if address.slot >= len(records):
            raise StorageError(f"no record at {address}")
        return records[address.slot]

    def records_on_page(self, position: int) -> int:
        """Records packed into the flushed page at ``position`` (no IO)."""
        if not 0 <= position < len(self._page_ends):
            raise StorageError(
                f"log {self.name!r}: no flushed page at position {position}"
            )
        ends = self._page_ends
        return ends[position] - (ends[position - 1] if position else 0)

    def locate(self, ordinal: int) -> tuple[int, int]:
        """``(position, slot)`` of the ``ordinal``-th appended record (no IO).

        Resolved from the per-page record totals held in RAM, so it stays
        right when a flush closed a page early; a position equal to
        :attr:`page_count` means the record is still in the write buffer.
        """
        if not 0 <= ordinal < self._record_count:
            raise StorageError(
                f"log {self.name!r}: no record with ordinal {ordinal}"
            )
        ends = self._page_ends
        position = bisect_right(ends, ordinal)
        return position, ordinal - (ends[position - 1] if position else 0)

    def scan(self) -> Iterator[tuple[RecordAddress, bytes]]:
        """Yield ``(address, record)`` in append order, buffer included."""
        for position in range(len(self.pages)):
            records = self.pages.read_records(position)
            for slot, record in enumerate(records):
                yield RecordAddress(position, slot), record
        for slot, record in enumerate(self._buffer):
            yield RecordAddress(len(self.pages), slot), record

    def buffered_records(self) -> list[bytes]:
        """Records staged in the RAM write buffer (not yet on flash)."""
        return list(self._buffer)

    def scan_pages(self) -> Iterator[list[bytes]]:
        """Yield flushed pages as record lists (no buffer), in append order."""
        for position in range(len(self.pages)):
            yield self.pages.read_records(position)

    def seal(self) -> None:
        """Flush, release the write buffer's RAM and make the log immutable."""
        self.flush()
        self.pages.seal()
        self._release_ram()

    def drop(self) -> None:
        """Discard the log and reclaim its flash blocks."""
        self._buffer = []
        self._buffer_size = 2
        self._record_count = 0
        # Without this reset a dropped log still reports per-page record
        # tallies for pages whose blocks were just erased, and anything
        # consulting them (the read-path bounds check above) would trust
        # counts for data that no longer exists.
        self._page_ends.clear()
        self.pages.drop()
        self._release_ram()

    # ------------------------------------------------------------------
    def _release_ram(self) -> None:
        if self._ram is not None and self._ram_handle is not None:
            self._ram.free(self._ram_handle)
            self._ram_handle = None
