"""NAND flash simulator: the storage substrate of a secure portable token.

The tutorial's Part II rests on two physical facts about NAND flash that this
module enforces rather than merely documents:

* **Write-by-page, erase-by-block.** A page can only be *programmed* once
  after the erase of its enclosing block; rewriting a page in place is a
  :class:`~repro.errors.FlashViolation`.
* **Sequential programming inside a block.** Real NAND chips require pages of
  a block to be programmed in increasing order; honouring it here means any
  data structure that "randomly writes" simply cannot be built on this model,
  which is exactly the design pressure that leads to the log-only structures
  of the paper.

Every operation is metered by a :class:`FlashCostModel` so benchmarks can
report IO counts and simulated latencies (the "17 IOs vs 640 IOs" style of
numbers in the slides).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import FlashViolation, PowerLossError

_ERASED = None  # sentinel content of a page that has been erased


@dataclass(frozen=True)
class FlashCostModel:
    """Latency model of one NAND operation, in microseconds.

    Defaults follow typical SLC NAND datasheet figures quoted in the
    flash-aware indexing literature the tutorial cites (BFTL, PBFilter):
    reads are cheap, programs ~10x dearer, erases ~60x dearer still.
    """

    read_us: float = 25.0
    program_us: float = 200.0
    erase_us: float = 1500.0


@dataclass
class FlashStats:
    """Mutable operation counters for one flash chip.

    ``spare_bytes`` meters the out-of-band page-header bytes programmed
    alongside page payloads (the cost of the self-describing pages that
    make crash recovery possible); it rides inside the same program
    operation so it adds no IOs, only metadata volume.
    """

    page_reads: int = 0
    page_programs: int = 0
    block_erases: int = 0
    spare_bytes: int = 0

    def time_us(self, cost: FlashCostModel) -> float:
        """Total simulated time of all operations under ``cost``."""
        return (
            self.page_reads * cost.read_us
            + self.page_programs * cost.program_us
            + self.block_erases * cost.erase_us
        )

    def snapshot(self) -> "FlashStats":
        """Return an independent copy (for before/after deltas in benches)."""
        return FlashStats(
            self.page_reads,
            self.page_programs,
            self.block_erases,
            self.spare_bytes,
        )

    def delta(self, before: "FlashStats") -> "FlashStats":
        """Operations performed since ``before`` was snapshotted."""
        return FlashStats(
            self.page_reads - before.page_reads,
            self.page_programs - before.page_programs,
            self.block_erases - before.block_erases,
            self.spare_bytes - before.spare_bytes,
        )


@dataclass(frozen=True)
class FlashGeometry:
    """Physical layout of a NAND chip.

    ``spare_size`` is the out-of-band (OOB) area every real NAND page
    carries next to its data area — the place firmware keeps ECC and
    logical-page metadata. The simulator stores per-page log headers
    there, so header overhead never eats into payload capacity and the
    record-packing arithmetic of every log is unchanged by durability.
    """

    page_size: int = 2048
    pages_per_block: int = 64
    num_blocks: int = 1024
    spare_size: int = 64

    @property
    def num_pages(self) -> int:
        return self.pages_per_block * self.num_blocks

    @property
    def capacity_bytes(self) -> int:
        return self.num_pages * self.page_size

    def block_of(self, page_no: int) -> int:
        return page_no // self.pages_per_block

    def page_index_in_block(self, page_no: int) -> int:
        return page_no % self.pages_per_block

    def first_page_of(self, block_no: int) -> int:
        return block_no * self.pages_per_block


class NandFlash:
    """A simulated NAND flash chip with strict programming-order rules.

    Pages hold arbitrary ``bytes`` up to ``geometry.page_size``. The chip
    starts fully erased. All constraint violations raise
    :class:`FlashViolation` so higher layers cannot accidentally rely on
    behaviour real hardware forbids.
    """

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        cost_model: FlashCostModel | None = None,
    ) -> None:
        self.geometry = geometry or FlashGeometry()
        self.cost_model = cost_model or FlashCostModel()
        self.stats = FlashStats()
        self._pages: list[bytes | None] = [_ERASED] * self.geometry.num_pages
        self._spares: list[bytes] = [b""] * self.geometry.num_pages
        # Next programmable page index inside each block (sequential rule).
        self._write_cursor: list[int] = [0] * self.geometry.num_blocks
        self._erase_counts: list[int] = [0] * self.geometry.num_blocks
        # Mutation observers (page caches invalidate through these).
        self._on_program: list = []
        self._on_erase: list = []
        self._on_power_cycle: list = []
        #: Read observer installed by :meth:`repro.obs.Tracer.watch_flash`
        #: (None when tracing is off — the hot path pays one None check).
        self.trace_read = None
        #: Optional :class:`~repro.fault.FaultPlan` intercepting programs
        #: and erases (None on the default, fault-free path).
        self.fault_injector = None

    def subscribe(
        self, on_program=None, on_erase=None, on_power_cycle=None
    ) -> None:
        """Register callbacks fired after a successful program / erase.

        ``on_program(page_no)`` runs after a page is programmed and
        ``on_erase(block_no)`` after a block is erased — the two events
        that can change what a page reads back, hence the complete
        invalidation feed for any cache sitting above the chip.
        ``on_power_cycle()`` fires when the chip loses power, before every
        subscription is dropped — the last chance for volatile layers
        (page caches) to reset alongside the RAM they live in.
        """
        if on_program is not None:
            self._on_program.append(on_program)
        if on_erase is not None:
            self._on_erase.append(on_erase)
        if on_power_cycle is not None:
            self._on_power_cycle.append(on_power_cycle)

    def unsubscribe(
        self, on_program=None, on_erase=None, on_power_cycle=None
    ) -> None:
        """Remove callbacks previously registered with :meth:`subscribe`."""
        if on_program is not None and on_program in self._on_program:
            self._on_program.remove(on_program)
        if on_erase is not None and on_erase in self._on_erase:
            self._on_erase.remove(on_erase)
        if on_power_cycle is not None and on_power_cycle in self._on_power_cycle:
            self._on_power_cycle.remove(on_power_cycle)

    # ------------------------------------------------------------------
    # Raw page/block operations
    # ------------------------------------------------------------------
    def read_page(self, page_no: int) -> bytes:
        """Read one page; erased pages read back as empty bytes."""
        self._check_page(page_no)
        self.stats.page_reads += 1
        if self.trace_read is not None:
            self.trace_read(page_no)
        content = self._pages[page_no]
        return b"" if content is _ERASED else content

    def read_page_with_spare(self, page_no: int) -> tuple[bytes, bytes]:
        """Read one page's data and spare (OOB) area in a single operation.

        This is the mount/recovery read path: real NAND transfers the spare
        area in the same page read, so the scan is metered as exactly one
        read per programmed page.
        """
        self._check_page(page_no)
        self.stats.page_reads += 1
        if self.trace_read is not None:
            self.trace_read(page_no)
        content = self._pages[page_no]
        if content is _ERASED:
            return b"", b""
        return content, self._spares[page_no]

    def program_page(self, page_no: int, data: bytes, spare: bytes = b"") -> None:
        """Program an erased page, respecting in-block sequential order.

        ``spare`` lands in the page's out-of-band area (page headers); it is
        written by the same program operation as the data area.
        """
        self._check_page(page_no)
        if len(data) > self.geometry.page_size:
            raise FlashViolation(
                f"page data of {len(data)} B exceeds page size "
                f"{self.geometry.page_size} B"
            )
        if len(spare) > self.geometry.spare_size:
            raise FlashViolation(
                f"spare data of {len(spare)} B exceeds spare size "
                f"{self.geometry.spare_size} B"
            )
        if self._pages[page_no] is not _ERASED:
            raise FlashViolation(
                f"page {page_no} already programmed; erase block "
                f"{self.geometry.block_of(page_no)} first (no in-place rewrite)"
            )
        block = self.geometry.block_of(page_no)
        expected = self._write_cursor[block]
        actual = self.geometry.page_index_in_block(page_no)
        if actual != expected:
            raise FlashViolation(
                f"block {block}: pages must be programmed sequentially; "
                f"expected in-block index {expected}, got {actual}"
            )
        fault = None
        if self.fault_injector is not None:
            fault = self.fault_injector.on_program(page_no, data, spare)
            if fault is not None:
                data, spare = fault.data, fault.spare
        self._pages[page_no] = bytes(data)
        self._spares[page_no] = bytes(spare)
        self._write_cursor[block] = actual + 1
        self.stats.page_programs += 1
        self.stats.spare_bytes += len(spare)
        if fault is not None and fault.kill:
            # Power died mid-program: the (torn) page is on silicon but the
            # host never learns — observers are RAM and RAM is gone.
            raise PowerLossError(
                f"power lost during program of page {page_no}"
            )
        for callback in self._on_program:
            callback(page_no)

    def erase_block(self, block_no: int) -> None:
        """Erase a whole block, resetting its write cursor."""
        self._check_block(block_no)
        fault = None
        if self.fault_injector is not None:
            fault = self.fault_injector.on_erase(block_no)
        if fault is not None and fault.kill and not fault.perform:
            # Power died before the erase pulse took effect.
            self.stats.block_erases += 1
            raise PowerLossError(
                f"power lost before erase of block {block_no}"
            )
        start = self.geometry.first_page_of(block_no)
        for page_no in range(start, start + self.geometry.pages_per_block):
            self._pages[page_no] = _ERASED
            self._spares[page_no] = b""
        self._write_cursor[block_no] = 0
        self._erase_counts[block_no] += 1
        self.stats.block_erases += 1
        if fault is not None and fault.kill:
            raise PowerLossError(
                f"power lost right after erase of block {block_no}"
            )
        for callback in self._on_erase:
            callback(block_no)

    # ------------------------------------------------------------------
    # Power loss
    # ------------------------------------------------------------------
    def power_cycle(self) -> None:
        """Simulate unplugging the token: volatile state dies, silicon stays.

        Programmed pages (data + spare), erase counts and the operation
        meter survive — they are physical. Everything host-side is dropped:
        program/erase/power subscribers (page caches get one last
        ``on_power_cycle`` so they can reset with the RAM they live in),
        the trace hook, and any attached fault injector. Write cursors are
        recomputed from page state, exactly as a NAND controller rediscovers
        them at boot.
        """
        for callback in self._on_power_cycle:
            callback()
        self._on_program.clear()
        self._on_erase.clear()
        self._on_power_cycle.clear()
        self.trace_read = None
        self.fault_injector = None
        pages_per_block = self.geometry.pages_per_block
        for block in range(self.geometry.num_blocks):
            start = self.geometry.first_page_of(block)
            cursor = 0
            while (
                cursor < pages_per_block
                and self._pages[start + cursor] is not _ERASED
            ):
                cursor += 1
            self._write_cursor[block] = cursor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_erased(self, page_no: int) -> bool:
        self._check_page(page_no)
        return self._pages[page_no] is _ERASED

    def next_free_page(self, block_no: int) -> int | None:
        """In-block index of the next programmable page, or None if full."""
        self._check_block(block_no)
        cursor = self._write_cursor[block_no]
        if cursor >= self.geometry.pages_per_block:
            return None
        return cursor

    def erase_count(self, block_no: int) -> int:
        """Wear counter: how many times ``block_no`` has been erased."""
        self._check_block(block_no)
        return self._erase_counts[block_no]

    def total_time_us(self) -> float:
        return self.stats.time_us(self.cost_model)

    # ------------------------------------------------------------------
    def _check_page(self, page_no: int) -> None:
        if not 0 <= page_no < self.geometry.num_pages:
            raise FlashViolation(
                f"page {page_no} out of range [0, {self.geometry.num_pages})"
            )

    def _check_block(self, block_no: int) -> None:
        if not 0 <= block_no < self.geometry.num_blocks:
            raise FlashViolation(
                f"block {block_no} out of range [0, {self.geometry.num_blocks})"
            )


class BlockAllocator:
    """Wear-aware, block-granularity allocator over a :class:`NandFlash`.

    The tutorial's log framework allocates and reclaims flash space on a
    *block* basis precisely so partial garbage collection never happens; this
    allocator is the embodiment of that rule. Freeing a block erases it
    (paying the erase cost) and returns it to the free pool.

    Allocation is **wear-levelled**: among free blocks, the least-erased one
    is handed out first, so reorganization churn (allocate/drop cycles)
    spreads erases across the chip instead of hammering a hot region —
    NAND blocks endure a finite erase count, and log-structured designs
    live or die by this.
    """

    def __init__(self, flash: NandFlash, allocated=()) -> None:
        self.flash = flash
        #: Optional :class:`~repro.hardware.cache.PageCache` every log built
        #: on this allocator reads through (see ``attach_cache``). Kept here
        #: because the allocator is the one object all storage structures
        #: already share.
        self.page_cache = None
        self._allocated: set[int] = set(allocated)
        # Heap of (erase_count, block); counts are refreshed lazily on pop.
        # Priorities are seeded from the chip's real wear counters so an
        # allocator built over a used chip (the mount/recovery path) still
        # levels wear instead of assuming a factory-fresh device.
        self._free: list[tuple[int, int]] = [
            (flash.erase_count(block), block)
            for block in range(flash.geometry.num_blocks)
            if block not in self._allocated
        ]
        heapq.heapify(self._free)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def allocated_blocks(self) -> int:
        return len(self._allocated)

    def attach_cache(self, cache) -> None:
        """Route every log read through ``cache`` (None to detach)."""
        self.page_cache = cache

    def allocate(self) -> int:
        """Pop the least-worn free (erased) block; raises when full."""
        while self._free:
            priority, block = heapq.heappop(self._free)
            current = self.flash.erase_count(block)
            if priority != current:
                # Stale priority (the block wore since it was pushed):
                # re-queue at its true wear level and keep popping.
                heapq.heappush(self._free, (current, block))
                continue
            self._allocated.add(block)
            return block
        raise FlashViolation("flash chip is full: no free blocks")

    def free(self, block_no: int) -> None:
        """Erase and recycle a previously allocated block."""
        if block_no not in self._allocated:
            raise FlashViolation(f"block {block_no} is not allocated")
        self._allocated.remove(block_no)
        self.flash.erase_block(block_no)
        heapq.heappush(self._free, (self.flash.erase_count(block_no), block_no))

    def wear_spread(self) -> tuple[int, int]:
        """(min, max) erase counts across the chip — the levelling metric."""
        counts = [
            self.flash.erase_count(block)
            for block in range(self.flash.geometry.num_blocks)
        ]
        return min(counts), max(counts)
