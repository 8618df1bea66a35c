"""RAM-charged LRU page cache between :class:`NandFlash` and every reader.

Part II of the tutorial sells its designs by page-read counts under a
<=128 KB RAM budget; the flash-aware indexing literature it cites (PBFilter
and friends) wins precisely by spending a little RAM to avoid re-reading
flash. This module is that trade made explicit: a :class:`PageCache` holds
recently read flash pages in RAM, and its capacity is **charged against the
MCU's** :class:`~repro.hardware.ram.RamArena`, so the budget the benchmarks
report stays honest — a 16-page cache on 2 KB pages really does cost 32 KB
of the arena.

Correctness rules:

* the cache is keyed by **physical page number** and subscribes to the
  flash chip's program/erase notifications, so any content change — a block
  erased by :meth:`BlockAllocator.free` during a reorganization swap, or a
  recycled block being re-programmed — invalidates the affected entries
  before a stale byte can ever be served;
* invalidating a **pinned** page raises :class:`StorageError` loudly: it
  means some reader is holding a page whose block was just erased under it,
  which is a layering bug, not a condition to paper over;
* a cache of ``capacity_pages == 0`` is a pure pass-through, reproducing
  the uncached :class:`~repro.hardware.flash.FlashStats` counts exactly
  (the escape hatch benchmarks use as their baseline).

Hot pages are also **decoded once**: :meth:`PageCache.read_decoded`
memoizes a page's decoder (for record logs,
:func:`repro.storage.pager.unpack_records`) alongside the cached bytes,
so repeated scans of the same page (the double-pass TF-IDF query,
repeated Tselect probes) skip both the flash IO and the unpacking.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import StorageError
from repro.hardware.flash import NandFlash
from repro.hardware.ram import RamArena

#: RAM charged per cache slot beyond the page itself: the directory entry
#: (physical page number + LRU links), matching what token firmware would
#: keep for a slot descriptor.
SLOT_OVERHEAD_BYTES = 8


@dataclass
class CacheStats:
    """Mutable counters of one page cache (mirrors :class:`FlashStats`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    pinned_high_water: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from RAM (0.0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> "CacheStats":
        """Return an independent copy (for before/after deltas in benches)."""
        return CacheStats(
            self.hits,
            self.misses,
            self.evictions,
            self.invalidations,
            self.pinned_high_water,
        )

    def delta(self, before: "CacheStats") -> "CacheStats":
        """Operations performed since ``before`` was snapshotted.

        ``pinned_high_water`` is a level, not a counter, so the delta keeps
        the current value rather than subtracting.
        """
        return CacheStats(
            self.hits - before.hits,
            self.misses - before.misses,
            self.evictions - before.evictions,
            self.invalidations - before.invalidations,
            self.pinned_high_water,
        )


class _Entry:
    """One cached page: raw bytes plus the lazily memoized decode."""

    __slots__ = ("data", "decoded", "pins")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.decoded = None
        self.pins = 0


class PageCache:
    """LRU cache of flash pages, charged against a :class:`RamArena`.

    Sits between the :class:`NandFlash` chip and every log reader (wired in
    via :attr:`BlockAllocator.page_cache`). Reads of cached pages cost no
    flash IO — :class:`~repro.hardware.flash.FlashStats` only counts real
    chip operations — and the cache's own :class:`CacheStats` reports the
    hit/miss/eviction picture benchmarks plot.
    """

    def __init__(
        self,
        flash: NandFlash,
        capacity_pages: int,
        ram: RamArena | None = None,
        tag: str = "pagecache",
    ) -> None:
        if capacity_pages < 0:
            raise StorageError("cache capacity must be >= 0 pages")
        self.flash = flash
        self.capacity_pages = capacity_pages
        self.stats = CacheStats()
        self._entries: OrderedDict[int, _Entry] = OrderedDict()
        self._pinned_pages = 0
        self._ram = ram
        self._ram_handle: int | None = None
        self._closed = False
        if ram is not None and capacity_pages > 0:
            self._ram_handle = ram.allocate(self.ram_bytes, tag=tag)
        flash.subscribe(
            on_program=self._on_program,
            on_erase=self._on_erase,
            on_power_cycle=self._on_power_cycle,
        )

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.capacity_pages > 0 and not self._closed

    @property
    def ram_bytes(self) -> int:
        """RAM this cache charges: page frames plus slot descriptors."""
        page_size = self.flash.geometry.page_size
        return self.capacity_pages * (page_size + SLOT_OVERHEAD_BYTES)

    @property
    def cached_pages(self) -> int:
        return len(self._entries)

    @property
    def pinned_pages(self) -> int:
        return self._pinned_pages

    def __contains__(self, page_no: int) -> bool:
        return page_no in self._entries

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read_page(self, page_no: int) -> bytes:
        """Read one physical page, from RAM when cached."""
        entry = self._lookup(page_no)
        if entry is None:
            entry = self._fill(page_no)
        return entry.data

    def read_decoded(self, page_no: int, decode):
        """Read one page through ``decode``, memoizing the result.

        ``decode(data)`` runs at most once per cached residency; each page
        must always be read with the same decoder (every page belongs to
        exactly one log, so this holds by construction). The decoded object
        is shared between readers and must be treated as immutable.
        """
        entry = self._lookup(page_no)
        if entry is None:
            entry = self._fill(page_no)
        if entry.decoded is None:
            entry.decoded = decode(entry.data)
        return entry.decoded

    def _lookup(self, page_no: int) -> _Entry | None:
        entry = self._entries.get(page_no)
        if entry is None:
            return None
        self.stats.hits += 1
        self._entries.move_to_end(page_no)
        return entry

    def _fill(self, page_no: int) -> _Entry:
        self.stats.misses += 1
        entry = _Entry(self.flash.read_page(page_no))
        if self.enabled and self._make_room():
            self._entries[page_no] = entry
        return entry

    def _make_room(self) -> bool:
        """Evict LRU unpinned entries until a slot is free.

        Returns False when every resident page is pinned — the new page is
        then served read-through without being cached, never by evicting a
        pinned frame.
        """
        while len(self._entries) >= self.capacity_pages:
            victim = next(
                (
                    page_no
                    for page_no, entry in self._entries.items()
                    if entry.pins == 0
                ),
                None,
            )
            if victim is None:
                return False
            del self._entries[victim]
            self.stats.evictions += 1
        return True

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self, page_no: int) -> bytes:
        """Read a page and pin its frame against eviction.

        Pins nest; every :meth:`pin` needs a matching :meth:`unpin`. On a
        disabled (capacity-0) cache this degrades to a plain read.
        """
        entry = self._lookup(page_no)
        if entry is None:
            entry = self._fill(page_no)
        if page_no in self._entries:
            if entry.pins == 0:
                self._pinned_pages += 1
                self.stats.pinned_high_water = max(
                    self.stats.pinned_high_water, self._pinned_pages
                )
            entry.pins += 1
        return entry.data

    def unpin(self, page_no: int) -> None:
        entry = self._entries.get(page_no)
        if entry is None or entry.pins == 0:
            raise StorageError(f"page {page_no} is not pinned")
        entry.pins -= 1
        if entry.pins == 0:
            self._pinned_pages -= 1

    # ------------------------------------------------------------------
    # Invalidation (wired to the flash chip's mutation notifications)
    # ------------------------------------------------------------------
    def invalidate_page(self, page_no: int) -> None:
        """Drop one page from the cache; pinned pages refuse loudly."""
        entry = self._entries.get(page_no)
        if entry is None:
            return
        if entry.pins:
            raise StorageError(
                f"page {page_no} changed on flash while pinned "
                f"({entry.pins} pins): reader would observe stale data"
            )
        del self._entries[page_no]
        self.stats.invalidations += 1

    def invalidate_block(self, block_no: int) -> None:
        """Drop every cached page of ``block_no`` (erase granularity)."""
        geometry = self.flash.geometry
        start = geometry.first_page_of(block_no)
        for page_no in range(start, start + geometry.pages_per_block):
            self.invalidate_page(page_no)

    def clear(self) -> None:
        """Drop every unpinned entry (e.g. before a RAM-hungry phase)."""
        for page_no in [
            page_no
            for page_no, entry in self._entries.items()
            if entry.pins == 0
        ]:
            del self._entries[page_no]
            self.stats.invalidations += 1

    def _on_program(self, page_no: int) -> None:
        # A cached read of the page's *erased* state (b"") would now be
        # stale; recycled reorg blocks hit this path constantly.
        self.invalidate_page(page_no)

    def _on_erase(self, block_no: int) -> None:
        self.invalidate_block(block_no)

    def _on_power_cycle(self) -> None:
        """Power loss: the RAM this cache lives in is gone, contents and all.

        Pins evaporate with their readers. The cache also *disables*
        itself: the chip just dropped every subscription, so continuing to
        cache would mean serving pages with no invalidation feed — the one
        way this layer could ever return stale bytes.
        """
        self.stats.invalidations += len(self._entries)
        self._entries.clear()
        self._pinned_pages = 0
        self._closed = True
        if self._ram is not None and self._ram_handle is not None:
            self._ram.free(self._ram_handle)
            self._ram_handle = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the RAM reservation and stop caching (idempotent)."""
        if self._closed:
            return
        if self._pinned_pages:
            raise StorageError(
                f"cannot close cache with {self._pinned_pages} pinned pages"
            )
        self._entries.clear()
        self._closed = True
        self.flash.unsubscribe(
            on_program=self._on_program,
            on_erase=self._on_erase,
            on_power_cycle=self._on_power_cycle,
        )
        if self._ram is not None and self._ram_handle is not None:
            self._ram.free(self._ram_handle)
            self._ram_handle = None
